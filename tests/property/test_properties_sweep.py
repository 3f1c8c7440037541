"""Property-based tests for the sweep layer's seeding and bookkeeping.

The parallel runner's determinism contract rests on three properties,
checked here over random seeds and grids:

1. trial seeds derived by the runner are pairwise distinct;
2. trial records depend only on ``(seed, index)``, never on dispatch
   order;
3. ``run_sweep_point`` bookkeeping matches a hand-rolled reference loop.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SweepSpec, run_sweep_point
from repro.analysis.stats import mean
from repro.channels import CorrelatedNoiseChannel
from repro.parallel import (
    ChannelSpec,
    ProtocolExecutor,
    SerialRunner,
    run_trial,
)
from repro.rng import derive_seed, spawn
from repro.tasks import OrTask

seeds = st.integers(min_value=0, max_value=2**63 - 1)
epsilons = st.sampled_from([0.0, 0.1, 0.3])


def _executor(epsilon: float):
    task = OrTask(2)
    return task, ProtocolExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, epsilon),
    )


class TestTrialSeedDerivation:
    @given(seed=seeds, trials=st.integers(min_value=2, max_value=300))
    @settings(max_examples=60)
    def test_trial_seeds_pairwise_distinct(self, seed, trials):
        trial_seeds = [
            derive_seed(seed, f"trial[{index}]") for index in range(trials)
        ]
        assert len(set(trial_seeds)) == trials

    @given(seed=seeds, trials=st.integers(min_value=2, max_value=300))
    @settings(max_examples=60)
    def test_input_and_trial_streams_disjoint(self, seed, trials):
        input_seeds = {
            derive_seed(seed, f"inputs[{index}]") for index in range(trials)
        }
        trial_seeds = {
            derive_seed(seed, f"trial[{index}]") for index in range(trials)
        }
        assert not input_seeds & trial_seeds

    @given(seed=seeds, points=st.integers(min_value=2, max_value=100))
    @settings(max_examples=60)
    def test_grid_point_seeds_pairwise_distinct(self, seed, points):
        point_seeds = [
            derive_seed(seed, f"point[{index}]") for index in range(points)
        ]
        assert len(set(point_seeds)) == points


class TestDispatchOrderIndependence:
    @given(
        seed=seeds,
        epsilon=epsilons,
        order=st.permutations(list(range(8))),
    )
    @settings(max_examples=25, deadline=None)
    def test_records_identical_under_any_dispatch_order(
        self, seed, epsilon, order
    ):
        task, executor = _executor(epsilon)
        in_order = [
            run_trial(task, executor, seed, index) for index in range(8)
        ]
        shuffled = [
            run_trial(task, executor, seed, index) for index in order
        ]
        shuffled.sort(key=lambda record: record.index)
        assert shuffled == in_order


class TestEstimateSuccessBookkeeping:
    @given(
        seed=seeds,
        epsilon=epsilons,
        trials=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_hand_rolled_loop(self, seed, epsilon, trials):
        task, executor = _executor(epsilon)
        point = run_sweep_point(
            task, executor, SweepSpec(trials, seed, runner=SerialRunner())
        )

        # The historical reference loop, character for character.
        successes = 0
        rounds = []
        for trial in range(trials):
            inputs = task.sample_inputs(spawn(seed, f"inputs[{trial}]"))
            trial_seed = derive_seed(seed, f"trial[{trial}]")
            result = executor(inputs, trial_seed)
            if task.is_correct(inputs, result.outputs):
                successes += 1
            rounds.append(float(result.rounds))

        assert point.success.successes == successes
        assert point.success.trials == trials
        assert point.mean_rounds == mean(rounds)
        assert point.mean_overhead == mean(rounds) / max(
            1, task.noiseless_length()
        )
