"""Trial-runner bookkeeping, the default-runner registry and the
picklable executor specs.

Cross-backend record equality, fallbacks and pool failure paths are
checked for every registered backend in ``test_runner_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis import estimate_success
from repro.channels import CorrelatedNoiseChannel, SuppressionNoiseChannel
from repro.errors import ConfigurationError
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    get_default_runner,
    make_runner,
    run_trial,
    use_runner,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import InputSetTask, OrTask

def _raw_executor(n: int, epsilon: float):
    task = InputSetTask(n)
    return task, ProtocolExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, epsilon),
    )


def _simulated_executor(n: int, epsilon: float):
    task = InputSetTask(n)
    return task, SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, epsilon),
        simulator=SimulatorSpec.of(ChunkCommitSimulator),
    )


class TestRunnerBookkeeping:
    def test_records_in_index_order(self):
        task, executor = _raw_executor(3, 0.2)
        with ProcessPoolRunner(workers=2, chunk_size=1) as runner:
            batch = runner.run_trials(task, executor, 7, seed=11)
        assert [record.index for record in batch.records] == list(range(7))
        serial = SerialRunner().run_trials(task, executor, 7, seed=11)
        assert batch.records == serial.records

    def test_aggregate_channel_stats_matches_sum(self):
        task, executor = _raw_executor(4, 0.2)
        batch = SerialRunner().run_trials(task, executor, 5, seed=3)
        total = batch.aggregate_channel_stats()
        assert total.rounds == sum(
            record.channel_rounds for record in batch.records
        )
        assert total.flips == sum(
            record.flips for record in batch.records
        )

    def test_run_trial_depends_only_on_seed_and_index(self):
        task, executor = _raw_executor(3, 0.3)
        first = run_trial(task, executor, seed=77, index=4)
        again = run_trial(task, executor, seed=77, index=4)
        assert first == again
        assert first.index == 4

    def test_timing_keys_present(self):
        task, executor = _raw_executor(3, 0.1)
        point = estimate_success(
            task, executor, 3, seed=0, runner=SerialRunner()
        )
        for key in (
            "elapsed_s",
            "trials_per_s",
            "workers",
            "chunks",
            "busy_s",
            "utilization",
            "parallel",
            "fallback",
        ):
            assert key in point.timing

    def test_to_dict_excludes_timing_by_default(self):
        task, executor = _raw_executor(3, 0.1)
        point = estimate_success(
            task, executor, 2, seed=0, runner=SerialRunner()
        )
        assert "timing" not in point.to_dict()
        assert "timing" in point.to_dict(include_timing=True)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolRunner(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolRunner(workers=2, chunk_size=0)
        task, executor = _raw_executor(3, 0.1)
        with pytest.raises(ConfigurationError):
            SerialRunner().run_trials(task, executor, 0)


class TestDefaultRunnerRegistry:
    def test_default_is_serial(self):
        assert isinstance(get_default_runner(), SerialRunner)

    def test_make_runner_dispatch(self):
        assert isinstance(make_runner(1), SerialRunner)
        assert isinstance(make_runner(None), SerialRunner)
        pooled = make_runner(3)
        assert isinstance(pooled, ProcessPoolRunner)
        assert pooled.workers == 3
        assert pooled.inner is SerialRunner
        pooled.close()

    def test_use_runner_scopes_and_restores(self):
        previous = get_default_runner()
        marker = SerialRunner()
        with use_runner(marker) as active:
            assert active is marker
            assert get_default_runner() is marker
            task, executor = _raw_executor(3, 0.1)
            # No runner= argument: estimate_success picks up the default.
            point = estimate_success(task, executor, 2, seed=0)
            assert point.success.trials == 2
        assert get_default_runner() is previous

    def test_default_runner_used_by_estimate_success(self):
        task, executor = _raw_executor(3, 0.1)
        reference = estimate_success(
            task, executor, 4, seed=6, runner=SerialRunner()
        )
        with ProcessPoolRunner(workers=2, chunk_size=2) as runner:
            with use_runner(runner):
                pooled = estimate_success(task, executor, 4, seed=6)
        assert pooled.to_dict() == reference.to_dict()
        assert pooled.timing["parallel"] == 1.0


class TestExecutorSpecs:
    def test_channel_spec_builds_seeded_channel(self):
        spec = ChannelSpec.of(CorrelatedNoiseChannel, 0.25)
        channel = spec.make(123)
        assert channel.epsilon == 0.25

    def test_channel_spec_seedless(self):
        from repro.channels import NoiselessChannel

        spec = ChannelSpec.of(NoiselessChannel, seed_kwarg=None)
        assert isinstance(spec.make(5), NoiselessChannel)

    def test_simulation_executor_matches_closure(self):
        task = OrTask(3)
        spec_executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
            simulator=SimulatorSpec.of(ChunkCommitSimulator),
        )

        def closure(inputs, trial_seed):
            return ChunkCommitSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(0.1, rng=trial_seed),
            )

        from_spec = estimate_success(
            task, spec_executor, 4, seed=1, runner=SerialRunner()
        )
        from_closure = estimate_success(
            task, closure, 4, seed=1, runner=SerialRunner()
        )
        assert from_spec.to_dict() == from_closure.to_dict()

    @pytest.mark.parametrize(
        "simulator, channel",
        [
            (ChunkCommitSimulator, CorrelatedNoiseChannel),
            (RewindSimulator, SuppressionNoiseChannel),
            (RepetitionSimulator, CorrelatedNoiseChannel),
            (HierarchicalSimulator, CorrelatedNoiseChannel),
        ],
    )
    def test_fresh_simulator_per_trial_matches_shared_instance(
        self, simulator, channel
    ):
        """Simulators hold no cross-trial state: a ``SimulatorSpec``
        (a fresh instance per trial) records exactly what one instance
        reused over the whole batch records."""
        task = InputSetTask(4)
        shared = simulator()

        def closure(inputs, trial_seed):
            return shared.simulate(
                task.noiseless_protocol(),
                inputs,
                channel(0.15, rng=trial_seed),
            )

        spec_executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(channel, 0.15),
            simulator=SimulatorSpec.of(simulator),
        )
        runner = SerialRunner()
        from_spec = runner.run_trials(task, spec_executor, 4, seed=11)
        from_shared = runner.run_trials(task, closure, 4, seed=11)
        assert from_spec.records == from_shared.records

    def test_specs_are_picklable(self):
        import pickle

        task, executor = _simulated_executor(4, 0.1)
        clone_task, clone = pickle.loads(pickle.dumps((task, executor)))
        # Tasks have no __eq__; equivalence means identical trial records.
        assert run_trial(clone_task, clone, seed=8, index=0) == run_trial(
            task, executor, seed=8, index=0
        )
