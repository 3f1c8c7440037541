"""Integration tests: simulators × tasks × channels, end to end."""

import pytest

from repro.analysis import SweepSpec, run_sweep_point
from repro.channels import (
    CorrelatedNoiseChannel,
    OneSidedNoiseChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.simulation import (
    ChunkCommitSimulator,
    RepetitionSimulator,
    RewindSimulator,
    SimulationParameters,
)
from repro.tasks import (
    BitExchangeTask,
    InputSetTask,
    MaxIdTask,
    OrTask,
    ParityTask,
)


def _executor(task, simulator, channel_factory):
    def run(inputs, trial_seed):
        channel = channel_factory(trial_seed)
        return simulator.simulate(
            task.noiseless_protocol(), inputs, channel
        )

    return run


@pytest.mark.parametrize(
    "task",
    [
        InputSetTask(5),
        ParityTask(6),
        BitExchangeTask(4),
        MaxIdTask(4, id_bits=5),
        OrTask(6),
    ],
    ids=["input-set", "parity", "bit-exchange", "max-id", "or"],
)
class TestAllTasksAllSimulators:
    def test_repetition_over_two_sided(self, task):
        point = run_sweep_point(
            task,
            _executor(
                task,
                RepetitionSimulator(),
                lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
            ),
            SweepSpec(15, 11),
        )
        assert point.success.value >= 0.85

    def test_chunk_commit_over_two_sided(self, task):
        point = run_sweep_point(
            task,
            _executor(
                task,
                ChunkCommitSimulator(),
                lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
            ),
            SweepSpec(15, 13),
        )
        assert point.success.value >= 0.85

    def test_rewind_over_suppression(self, task):
        point = run_sweep_point(
            task,
            _executor(
                task,
                RewindSimulator(),
                lambda seed: SuppressionNoiseChannel(0.1, rng=seed),
            ),
            SweepSpec(15, 17),
        )
        assert point.success.value >= 0.85


class TestChunkCommitOverReductionChannel:
    """The A.1.2 reduction channel behaves like two-sided ε = 1/4 — the
    chunk simulator configured for that law succeeds over it."""

    def test_success(self):
        task = InputSetTask(4)
        simulator = ChunkCommitSimulator(
            SimulationParameters(code_rate_constant=20.0)
        )
        point = run_sweep_point(
            task,
            _executor(
                task,
                simulator,
                lambda seed: SharedFlipReductionChannel(rng=seed),
            ),
            SweepSpec(10, 23),
        )
        assert point.success.value >= 0.7


class TestNoiseHurtsUnprotectedProtocols:
    """Sanity direction check: the raw noiseless protocol fails badly
    over noise while simulators restore correctness."""

    def test_raw_protocol_fails(self):
        from repro.core import run_protocol

        task = InputSetTask(5)

        def raw(inputs, trial_seed):
            channel = CorrelatedNoiseChannel(0.2, rng=trial_seed)
            return run_protocol(
                task.noiseless_protocol(), inputs, channel
            )

        point = run_sweep_point(task, raw, SweepSpec(30, 29))
        assert point.success.value <= 0.3

    def test_simulator_restores_correctness(self):
        task = InputSetTask(5)
        point = run_sweep_point(
            task,
            _executor(
                task,
                ChunkCommitSimulator(),
                lambda seed: CorrelatedNoiseChannel(0.2, rng=seed),
            ),
            SweepSpec(15, 31),
        )
        assert point.success.value >= 0.8


class TestOverheadAccounting:
    def test_chunk_overhead_matches_report(self):
        task = InputSetTask(6)
        executor = _executor(
            task,
            ChunkCommitSimulator(),
            lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
        )
        inputs = task.sample_inputs(__import__("random").Random(0))
        result = executor(inputs, 0)
        report = result.metadata["report"]
        assert report.simulated_rounds == result.rounds
        assert report.overhead == result.rounds / 12

    def test_rewind_overhead_is_fixed(self):
        """The rewind scheme's round count is input- and noise-independent
        (a fixed budget) — the structural 'constant overhead' claim."""
        task = InputSetTask(5)
        simulator = RewindSimulator()
        rounds = set()
        import random as _random

        for seed in range(5):
            inputs = task.sample_inputs(_random.Random(seed))
            channel = SuppressionNoiseChannel(0.15, rng=seed)
            result = simulator.simulate(
                task.noiseless_protocol(), inputs, channel
            )
            rounds.add(result.rounds)
        assert len(rounds) == 1


class TestAsymmetryEndToEnd:
    """§1.1: suppression noise is cheap to defeat, upward noise is not."""

    def test_rewind_succeeds_down_fails_up(self):
        task = InputSetTask(6)
        simulator = RewindSimulator()
        down = run_sweep_point(
            task,
            _executor(
                task,
                simulator,
                lambda seed: SuppressionNoiseChannel(0.2, rng=seed),
            ),
            SweepSpec(20, 37),
        )
        up = run_sweep_point(
            task,
            _executor(
                task,
                simulator,
                lambda seed: OneSidedNoiseChannel(0.2, rng=seed),
            ),
            SweepSpec(20, 37),
        )
        assert down.success.value >= 0.9
        assert up.success.value <= 0.5

    def test_chunk_commit_handles_upward_noise(self):
        """The owners machinery is exactly what fixes the hard direction."""
        task = InputSetTask(6)
        point = run_sweep_point(
            task,
            _executor(
                task,
                ChunkCommitSimulator(),
                lambda seed: OneSidedNoiseChannel(0.2, rng=seed),
            ),
            SweepSpec(15, 41),
        )
        assert point.success.value >= 0.85
