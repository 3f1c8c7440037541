"""Scale confidence tests — the largest instances the suite exercises.

These run the heavy configurations the benchmarks rely on, as plain tests,
so a performance or correctness regression at scale fails CI rather than
silently inflating benchmark times.
"""

import random

import pytest

from repro.channels import CorrelatedNoiseChannel, SuppressionNoiseChannel
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RewindSimulator,
)
from repro.tasks import InputSetTask, MaxIdTask, OrTask


class TestLargeInstances:
    def test_chunk_commit_n64(self):
        task = InputSetTask(64)
        inputs = task.sample_inputs(random.Random(0))
        result = ChunkCommitSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.1, rng=1),
        )
        assert task.is_correct(inputs, result.outputs)
        report = result.metadata["report"]
        assert report.completed
        # Θ(log n) budget sanity: overhead ≈ 20·log2(64) ≈ 140 (E1's
        # fit), far below anything polynomial in n.
        assert report.overhead < 300

    def test_hierarchical_n32_long_protocol(self):
        task = MaxIdTask(32, id_bits=64)
        inputs = task.sample_inputs(random.Random(1))
        result = HierarchicalSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.1, rng=2),
        )
        assert task.is_correct(inputs, result.outputs)
        assert result.metadata["report"].completed

    def test_rewind_long_protocol(self):
        task = MaxIdTask(8, id_bits=128)
        inputs = task.sample_inputs(random.Random(2))
        result = RewindSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            SuppressionNoiseChannel(0.1, rng=3),
        )
        assert task.is_correct(inputs, result.outputs)
        # Constant overhead even at T = 128.
        assert result.rounds <= 2 * (3 * 128 + 32)

    def test_engine_round_throughput_floor(self):
        """The engine must sustain a sane rounds/sec floor at n = 64
        (guards against accidental quadratic behaviour per round)."""
        import time

        task = InputSetTask(64)
        inputs = task.sample_inputs(random.Random(3))
        from repro.core import run_protocol
        from repro.simulation.repetition_sim import (
            RepetitionWrappedProtocol,
        )

        protocol = RepetitionWrappedProtocol(
            task.noiseless_protocol(), repetitions=40
        )
        channel = CorrelatedNoiseChannel(0.1, rng=4)
        start = time.perf_counter()
        result = run_protocol(
            protocol, inputs, channel, record_sent=False
        )
        elapsed = time.perf_counter() - start
        assert result.rounds == 128 * 40
        rate = result.rounds / elapsed
        assert rate > 5_000  # rounds/sec at 64 parties (CI-safe floor)


@pytest.mark.slow
class TestParallelSweepAtScale:
    """The runner equivalence contract at benchmark-scale trial counts.

    Marked ``slow`` (skipped unless RUN_SLOW=1): 10k trials each on two
    backends is deliberately heavier than the CI fast path.
    """

    def test_10k_trial_parallel_sweep_matches_serial_exactly(self):
        from repro.analysis import SweepSpec, run_sweep_point
        from repro.parallel import (
            ChannelSpec,
            ProcessPoolRunner,
            ProtocolExecutor,
            SerialRunner,
        )

        task = OrTask(2)
        executor = ProtocolExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.2),
        )
        trials = 10_000
        serial = run_sweep_point(
            task, executor, SweepSpec(trials, 7, runner=SerialRunner())
        )
        with ProcessPoolRunner(workers=4, chunk_size=512) as runner:
            parallel = run_sweep_point(
                task, executor, SweepSpec(trials, 7, runner=runner)
            )
            assert runner.last_fallback_reason is None
        # Bitwise equality of the whole point, Wilson interval included.
        assert parallel.to_dict() == serial.to_dict()
        assert parallel.success.interval == serial.success.interval
        assert parallel.success.trials == trials


class TestSerializationAtScale:
    def test_execution_to_dict_round_trips(self):
        import json

        task = InputSetTask(8)
        inputs = task.sample_inputs(random.Random(4))
        result = ChunkCommitSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.1, rng=5),
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["rounds"] == result.rounds
        assert payload["report"]["completed"] is True
        assert payload["total_energy"] == result.total_energy

    def test_transcript_included_on_request(self):
        import json

        from repro.channels import NoiselessChannel
        from repro.core import run_protocol

        task = InputSetTask(3)
        inputs = [1, 3, 5]
        result = run_protocol(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        payload = json.loads(
            json.dumps(result.to_dict(include_transcript=True))
        )
        assert payload["transcript"]["or_values"] == [
            1, 0, 1, 0, 1, 0,
        ]
        assert len(payload["transcript"]["received"]) == 3
