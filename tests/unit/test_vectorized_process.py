"""The composed ``vectorized-process`` backend: bitwise + downgrade pins.

The backend's contract is the intersection of its two parents': records
bitwise-identical to every other backend for the same ``(seed, index)``
(vectorized parent), and the pool downgrade protocol — workers == 1,
unpicklable work, broken pools — with ``last_fallback_reason`` telling
the truth (process parent).  Stripe boundaries are an implementation
detail: any ``chunk_size`` and any worker count must merge to the same
batch.
"""

from __future__ import annotations

import pytest

from repro.channels import (
    CorrelatedNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.parallel import (
    ChannelSpec,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import ParityTask
from repro.vectorized import VectorizedProcessRunner, VectorizedRunner

CHANNEL_SPECS = {
    "noiseless": ChannelSpec.of(NoiselessChannel, seed_kwarg=None),
    "correlated": ChannelSpec.of(CorrelatedNoiseChannel, 0.15),
    "one-sided": ChannelSpec.of(OneSidedNoiseChannel, 1 / 3),
    "suppression": ChannelSpec.of(SuppressionNoiseChannel, 0.2),
}

SIMULATORS = {
    "repetition": SimulatorSpec.of(RepetitionSimulator),
    "chunk": SimulatorSpec.of(ChunkCommitSimulator),
    "hierarchical": SimulatorSpec.of(HierarchicalSimulator),
    "rewind": SimulatorSpec.of(RewindSimulator),
}

TRIALS = 6


@pytest.fixture(scope="module")
def pools():
    """One reusable pool per worker count — pool startup dominates these
    tests, so every parametrization shares the same two runners."""
    runners = {
        workers: VectorizedProcessRunner(workers=workers)
        for workers in (2, 4)
    }
    yield runners
    for runner in runners.values():
        runner.close()


def _executor(task, channel_name, simulator_name):
    return SimulationExecutor(
        task=task,
        channel=CHANNEL_SPECS[channel_name],
        simulator=SIMULATORS[simulator_name],
    )


def _run(runner, task, executor, seed, trials=TRIALS):
    try:
        return runner.run_trials(task, executor, trials, seed=seed).records
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return (type(exc), str(exc))


class TestComposedBackendEquivalence:
    @pytest.mark.parametrize("channel_name", sorted(CHANNEL_SPECS))
    @pytest.mark.parametrize("simulator_name", sorted(SIMULATORS))
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_vs_serial_and_vectorized(
        self, pools, channel_name, simulator_name, workers
    ):
        task = ParityTask(3)
        executor = _executor(task, channel_name, simulator_name)
        seed = 300 + workers
        serial = _run(SerialRunner(), task, executor, seed)
        vectorized = _run(VectorizedRunner(), task, executor, seed)
        composed_runner = pools[workers]
        composed = _run(composed_runner, task, executor, seed)
        assert composed == serial
        assert composed == vectorized
        if isinstance(serial, tuple):
            return  # identical exception from all three backends
        # The pool itself must not have downgraded; in-worker collapse
        # fallbacks surface the collapse reason (hierarchical raises on
        # non-correlated families before any fallback can happen).
        if (
            composed_runner.last_fallback_reason is not None
        ):
            assert "pool" not in composed_runner.last_fallback_reason
            assert "unpicklable" not in composed_runner.last_fallback_reason

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, TRIALS])
    def test_stripe_size_is_invisible(self, chunk_size):
        """Stripe boundaries cannot change a record: per-trial seeds come
        from the global index."""
        task = ParityTask(3)
        executor = _executor(task, "correlated", "chunk")
        reference = _run(SerialRunner(), task, executor, 71)
        runner = VectorizedProcessRunner(workers=2, chunk_size=chunk_size)
        try:
            assert _run(runner, task, executor, 71) == reference
        finally:
            runner.close()

    def test_default_stripes_are_balanced_and_contiguous(self):
        runner = VectorizedProcessRunner(workers=4)
        try:
            stripes = runner._stripe_indices(10)
            assert [len(stripe) for stripe in stripes] == [3, 3, 3, 1]
            assert sorted(sum(stripes, [])) == list(range(10))
            for stripe in stripes:
                assert stripe == list(range(stripe[0], stripe[-1] + 1))
        finally:
            runner.close()


class TestComposedBackendDowngrades:
    def test_single_worker_runs_in_process(self):
        task = ParityTask(3)
        executor = _executor(task, "correlated", "chunk")
        runner = VectorizedProcessRunner(workers=1)
        try:
            batch = runner.run_trials(task, executor, TRIALS, seed=9)
            assert runner.last_fallback_reason is None
            assert batch.timing["fallback"] == 0.0
            assert batch.timing["parallel"] == 0.0
            assert batch.records == _run(
                SerialRunner(), task, executor, 9
            )
        finally:
            runner.close()

    def test_unpicklable_executor_falls_back_vectorized(self):
        task = ParityTask(3)
        picklable = _executor(task, "correlated", "chunk")

        class Unpicklable(SimulationExecutor):
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        executor = Unpicklable(
            task=task,
            channel=picklable.channel,
            simulator=picklable.simulator,
        )
        runner = VectorizedProcessRunner(workers=2)
        try:
            batch = runner.run_trials(task, executor, TRIALS, seed=9)
            assert (
                runner.last_fallback_reason == "unpicklable task/executor"
            )
            assert batch.timing["fallback"] == 1.0
            # The recovery path is still the *vectorized* runner.
            assert batch.records == _run(
                VectorizedRunner(), task, picklable, 9
            )
        finally:
            runner.close()

    def test_uncollapsible_batch_reports_collapse_reason(self, pools):
        """The A.1.2 reduction channel cannot collapse: the pool still
        stripes it (scalar loop inside each worker) and the reason
        surfaces."""
        task = ParityTask(3)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(SharedFlipReductionChannel),
            simulator=SIMULATORS["repetition"],
        )
        runner = pools[2]
        batch = runner.run_trials(task, executor, TRIALS, seed=13)
        assert runner.last_fallback_reason is not None
        assert "no collapsed replay" in runner.last_fallback_reason
        assert batch.timing["fallback"] == 0.0  # the pool itself ran
        assert batch.records == _run(SerialRunner(), task, executor, 13)

    def test_trace_events_match_serial(self, pools):
        from repro.observe import MetricsCollector, Observer

        task = ParityTask(3)
        executor = _executor(task, "correlated", "chunk")

        def trial_events(runner):
            collector = MetricsCollector()
            with Observer([collector]) as observer:
                runner.run_trials(
                    task, executor, TRIALS, seed=5, observe=observer
                )
            return [
                {
                    key: value
                    for key, value in event.items()
                    if key not in ("ts", "elapsed_s")
                }
                for event in collector.events
                if event["event"] == "trial"
            ]

        assert trial_events(pools[2]) == trial_events(SerialRunner())
