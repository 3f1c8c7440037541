"""The runner conformance suite: one contract for every registered backend.

Every name in ``RUNNER_BACKENDS``, at one and two workers, must give the
records ``SerialRunner`` gives for the same seed pairs — derived or
explicit — on a collapsed chunk-commit batch, a raw-protocol batch and a
batched network-kernel batch; raise the same exception; emit the same
``trial`` events; and report its fallbacks truthfully.  The backends that
stripe over a process pool (found by asking the registry, so both inner
runners are covered) must also keep their records whatever the stripe
size and worker count, reuse their pool across batches, and recover
from a killed worker, a pool that cannot start and unpicklable work.
A trial that raises propagates its exception and keeps the pool.
A newly registered backend gets every check here without an edit.

Kernel-level grids (scheme × channel, network bursts, flip sources)
live in their own suites: they test the kernels, not the runners.
"""

from __future__ import annotations

import concurrent.futures
import os

import pytest

from repro.channels import CorrelatedNoiseChannel, IndependentNoiseChannel
from repro.errors import ConfigurationError
from repro.network import NetworkBeepingChannel, NeighborORTask, TopologySpec
from repro.observe import MetricsCollector, Observer
from repro.parallel import (
    RUNNER_BACKENDS,
    ChannelSpec,
    ProcessPoolRunner,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    make_runner,
    run_trial,
)
from repro.parallel.runner import trial_seed_pair
from repro.simulation import ChunkCommitSimulator
from repro.tasks import InputSetTask, ParityTask
from repro.vectorized import VectorizedRunner

TRIALS = 8

BACKENDS = [
    (backend, workers) for backend in RUNNER_BACKENDS for workers in (1, 2)
]


def _pool_backends() -> list[str]:
    """The registered backends that stripe over a pool at two workers."""
    found = []
    for backend in RUNNER_BACKENDS:
        runner = make_runner(2, backend=backend)
        if isinstance(runner, ProcessPoolRunner):
            found.append(backend)
        runner.close()
    return found


POOL_BACKENDS = _pool_backends()

#: The reasons a pool hands its batch back in-process.
POOL_DOWNGRADES = (
    "unpicklable task/executor",
    "process pool failed to start",
    "process pool broke mid-batch",
)


def _chunk_executor(task, channel):
    return SimulationExecutor(
        task, channel, SimulatorSpec.of(ChunkCommitSimulator)
    )


def _batches():
    """One executor per route: collapsed scheme, raw scalar protocol,
    batched network kernel."""
    chunked = InputSetTask(4)
    parity = ParityTask(3)
    ring = TopologySpec.of("ring", n=7)
    network = NeighborORTask(ring.build())
    return {
        "chunk-commit": (
            chunked,
            _chunk_executor(
                chunked, ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
            ),
        ),
        "raw-protocol": (
            parity,
            ProtocolExecutor(
                parity, ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
            ),
        ),
        "network": (
            network,
            ProtocolExecutor(
                network,
                ChannelSpec.of(NetworkBeepingChannel, 0.05, topology=ring),
            ),
        ),
    }


BATCHES = _batches()

#: Seeds no derivation produces: small, repeated and out of order.
EXPLICIT_PAIRS = [(5 + t, 3 + 977 * t) for t in (3, 0, 7, 1, 1, 4, 2, 9)]


def _serial(task, executor, seed, trials=TRIALS):
    return SerialRunner().run_trials(task, executor, trials, seed=seed)


@pytest.fixture(params=BACKENDS, ids=lambda p: f"{p[0]}-w{p[1]}")
def runner(request):
    backend, workers = request.param
    runner = make_runner(workers, backend=backend)
    yield runner
    runner.close()


@pytest.fixture(params=POOL_BACKENDS)
def pool_backend(request):
    return request.param


def _pool(backend, workers=2, chunk_size=None):
    """A fresh pool runner with ``backend``'s inner runner."""
    inner = make_runner(2, backend=backend).inner
    return ProcessPoolRunner(workers, chunk_size=chunk_size, inner=inner)


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_explicit_pair_records(runner, batch):
    """Explicit seed pairs give the scalar ``run_trial`` records."""
    task, executor = BATCHES[batch]
    result = runner.run_trials(
        task, executor, TRIALS, seed=123, trial_seeds=EXPLICIT_PAIRS
    )
    assert result.records == [
        run_trial(task, executor, 123, index, seeds=pair)
        for index, pair in enumerate(EXPLICIT_PAIRS)
    ]
    reason = runner.last_fallback_reason
    assert reason not in POOL_DOWNGRADES
    if result.timing["fallback"]:
        assert reason is not None
    if batch != "raw-protocol":
        # Non-vacuity: collapsible batches did not fall back to scalar.
        assert reason is None
        assert result.timing["fallback"] == 0.0


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_derived_pair_records(runner, batch):
    """Derived pairs passed explicitly equal the seed alone and serial."""
    task, executor = BATCHES[batch]
    derived = [trial_seed_pair(31, index) for index in range(TRIALS)]
    explicit = runner.run_trials(
        task, executor, TRIALS, trial_seeds=derived
    ).records
    seeded = runner.run_trials(task, executor, TRIALS, seed=31).records
    assert explicit == seeded == _serial(task, executor, 31).records


@pytest.mark.parametrize("count", [TRIALS - 1, TRIALS + 1])
def test_wrong_number_of_pairs_raises(runner, count):
    task, executor = BATCHES["raw-protocol"]
    with pytest.raises(ConfigurationError):
        runner.run_trials(
            task, executor, TRIALS, trial_seeds=EXPLICIT_PAIRS[:1] * count
        )


def _raised(runner, task, executor):
    try:
        runner.run_trials(task, executor, TRIALS, seed=3)
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return type(exc), str(exc)
    return None


def test_exceptions_match_serial(runner):
    """Chunk-commit keeps the scalar scheme's requires-a-correlated-
    channel error under independent noise, whichever backend runs it."""
    task = ParityTask(4)
    executor = _chunk_executor(
        task, ChannelSpec.of(IndependentNoiseChannel, 0.15)
    )
    expected = _raised(SerialRunner(), task, executor)
    assert expected is not None
    assert expected[0] is ConfigurationError
    assert "requires a correlated channel" in expected[1]
    assert _raised(runner, task, executor) == expected


def _traced(runner, task, executor):
    collector = MetricsCollector()
    with Observer([collector]) as observer:
        batch = runner.run_trials(
            task, executor, TRIALS, seed=5, observe=observer
        )
    trials = [
        {
            key: value
            for key, value in event.items()
            if key not in ("ts", "elapsed_s")
        }
        for event in collector.events_of("trial")
    ]
    return batch, trials, collector


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_trial_events_match_serial(runner, batch):
    task, executor = BATCHES[batch]
    traced, trials, collector = _traced(runner, task, executor)
    assert trials == _traced(SerialRunner(), task, executor)[1]
    assert collector.count("sweep_batch") == 1
    chunks = collector.events_of("worker_chunk")
    if traced.timing["parallel"]:
        assert len(chunks) == traced.timing["chunks"]
        assert sum(event["trials"] for event in chunks) == TRIALS
    else:
        assert chunks == []


def test_pool_backends_cover_both_inner_runners():
    assert {
        make_runner(2, backend=backend).inner for backend in POOL_BACKENDS
    } == {SerialRunner, VectorizedRunner}


def test_default_stripes_follow_the_inner_rule(pool_backend):
    runner = _pool(pool_backend, workers=2)
    stripes = runner._stripes(10)
    per_worker = runner.inner.STRIPES_PER_WORKER
    assert per_worker == {SerialRunner: 4, VectorizedRunner: 1}[runner.inner]
    assert len(stripes[0]) == -(-10 // (per_worker * 2))
    assert sum(stripes, []) == list(range(10))


@pytest.mark.parametrize(
    "workers, chunk_size",
    [(2, 1), (2, 2), (2, 5), (2, TRIALS), (2, None), (3, 5)],
)
def test_stripes_keep_records(pool_backend, workers, chunk_size):
    """Neither stripe size nor worker count changes a record."""
    with _pool(pool_backend, workers, chunk_size) as runner:
        for name in sorted(BATCHES):
            task, executor = BATCHES[name]
            batch = runner.run_trials(task, executor, TRIALS, seed=71)
            assert batch.timing["parallel"] == 1.0
            assert batch.timing["fallback"] == 0.0
            assert batch.records == _serial(task, executor, 71).records
            # The workers report the inner runner's own fallback (the
            # vectorized one cannot collapse a raw protocol).
            inner = runner.inner()
            inner.run_trials(task, executor, TRIALS, seed=71)
            assert runner.last_fallback_reason == inner.last_fallback_reason


def test_pool_reused_across_batches(pool_backend):
    task, executor = BATCHES["chunk-commit"]
    with _pool(pool_backend) as runner:
        runner.run_trials(task, executor, 4, seed=0)
        pool = runner._pool
        assert pool is not None
        runner.run_trials(task, executor, 4, seed=1)
        assert runner._pool is pool


def test_trial_exception_keeps_the_pool(pool_backend):
    """A trial's own exception is not a pool failure: it propagates, and
    the same pool runs the next batch in parallel."""
    task, executor = BATCHES["chunk-commit"]
    parity = ParityTask(4)
    doomed = _chunk_executor(
        parity, ChannelSpec.of(IndependentNoiseChannel, 0.15)
    )
    with _pool(pool_backend) as runner:
        runner.run_trials(task, executor, 4, seed=0)
        pool = runner._pool
        assert pool is not None
        with pytest.raises(
            ConfigurationError, match="requires a correlated channel"
        ):
            runner.run_trials(parity, doomed, TRIALS, seed=3)
        assert runner._pool is pool
        batch = runner.run_trials(task, executor, TRIALS, seed=4)
        assert batch.timing["parallel"] == 1.0
        assert runner.last_fallback_reason is None
        assert batch.records == _serial(task, executor, 4).records


def test_single_worker_never_starts_a_pool(pool_backend):
    task, executor = BATCHES["chunk-commit"]
    runner = make_runner(1, backend=pool_backend)
    batch = runner.run_trials(task, executor, TRIALS, seed=2)
    assert runner._pool is None
    assert runner.last_fallback_reason is None
    assert batch.timing["parallel"] == 0.0
    assert batch.timing["fallback"] == 0.0
    assert batch.records == _serial(task, executor, 2).records


# ---------------------------------------------------------------------
# Failure paths: each must give the serial records, say why, flag the
# batch, and leave the pool down on the next batch.
# ---------------------------------------------------------------------

DOOMED_INDEX = 5


def _correlated_or_die(epsilon, rng, *, doomed_seed, parent_pid):
    """A correlated channel, except that building trial ``doomed_seed``'s
    kills the process — when it is a pool worker, not the parent."""
    if rng == doomed_seed and os.getpid() != parent_pid:
        os._exit(1)
    return CorrelatedNoiseChannel(epsilon, rng=rng)


def _assert_downgrades(runner, task, executor, reason):
    for seed in (17, 18):  # the second batch must not restart the pool
        batch = runner.run_trials(task, executor, TRIALS, seed=seed)
        assert batch.records == _serial(task, executor, seed).records
        assert runner.last_fallback_reason == reason
        assert batch.timing["fallback"] == 1.0
        assert batch.timing["parallel"] == 0.0
        assert runner._pool is None


def test_worker_killed_mid_batch(pool_backend):
    task = InputSetTask(4)
    executor = _chunk_executor(
        task,
        ChannelSpec.of(
            _correlated_or_die,
            0.1,
            doomed_seed=trial_seed_pair(17, DOOMED_INDEX)[1],
            parent_pid=os.getpid(),
        ),
    )
    with _pool(pool_backend) as runner:
        _assert_downgrades(
            runner, task, executor, "process pool broke mid-batch"
        )


def test_pool_that_cannot_start(pool_backend, monkeypatch):
    starts = []

    def refuse(*args, **kwargs):
        starts.append(args)
        raise OSError("no process pool here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    task, executor = BATCHES["chunk-commit"]
    with _pool(pool_backend) as runner:
        _assert_downgrades(
            runner, task, executor, "process pool failed to start"
        )
    assert len(starts) == 1


def test_unpicklable_closure_executor(pool_backend):
    task, picklable = BATCHES["raw-protocol"]
    closure = lambda inputs, seed: picklable(inputs, seed)  # noqa: E731
    with _pool(pool_backend) as runner:
        _assert_downgrades(
            runner, task, closure, "unpicklable task/executor"
        )
