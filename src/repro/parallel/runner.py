"""Pluggable Monte-Carlo trial runners.

Every sweep in this package reduces to the same embarrassingly parallel
unit: *run one independently seeded trial and record what happened*.
:func:`run_trial` is that unit, and a :class:`TrialRunner` decides how a
batch of them executes — in-process (an :class:`InProcessRunner` such
as :class:`SerialRunner`) or striped across a reusable process pool whose
workers each run an in-process runner (:class:`ProcessPoolRunner`).

**Determinism contract.**  A trial's behaviour depends only on its seed
pair ``(input seed, executor seed)``: inputs are sampled from
``random.Random(input seed)`` and the executor's channel/protocol
randomness comes from the executor seed — never from the dispatch order,
the worker a trial lands on, or the chunking.  By default trial ``index``
of a batch seeded ``seed`` gets :func:`trial_seed_pair`'s
``(derive_seed(seed, f"inputs[{index}]"), derive_seed(seed,
f"trial[{index}]"))``; a caller with its own seeding passes the pairs as
data (``run_trials(..., trial_seeds=pairs)``).  Runners return records
sorted by trial index, and all aggregation happens on the returned
records in index order, so every backend produces **bitwise identical**
sweep results for the same seeds.  Wall-clock measurements live in
:class:`TrialBatch.timing` only, never in the records.

The process-pool backend degrades gracefully: with ``workers=1``, with an
unpicklable task/executor (e.g. a closure), or when the pool cannot start
or breaks (restricted environments, a killed worker), it runs the batch
on its in-process runner — same records, ``timing["fallback"]`` flags the
downgrade.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.stats import ChannelStats
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError
from repro.rng import derive_seed
from repro.tasks.base import Task

__all__ = [
    "TrialRecord",
    "TrialBatch",
    "SeedPair",
    "trial_seed_pair",
    "resolve_trial_seeds",
    "run_trial",
    "TrialRunner",
    "InProcessRunner",
    "SerialRunner",
    "ProcessPoolRunner",
]

Executor = Callable[[Sequence[Any], int], ExecutionResult]
#: A trial's ``(input seed, executor seed)``.
SeedPair = tuple[int, int]


@dataclass(frozen=True)
class TrialRecord:
    """Everything a sweep aggregates about one trial.

    Records are plain picklable data so workers can ship them back
    cheaply; they deliberately exclude transcripts and outputs (which can
    be arbitrarily large and are not aggregated by any sweep).

    Attributes:
        index: Trial index within the batch (the seed-derivation key).
        success: ``task.is_correct(inputs, outputs)`` for this trial.
        rounds: Channel rounds the execution reported.
        chunk_attempts: ``report.chunk_attempts`` when the executor was a
            simulator, else ``None``.
        completed: ``report.completed`` when present, else ``None``.
        channel_rounds / beeps_sent / or_ones / flips_up / flips_down:
            The execution's :class:`ChannelStats` delta, flattened.
        total_energy: Total beeps across parties.
    """

    index: int
    success: bool
    rounds: float
    chunk_attempts: float | None
    completed: bool | None
    channel_rounds: int
    beeps_sent: int
    or_ones: int
    flips_up: int
    flips_down: int
    total_energy: int

    @property
    def flips(self) -> int:
        """Total noise events observed during the trial."""
        return self.flips_up + self.flips_down

    def channel_stats(self) -> ChannelStats:
        """The trial's channel counters as a :class:`ChannelStats`."""
        return ChannelStats(
            rounds=self.channel_rounds,
            beeps_sent=self.beeps_sent,
            or_ones=self.or_ones,
            flips_up=self.flips_up,
            flips_down=self.flips_down,
        )


@dataclass
class TrialBatch:
    """A completed batch: records in trial-index order plus timing.

    ``timing`` is wall-clock bookkeeping (trials/sec, worker utilization,
    fallback flags).  It is *never* folded into deterministic outputs —
    see the module docstring's determinism contract.
    """

    records: list[TrialRecord]
    timing: dict[str, float]

    def aggregate_channel_stats(self) -> ChannelStats:
        """Sum of the per-trial channel counters (drift tripwire)."""
        total = ChannelStats()
        for record in self.records:
            total.rounds += record.channel_rounds
            total.beeps_sent += record.beeps_sent
            total.or_ones += record.or_ones
            total.flips_up += record.flips_up
            total.flips_down += record.flips_down
        return total


def trial_seed_pair(seed: int, index: int) -> SeedPair:
    """Trial ``index``'s seed pair in a batch seeded ``seed`` — the
    determinism contract's one definition.

    The labels match what the historical serial loop in
    :mod:`repro.analysis.sweep` used, so existing benchmark results stay
    valid.
    """
    return (
        derive_seed(seed, f"inputs[{index}]"),
        derive_seed(seed, f"trial[{index}]"),
    )


def resolve_trial_seeds(
    seed: int, trials: int, trial_seeds: Sequence[SeedPair] | None = None
) -> list[SeedPair]:
    """Every trial's seed pair: ``trial_seeds`` when given, else
    :func:`trial_seed_pair` of each index.

    Raises:
        ConfigurationError: ``trials < 1``, or ``trial_seeds`` does not
            hold exactly ``trials`` pairs of integers.
    """
    _validate_trials(trials)
    if trial_seeds is None:
        return [trial_seed_pair(seed, index) for index in range(trials)]
    if len(trial_seeds) != trials:
        raise ConfigurationError(
            f"trial_seeds holds {len(trial_seeds)} seed pairs for "
            f"{trials} trials"
        )
    try:
        return [
            (operator.index(input_seed), operator.index(executor_seed))
            for input_seed, executor_seed in trial_seeds
        ]
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"trial_seeds must be (input seed, executor seed) integer "
            f"pairs: {error}"
        ) from None


def run_trial(
    task: Task,
    executor: Executor,
    seed: int,
    index: int,
    *,
    seeds: SeedPair | None = None,
    observe: "Observer | None" = None,
) -> TrialRecord:
    """Run trial ``index`` of a batch — the determinism contract's unit.

    The trial runs on ``seeds`` when given, else on
    ``trial_seed_pair(seed, index)``: inputs are sampled from
    ``random.Random(input seed)`` and the executor receives the executor
    seed, so the record depends only on the pair and ``index``.
    ``observe`` is forwarded to the executor (the picklable executors of
    :mod:`repro.parallel.executors` take it) and never changes the record.
    """
    if seeds is None:
        seeds = trial_seed_pair(seed, index)
    return _seeded_trial(task, executor, index, seeds, observe)


def _seeded_trial(
    task: Task,
    executor: Executor,
    index: int,
    seeds: SeedPair,
    observe: "Observer | None" = None,
) -> TrialRecord:
    """:func:`run_trial` on an explicit seed pair."""
    input_seed, executor_seed = seeds
    inputs = task.sample_inputs(random.Random(input_seed))
    if observe is None:
        result = executor(inputs, executor_seed)
    else:
        result = executor(inputs, executor_seed, observe=observe)
    report = result.metadata.get("report")
    stats = result.channel_stats
    return TrialRecord(
        index=index,
        success=bool(task.is_correct(inputs, result.outputs)),
        rounds=float(result.rounds),
        chunk_attempts=(
            float(report.chunk_attempts) if report is not None else None
        ),
        completed=(
            bool(report.completed) if report is not None else None
        ),
        channel_rounds=stats.rounds,
        beeps_sent=stats.beeps_sent,
        or_ones=stats.or_ones,
        flips_up=stats.flips_up,
        flips_down=stats.flips_down,
        total_energy=result.total_energy,
    )


def _validate_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")


def _scalar_records(
    task: Task,
    executor: Executor,
    indices: Sequence[int],
    pairs: Sequence[SeedPair],
    collect_times: bool = False,
) -> tuple[list[TrialRecord], list[float] | None]:
    """The scalar :func:`run_trial` loop, ``pairs[k]`` seeding trial
    ``indices[k]``, plus per-trial wall times when ``collect_times``."""
    records = []
    times: list[float] | None = [] if collect_times else None
    last = time.perf_counter()
    for index, pair in zip(indices, pairs):
        records.append(_seeded_trial(task, executor, index, pair))
        if times is not None:
            now = time.perf_counter()
            times.append(now - last)
            last = now
    return records, times


def _emit_batch_events(
    observe: "Observer",
    batch: TrialBatch,
    trial_times: list[float] | None = None,
) -> None:
    """Runner trace events: one ``trial`` per record plus the
    ``sweep_batch`` summary with merged cross-process counters.

    Emitted in the parent after the batch completes, from the returned
    records — which the determinism contract makes identical across
    backends — so traced and untraced sweeps agree bitwise.
    """
    for record in batch.records:
        fields: dict[str, Any] = {
            "index": record.index,
            "success": record.success,
            "rounds": record.rounds,
            "flips": record.flips,
            "total_energy": record.total_energy,
        }
        if trial_times is not None:
            fields["elapsed_s"] = trial_times[record.index]
        observe.emit("trial", **fields)
    totals = batch.aggregate_channel_stats()
    timing = batch.timing
    observe.emit(
        "sweep_batch",
        trials=len(batch.records),
        workers=int(timing["workers"]),
        utilization=timing["utilization"],
        elapsed_s=timing["elapsed_s"],
        parallel=bool(timing["parallel"]),
        fallback=bool(timing["fallback"]),
        channel_rounds=totals.rounds,
        beeps_sent=totals.beeps_sent,
        flips_up=totals.flips_up,
        flips_down=totals.flips_down,
    )


def _timing(
    *,
    elapsed: float,
    trials: int,
    workers: int,
    chunks: int,
    busy: float,
    parallel: bool,
    fallback: bool,
) -> dict[str, float]:
    return {
        "elapsed_s": elapsed,
        "trials_per_s": trials / elapsed if elapsed > 0 else float("inf"),
        "workers": float(workers),
        "chunks": float(chunks),
        "busy_s": busy,
        "utilization": (
            busy / (elapsed * workers) if elapsed > 0 and workers else 1.0
        ),
        "parallel": 1.0 if parallel else 0.0,
        "fallback": 1.0 if fallback else 0.0,
    }


class TrialRunner(ABC):
    """Strategy interface: how a batch of independent trials executes."""

    #: Why the last batch did not run as this backend intends (``None``
    #: when it did); never changes a record.
    last_fallback_reason: str | None = None

    @property
    @abstractmethod
    def workers(self) -> int:
        """Maximum concurrent trials this runner aims for."""

    @abstractmethod
    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
        trial_seeds: Sequence[SeedPair] | None = None,
    ) -> TrialBatch:
        """Run ``trials`` independent trials; records in index order.

        Trial ``i`` runs on ``trial_seeds[i]`` when given (exactly
        ``trials`` ``(input seed, executor seed)`` pairs, else
        :class:`~repro.errors.ConfigurationError`), otherwise on
        ``trial_seed_pair(seed, i)``; ``seed`` is then unused.

        ``observe`` (optional :class:`~repro.observe.Observer`) receives
        one ``trial`` event per record and a ``sweep_batch`` summary
        (plus one ``worker_chunk`` event per stripe when a
        :class:`ProcessPoolRunner`'s pool ran the batch).
        Events are emitted in the parent process from the returned
        records, so tracing never changes the records themselves.
        """

    def close(self) -> None:
        """Release held resources (pools).  Idempotent."""

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


class InProcessRunner(TrialRunner):
    """A backend that runs its trials in the calling process.

    Subclasses supply :meth:`_records`; this base turns it into whole
    batches (:meth:`run_trials`) and into the stripes a
    :class:`ProcessPoolRunner` worker runs (:meth:`run_indices`).
    """

    #: Stripes a :class:`ProcessPoolRunner` cuts per worker when this
    #: runner is its ``inner``.
    STRIPES_PER_WORKER = 1

    @property
    def workers(self) -> int:
        return 1

    @abstractmethod
    def _records(
        self,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
        collect_times: bool,
    ) -> tuple[list[TrialRecord], list[float] | None, str | None]:
        """``(records, per-trial wall times or None, fallback reason)``
        for trials ``indices``, ``pairs[k]`` seeding trial
        ``indices[k]``; times only when ``collect_times``."""

    def run_indices(
        self,
        task: Task,
        executor: Executor,
        indices: Sequence[int],
        pairs: Sequence[SeedPair],
    ) -> tuple[list[TrialRecord], float, str | None]:
        """Run an arbitrary list of global trial indices, ``pairs[k]``
        seeding trial ``indices[k]`` — a pool worker's stripe.

        Returns ``(records, busy seconds, fallback reason)``.  The
        records are exactly those a whole-batch run gives for the same
        indices, so stripe boundaries cannot change a result.
        """
        start = time.perf_counter()
        records, _, reason = self._records(
            task, executor, list(indices), list(pairs), False
        )
        return records, time.perf_counter() - start, reason

    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
        trial_seeds: Sequence[SeedPair] | None = None,
    ) -> TrialBatch:
        pairs = resolve_trial_seeds(seed, trials, trial_seeds)
        return self._batch(task, executor, pairs, observe)

    def _batch(
        self,
        task: Task,
        executor: Executor,
        pairs: list[SeedPair],
        observe: "Observer | None",
        downgrade: str | None = None,
    ) -> TrialBatch:
        """Every in-process batch, with its timing and trace events.

        ``downgrade`` is why a pool handed the batch back (``None`` when
        it was meant to run here).  It takes precedence over this
        runner's own fallback reason; either one sets
        ``timing["fallback"]``.
        """
        tracing = observe is not None and observe.enabled
        start = time.perf_counter()
        records, times, reason = self._records(
            task, executor, list(range(len(pairs))), pairs, tracing
        )
        elapsed = time.perf_counter() - start
        self.last_fallback_reason = downgrade or reason
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=len(pairs),
                workers=1,
                chunks=1,
                busy=elapsed,
                parallel=False,
                fallback=self.last_fallback_reason is not None,
            ),
        )
        if tracing:
            _emit_batch_events(observe, batch, trial_times=times)
        return batch


class SerialRunner(InProcessRunner):
    """The historical in-process loop — the reference backend."""

    #: Several small stripes per worker: load balancing without
    #: per-trial pickling overhead.
    STRIPES_PER_WORKER = 4

    def _records(
        self,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
        collect_times: bool,
    ) -> tuple[list[TrialRecord], list[float] | None, str | None]:
        records, times = _scalar_records(
            task, executor, indices, pairs, collect_times
        )
        return records, times, None


#: The in-process runner each pool process keeps per inner class, so
#: per-runner caches warm once per process, not once per stripe.
_WORKER_RUNNERS: dict[type, InProcessRunner] = {}


def _run_stripe(
    inner: type[InProcessRunner],
    task: Task,
    executor: Executor,
    indices: list[int],
    pairs: list[SeedPair],
) -> tuple[list[TrialRecord], float, str | None]:
    """Pool worker entry point: one stripe through the process's
    ``inner`` runner.  Module-level so the pool can pickle it by
    reference."""
    runner = _WORKER_RUNNERS.get(inner)
    if runner is None:
        runner = _WORKER_RUNNERS[inner] = inner()
    return runner.run_indices(task, executor, indices, pairs)


class ProcessPoolRunner(TrialRunner):
    """Contiguous trial stripes over a reusable
    :class:`~concurrent.futures.ProcessPoolExecutor`, each stripe run by
    an in-process ``inner`` runner inside a worker.

    The pool is created lazily on first use and reused across
    ``run_trials`` calls (and hence across sweep grid points), so worker
    startup is amortised over a whole curve.  Close it explicitly (or use
    the runner as a context manager) when done.

    The parent resolves every trial's seed pair once and ships each
    stripe its trials' pairs with their global indices, so stripe
    boundaries and worker counts cannot change a record.

    Args:
        workers: Pool size; ``None`` means ``os.cpu_count()``.
        chunk_size: Trials per stripe; ``None`` cuts
            ``inner.STRIPES_PER_WORKER`` balanced stripes per worker.
        inner: The :class:`InProcessRunner` class the workers run:
            :class:`SerialRunner` for the ``process`` backend,
            ``VectorizedRunner`` for the composed ``vectorized-process``
            backend.

    Runs the whole batch on an in-process ``inner`` instead — same
    records — when ``workers == 1``, when the task/executor cannot be
    pickled, or when the pool cannot start or breaks mid-batch.  A pool
    that failed is not restarted.  A trial's own exception is not a pool
    failure: it propagates as it would serially and the pool is kept.
    ``last_fallback_reason`` records why the batch did not run as
    intended: the downgrade, else the inner runner's own fallback (e.g. a
    batch the vectorized runner cannot collapse).  ``timing["fallback"]``
    flags the downgrades; ``workers == 1`` is a configuration, not a
    downgrade.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        inner: type[InProcessRunner] = SerialRunner,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._workers = workers
        self.chunk_size = chunk_size
        self.inner = inner
        # Runs the downgrades; keeps its caches across batches like a
        # pool worker's.
        self._local = inner()
        self._pool = None
        #: Why the pool is gone for good (``None`` while it is usable).
        self._pool_failure: str | None = None

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self):
        if self._pool is None and self._pool_failure is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self._workers)
            except (ImportError, OSError, ValueError):
                # No multiprocessing support here (restricted sandbox,
                # missing /dev/shm, ...): permanently degrade.
                self._pool_failure = "process pool failed to start"
        return self._pool

    def _stripes(self, trials: int) -> list[list[int]]:
        size = self.chunk_size or max(
            1,
            math.ceil(
                trials / (self.inner.STRIPES_PER_WORKER * self._workers)
            ),
        )
        return [
            list(range(low, min(low + size, trials)))
            for low in range(0, trials, size)
        ]

    def _downgrade(
        self,
        task: Task,
        executor: Executor,
        pairs: list[SeedPair],
        reason: str | None,
        observe: "Observer | None",
    ) -> TrialBatch:
        batch = self._local._batch(
            task, executor, pairs, observe, downgrade=reason
        )
        self.last_fallback_reason = self._local.last_fallback_reason
        return batch

    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
        trial_seeds: Sequence[SeedPair] | None = None,
    ) -> TrialBatch:
        pairs = resolve_trial_seeds(seed, trials, trial_seeds)
        if self._workers == 1:
            return self._downgrade(task, executor, pairs, None, observe)
        try:
            pickle.dumps((task, executor))
        except Exception:
            return self._downgrade(
                task, executor, pairs, "unpicklable task/executor", observe
            )
        pool = self._ensure_pool()
        if pool is None:
            return self._downgrade(
                task, executor, pairs, self._pool_failure, observe
            )
        from concurrent.futures.process import BrokenProcessPool

        stripes = self._stripes(trials)
        start = time.perf_counter()
        futures = []
        try:
            futures = [
                pool.submit(
                    _run_stripe,
                    self.inner,
                    task,
                    executor,
                    stripe,
                    [pairs[index] for index in stripe],
                )
                for stripe in stripes
            ]
            outcomes = [future.result() for future in futures]
        except BrokenProcessPool:
            # A worker died (OOM, signal) or the pool broke: recover the
            # batch in-process so the sweep still completes correctly.
            self.close()
            self._pool_failure = "process pool broke mid-batch"
            return self._downgrade(
                task, executor, pairs, self._pool_failure, observe
            )
        except BaseException:
            # A trial's own exception is not a pool failure: it
            # propagates as it would serially, and the pool stays up for
            # the next batch without this batch's queued stripes.
            for future in futures:
                future.cancel()
            raise
        elapsed = time.perf_counter() - start
        # Every stripe classifies the batch alike, so the first inner
        # fallback reason is the batch's.  The pool itself ran, so
        # timing["fallback"] stays unset.
        self.last_fallback_reason = next(
            (reason for _, _, reason in outcomes if reason is not None),
            None,
        )
        records = [
            record
            for stripe_records, _, _ in outcomes
            for record in stripe_records
        ]
        records.sort(key=lambda record: record.index)
        busy = sum(busy_time for _, busy_time, _ in outcomes)
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=trials,
                workers=self._workers,
                chunks=len(stripes),
                busy=busy,
                parallel=True,
                fallback=False,
            ),
        )
        if observe is not None and observe.enabled:
            for stripe_no, (stripe, (_, busy_time, _)) in enumerate(
                zip(stripes, outcomes)
            ):
                observe.emit(
                    "worker_chunk",
                    chunk=stripe_no,
                    trials=len(stripe),
                    busy_s=busy_time,
                )
            _emit_batch_events(observe, batch)
        return batch

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
