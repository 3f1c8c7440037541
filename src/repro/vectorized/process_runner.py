"""The composed ``vectorized-process`` backend: stripes × collapse.

:class:`VectorizedProcessRunner` multiplies the two fastest backends: it
cuts a batch into contiguous trial stripes (the balanced
:func:`~repro.service.shards.plan_shards` rule) and dispatches each to a
pool worker that runs it through an in-process
:class:`~repro.vectorized.runner.VectorizedRunner` — so every core runs
party-collapsed simulations, with its own warmed codebook/decoder memo.

Determinism is inherited, not re-argued: the parent resolves every
trial's seed pair once and ships each stripe its trials' pairs with
their *global* indices (see :meth:`VectorizedRunner.run_indices`), so
stripe boundaries and worker counts cannot change a single record, and
the merged batch is bitwise identical to the serial, process and
single-core vectorized backends.

The downgrade protocol mirrors :class:`~repro.parallel.runner.
ProcessPoolRunner`: ``workers == 1``, an unpicklable task/executor, a
pool that cannot start, or a pool that breaks mid-batch all fall back to
the in-process vectorized runner — same records, ``timing["fallback"]``
flags pool-level downgrades, and ``last_fallback_reason`` records why
the batch did not run as intended (including, when the pool is fine but
the batch cannot collapse, the collapse reason reported by the stripe
workers).
"""

from __future__ import annotations

import math
import os
import pickle
import time
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.errors import ConfigurationError
from repro.parallel.runner import (
    Executor,
    SeedPair,
    TrialBatch,
    TrialRecord,
    TrialRunner,
    _emit_batch_events,
    _timing,
    resolve_trial_seeds,
)
from repro.tasks.base import Task
from repro.vectorized.runner import VectorizedRunner

__all__ = ["VectorizedProcessRunner"]

#: Per-process cached runner, so the codebook/decoder memo warms once per
#: worker (pool processes are reused across batches and grid points).
_WORKER_RUNNER: VectorizedRunner | None = None


def _stripe_worker(
    task: Task,
    executor: Executor,
    indices: list[int],
    pairs: list[SeedPair],
    prefetch: int,
) -> tuple[list[TrialRecord], float, str | None]:
    """Worker entry point: one contiguous stripe of global trial indices,
    ``pairs[k]`` seeding trial ``indices[k]``.

    Module-level so the pool can pickle it by reference.  Returns the
    stripe's records, the worker's busy time, and the in-worker fallback
    reason (``None`` when the stripe ran collapsed).
    """
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None or _WORKER_RUNNER.prefetch != prefetch:
        _WORKER_RUNNER = VectorizedRunner(prefetch=prefetch)
    records, busy = _WORKER_RUNNER.run_indices(
        task, executor, indices, pairs
    )
    return records, busy, _WORKER_RUNNER.last_fallback_reason


class VectorizedProcessRunner(TrialRunner):
    """Contiguous vectorized stripes over a reusable process pool.

    Args:
        workers: Pool size; ``None`` means ``os.cpu_count()``.
        chunk_size: Trials per stripe; ``None`` cuts one balanced stripe
            per worker (``ceil(trials / workers)``) — stripes are large
            on purpose, so each worker's batched noise prefetch and
            codebook memo amortize over many trials.
        prefetch: Forwarded to each worker's
            :class:`~repro.vectorized.runner.VectorizedRunner`.
        mp_context: Optional :mod:`multiprocessing` context; ``None``
            uses the platform default.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunk_size: int | None = None,
        prefetch: int = 4096,
        mp_context: Any = None,
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
        self.prefetch = prefetch
        self._mp_context = mp_context
        self._pool = None
        self._pool_failed = False
        self.last_fallback_reason: str | None = None
        # In-process runner for the workers == 1 and recovery paths;
        # keeps its codebook memo across batches like a pool worker.
        self._local = VectorizedRunner(prefetch=prefetch)

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self):
        if self._pool is None and not self._pool_failed:
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = (
                    self._mp_context
                    if self._mp_context is not None
                    else multiprocessing.get_context()
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers, mp_context=context
                )
            except (ImportError, OSError, ValueError):
                # No multiprocessing support here (restricted sandbox,
                # missing /dev/shm, ...): permanently degrade.
                self._pool_failed = True
        return self._pool

    def _stripe_indices(self, trials: int) -> list[list[int]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(trials / self._workers))
        return [
            list(range(low, min(low + size, trials)))
            for low in range(0, trials, size)
        ]

    def _inprocess_fallback(
        self,
        task: Task,
        executor: Executor,
        pairs: list[SeedPair],
        reason: str | None,
        observe: "Observer | None",
    ) -> TrialBatch:
        """Run the whole batch through the in-process vectorized runner.

        ``reason`` is the pool-level downgrade cause (``None`` for the
        designed ``workers == 1`` path); the surfaced
        ``last_fallback_reason`` prefers it over any in-runner collapse
        fallback, and ``timing["fallback"]`` flags only pool-level
        downgrades — ``workers == 1`` is a configuration, not a failure.
        """
        tracing = observe is not None and observe.enabled
        batch = self._local.run_trials(
            task, executor, len(pairs), trial_seeds=pairs
        )
        self.last_fallback_reason = (
            reason
            if reason is not None
            else self._local.last_fallback_reason
        )
        if reason is not None:
            batch.timing["fallback"] = 1.0
        if tracing:
            _emit_batch_events(observe, batch)
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
            return self._inprocess_fallback(
                task, executor, pairs, None, observe
            )
        try:
            pickle.dumps((task, executor))
        except Exception:
            return self._inprocess_fallback(
                task,
                executor,
                pairs,
                "unpicklable task/executor",
                observe,
            )
        pool = self._ensure_pool()
        if pool is None:
            return self._inprocess_fallback(
                task,
                executor,
                pairs,
                "process pool failed to start",
                observe,
            )
        stripes = self._stripe_indices(trials)
        start = time.perf_counter()
        try:
            futures = [
                pool.submit(
                    _stripe_worker,
                    task,
                    executor,
                    stripe,
                    [pairs[index] for index in stripe],
                    self.prefetch,
                )
                for stripe in stripes
            ]
            outcomes = [future.result() for future in futures]
        except Exception:
            # A worker died (OOM, signal) or the pool broke: recover the
            # batch in-process so the sweep still completes correctly.
            self.close()
            self._pool_failed = True
            return self._inprocess_fallback(
                task,
                executor,
                pairs,
                "process pool broke mid-batch",
                observe,
            )
        elapsed = time.perf_counter() - start
        # The pool ran; surface any in-worker collapse fallback (every
        # stripe classifies identically, so the first reason is *the*
        # reason) without flagging timing["fallback"] — records are
        # bitwise-identical either way.
        self.last_fallback_reason = next(
            (
                reason
                for _, _, reason in outcomes
                if reason is not None
            ),
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
