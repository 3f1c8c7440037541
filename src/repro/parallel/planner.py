"""The ``auto`` backend planner.

``make_runner(backend="auto")`` returns an :class:`AutoRunner` that picks
a concrete backend *per batch* — serial, process, vectorized, or the
composed vectorized-process.  A single-hop batch whose simulator has a
party-collapsed form always runs collapsed: measured on a 2-vCPU host,
every such scheme beats the scalar engine at every ``n`` from 2 to 32
(the lowest ratio ×1.26, correlated repetition at ``n = 2``).  Graph
batches are different: the trial-batched kernel pays a fixed setup per
batch, which a small graph does not amortize, so network routes are
planned from a measured crossover table (:mod:`repro.parallel` package
data ``crossover.json``, refreshable with ``repro bench calibrate``)
that records, per network scheme, the smallest node count at which the
kernel beats the scalar engine on the calibrating machine.  Below it the
planner dispatches scalar.

The choice is purely wall-clock: every backend is bitwise-identical for
the same ``(seed, index)``, so the planner can never change a result —
only how fast it arrives.  Each decision is recorded in
:attr:`AutoRunner.last_decision` and, when tracing, emitted as a
``backend_selected`` event (machine-dependent by design: it reflects the
local calibration and CPU count).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.parallel import make_runner
from repro.parallel.runner import (
    Executor,
    SeedPair,
    TrialBatch,
    TrialRunner,
    resolve_trial_seeds,
)
from repro.tasks.base import Task

__all__ = ["AutoRunner", "load_crossover", "DEFAULT_CROSSOVER_PATH"]

#: The shipped calibration table (regenerate: ``repro bench calibrate``).
DEFAULT_CROSSOVER_PATH = os.path.join(
    os.path.dirname(__file__), "crossover.json"
)

#: Environment override so a locally calibrated table can be used without
#: editing the installed package.
CROSSOVER_ENV = "REPRO_CROSSOVER"

_cached_table: dict | None = None
_cached_path: str | None = None


def load_crossover(path: str | None = None) -> dict:
    """The crossover table: ``path`` arg, else ``$REPRO_CROSSOVER``, else
    the shipped package data.  Cached per path; missing, unreadable or
    malformed tables (see :func:`_well_formed`) degrade to an empty dict
    (the planner then routes every network scheme on its default
    crossover rather than failing the sweep)."""
    global _cached_table, _cached_path
    resolved = path or os.environ.get(CROSSOVER_ENV) or DEFAULT_CROSSOVER_PATH
    if _cached_table is not None and _cached_path == resolved:
        return _cached_table
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    except (OSError, ValueError):
        table = {}
    if not _well_formed(table):
        table = {}
    _cached_table = table
    _cached_path = resolved
    return table


def _positive_int(value: Any) -> bool:
    return type(value) is int and value >= 1


def _well_formed(table: Any) -> bool:
    """Whether ``table`` has the shape the planner reads: a dict whose
    optional ``schemes`` is a dict of dicts, with every
    ``vectorized_min_n`` present a positive int."""
    if not isinstance(table, dict):
        return False
    schemes = table.get("schemes", {})
    return isinstance(schemes, dict) and all(
        isinstance(entry, dict)
        and _positive_int(entry.get("vectorized_min_n", 1))
        for entry in schemes.values()
    )


def _reset_crossover_cache() -> None:
    """Test hook / post-calibration refresh."""
    global _cached_table, _cached_path
    _cached_table = None
    _cached_path = None


class AutoRunner(TrialRunner):
    """Per-batch backend planner: collapsed single-hop batches, network
    batches over the measured crossover table.

    Args:
        workers: The parallelism budget; ``1`` (or ``None``) restricts
            the plan to in-process backends.
        crossover: An explicit table (tests); ``None`` loads via
            :func:`load_crossover`.  Only its network rows are read.

    Sub-runners are constructed lazily and cached, so a sweep that
    alternates between collapsible and scalar points reuses one pool and
    one warmed vectorized runner throughout.
    """

    #: Used for any network scheme the table has no entry for.
    DEFAULT_VECTORIZED_MIN_N = 16
    #: Below this many trials a pool's dispatch overhead cannot pay off.
    DEFAULT_PROCESS_MIN_TRIALS = 8

    def __init__(
        self,
        workers: int | None = 1,
        crossover: dict | None = None,
    ) -> None:
        self._workers = workers if workers is not None else 1
        self._crossover = crossover
        self._runners: dict[str, TrialRunner] = {}
        #: The most recent plan: ``{"backend", "reason", "scheme", "n",
        #: "trials", "workers"}`` (``None`` before the first batch).
        self.last_decision: dict[str, Any] | None = None

    @property
    def workers(self) -> int:
        return self._workers

    def _table(self) -> dict:
        if self._crossover is not None:
            return self._crossover
        return load_crossover()

    def _plan(
        self, task: Task, executor: Executor, trials: int, probe_seed: int
    ) -> tuple[str, str, str | None, int | None]:
        """``(backend, reason, scheme, n)`` for this batch.

        ``scheme`` is the batch's key from
        :func:`~repro.vectorized.runner.classify_batch`.
        """
        from repro.vectorized.runner import classify_batch

        route, scheme, no_collapse = classify_batch(executor, probe_seed)
        n = getattr(task, "n_parties", None)
        pool_ok = (
            self._workers > 1 and trials >= self.DEFAULT_PROCESS_MIN_TRIALS
        )
        if route is None:
            if pool_ok:
                return (
                    "process",
                    f"{no_collapse}; pooling over {self._workers} workers",
                    scheme,
                    n,
                )
            if self._workers > 1:
                return (
                    "serial",
                    f"{no_collapse}; {trials} trials below pool "
                    f"threshold {self.DEFAULT_PROCESS_MIN_TRIALS}",
                    scheme,
                    n,
                )
            return "serial", no_collapse, scheme, n
        if not isinstance(route, tuple):
            # A NetworkRoute (a single-hop route is a pair): the kernel's
            # fixed per-batch setup needs a measured crossover.
            entry = self._table().get("schemes", {}).get(scheme, {})
            min_n = int(
                entry.get("vectorized_min_n", self.DEFAULT_VECTORIZED_MIN_N)
            )
            if n is not None and n < min_n:
                # Measured crossover says the kernel *loses* here.
                reason = (
                    f"n={n} below measured vectorized crossover "
                    f"{min_n} for {scheme}"
                )
                return ("process" if pool_ok else "serial"), reason, scheme, n
            reason = f"collapsible {scheme} at n={n} >= crossover {min_n}"
        else:
            reason = f"collapsible single-hop {scheme} at n={n}"
        if pool_ok:
            return (
                "vectorized-process",
                reason + f"; striping over {self._workers} workers",
                scheme,
                n,
            )
        return "vectorized", reason, scheme, n

    def _runner_for(self, backend: str) -> TrialRunner:
        runner = self._runners.get(backend)
        if runner is None:
            runner = self._runners[backend] = make_runner(
                self._workers, backend=backend
            )
        return runner

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
        backend, reason, scheme, n = self._plan(
            task, executor, trials, pairs[0][1]
        )
        self.last_decision = {
            "backend": backend,
            "reason": reason,
            "scheme": scheme,
            "n": n,
            "trials": trials,
            "workers": self._workers,
        }
        runner = self._runner_for(backend)
        batch = runner.run_trials(
            task, executor, trials, observe=observe, trial_seeds=pairs
        )
        self.last_fallback_reason = runner.last_fallback_reason
        self.last_decision["fallback_reason"] = self.last_fallback_reason
        if observe is not None and observe.enabled:
            # Emitted after the batch so the event can also report the
            # delegated runner's observed downgrade, not just the plan.
            observe.emit("backend_selected", **self.last_decision)
        return batch

    def close(self) -> None:
        for runner in self._runners.values():
            runner.close()
        self._runners.clear()
