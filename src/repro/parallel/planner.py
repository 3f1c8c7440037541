"""The calibrated ``auto`` backend planner.

``make_runner(backend="auto")`` returns an :class:`AutoRunner` that picks
a concrete backend *per batch* — serial, process, vectorized, or the
composed vectorized-process — from a measured crossover table instead of
a hard-coded rule.  The table (:mod:`repro.parallel` package data
``crossover.json``, refreshable with ``repro bench calibrate``) records,
per scheme, the smallest party count at which the party-collapsed
vectorized path actually beats the scalar engine on the calibrating
machine; below it the planner dispatches scalar even though a collapsed
form exists.  That is the fix for the small-``n`` regression: the rewind
collapse *loses* to the scalar engine at ``n = 8`` (the per-trial numpy
setup outweighs the tiny round count), and a planner that routes on
capability instead of measurement would ship that loss to every
``backend=auto`` user.

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
    (the planner then uses its conservative defaults rather than failing
    the sweep)."""
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
    ``vectorized_min_n``, ``default_vectorized_min_n`` and
    ``process_min_trials`` present a positive int."""
    if not isinstance(table, dict):
        return False
    schemes = table.get("schemes", {})
    if not isinstance(schemes, dict) or not all(
        isinstance(entry, dict) for entry in schemes.values()
    ):
        return False
    return all(
        _positive_int(table.get(key, 1))
        for key in ("default_vectorized_min_n", "process_min_trials")
    ) and all(
        _positive_int(entry.get("vectorized_min_n", 1))
        for entry in schemes.values()
    )


def _reset_crossover_cache() -> None:
    """Test hook / post-calibration refresh."""
    global _cached_table, _cached_path
    _cached_table = None
    _cached_path = None


class AutoRunner(TrialRunner):
    """Per-batch backend planner over the measured crossover table.

    Args:
        workers: The parallelism budget; ``1`` (or ``None``) restricts
            the plan to in-process backends.
        crossover: An explicit table (tests); ``None`` loads via
            :func:`load_crossover`.

    Sub-runners are constructed lazily and cached, so a sweep that
    alternates between collapsible and scalar points reuses one pool and
    one warmed vectorized runner throughout.
    """

    #: Used for any scheme the table has no entry for.
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

    def _collapse_probe(
        self, executor: Executor, probe_seed: int
    ) -> tuple[str | None, str | None]:
        """``(scheme_name, None)`` when the batch can collapse, else
        ``(scheme_name_or_None, reason)`` mirroring the vectorized
        runner's classification.  ``probe_seed`` is the executor seed of
        the batch's first trial.

        Single-hop batches report the simulator name, suffixed
        ``@independent`` under per-party noise (see
        :func:`~repro.vectorized.runner.single_hop_route`).  Network
        batches report the route's crossover key — the task type name
        for raw protocol routes (``"MISTask"``), the simulator name for
        the local-broadcast route — so graph schemes get their own
        measured ``vectorized_min_n`` rows.
        """
        from repro.vectorized.network import classify_network
        from repro.vectorized.runner import single_hop_route

        route, scheme, reason = single_hop_route(executor, probe_seed)
        if route is not None:
            return scheme, None
        route, net_reason = classify_network(executor, probe_seed)
        if route is not None:
            return route.scheme, None
        return scheme, f"{reason}; {net_reason}"

    def _plan(
        self, task: Task, executor: Executor, trials: int, probe_seed: int
    ) -> tuple[str, str, str | None, int | None]:
        """``(backend, reason, scheme, n)`` for this batch."""
        table = self._table()
        scheme, no_collapse = self._collapse_probe(executor, probe_seed)
        n = getattr(task, "n_parties", None)
        process_min_trials = int(
            table.get(
                "process_min_trials", self.DEFAULT_PROCESS_MIN_TRIALS
            )
        )
        pool_ok = (
            self._workers > 1 and trials >= process_min_trials
        )
        if no_collapse is None:
            entry = table.get("schemes", {}).get(scheme, {})
            min_n = int(
                entry.get(
                    "vectorized_min_n",
                    table.get(
                        "default_vectorized_min_n",
                        self.DEFAULT_VECTORIZED_MIN_N,
                    ),
                )
            )
            if n is not None and n < min_n:
                # Measured crossover says the collapse *loses* here.
                reason = (
                    f"n={n} below measured vectorized crossover "
                    f"{min_n} for {scheme}"
                )
                if pool_ok:
                    return "process", reason, scheme, n
                return "serial", reason, scheme, n
            reason = (
                f"collapsible {scheme} at n={n} >= crossover {min_n}"
            )
            if pool_ok:
                return (
                    "vectorized-process",
                    reason + f"; striping over {self._workers} workers",
                    scheme,
                    n,
                )
            return "vectorized", reason, scheme, n
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
                f"threshold {process_min_trials}",
                scheme,
                n,
            )
        return "serial", no_collapse, scheme, n

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
