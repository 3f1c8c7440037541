"""The checkpointing, crash-safe, resumable sweep driver.

:func:`run_sweep_resumable` is :func:`repro.analysis.sweep.run_sweep`
with a write-through result cache wrapped around the per-point loop:

* before computing grid point ``i`` it probes the
  :class:`~repro.service.store.ResultStore` under the point's
  content-addressed key and **skips the computation on a hit** — the
  cached payload *is* the result, bitwise (the determinism contract from
  PR 2 makes every point a pure function of ``(spec, workload, index)``);
* after computing a point it **persists it immediately** (atomic rename,
  see the store), so an interruption at any instant — exception, SIGTERM,
  power loss — forfeits at most the single in-flight point;
* a re-run of the same sweep therefore *is* the resume operation: hits
  cover everything completed before the crash, and the returned list is
  bitwise identical to an uninterrupted cold :func:`run_sweep`.

Per-point seeds are derived exactly as ``run_sweep`` derives them
(:meth:`~repro.analysis.sweep.SweepSpec.for_point` on the *global* index), so
a shard that computes indices ``{3, 4}`` of a 8-point grid produces the
same points a full run would — which is what makes shard merging sound
(:mod:`repro.service.shards`).
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.analysis.sweep import (
    PointBuilder,
    SweepPoint,
    SweepSpec,
    run_sweep_point,
)
from repro.errors import ConfigurationError
from repro.service.canon import point_key
from repro.service.store import ResultStore

__all__ = ["run_sweep_resumable", "sweep_status"]


def _resolve_indices(
    total: int, indices: Sequence[int] | None
) -> list[int]:
    if indices is None:
        return list(range(total))
    resolved = sorted({int(index) for index in indices})
    if resolved and not 0 <= resolved[0] <= resolved[-1] < total:
        raise ConfigurationError(
            f"point indices {resolved} outside [0, {total})"
        )
    return resolved


def run_sweep_resumable(
    values: Sequence[Any],
    point_builder: PointBuilder,
    spec: SweepSpec,
    *,
    store: ResultStore,
    workload: Any = None,
    indices: Sequence[int] | None = None,
) -> list[SweepPoint]:
    """Run (or resume) a sweep through the result cache.

    Args:
        values: The full grid, exactly as :func:`run_sweep` takes it —
            even when ``indices`` restricts this call to a shard, pass
            the *whole* grid so global indices (and hence seeds and cache
            keys) keep their meaning.
        point_builder: ``value -> (task, executor, params)``; only called
            for points that miss the cache.
        spec: Execution knobs.  ``spec.observe`` additionally receives
            the store's ``cache_hit``/``cache_miss``/``cache_put`` events
            and one final ``sweep_run`` summary.
        store: The content-addressed result store to read through and
            check point into.
        workload: JSON-able description of *what* runs, hashed into every
            point key (use :meth:`SweepGrid.workload` for grid sweeps).
        indices: Optional subset of global point indices (a shard);
            ``None`` runs the whole grid.

    Returns:
        The points for the selected indices in ascending index order —
        for a full run, bitwise identical to ``run_sweep(values,
        point_builder, spec)``.
    """
    values = list(values)
    selected = _resolve_indices(len(values), indices)
    observe = spec.observe
    start = time.perf_counter()
    computed = hits = 0
    points: list[SweepPoint] = []
    for index in selected:
        key = point_key(spec, workload, index)
        cached = store.get(key, observe=observe, index=index)
        if cached is not None:
            hits += 1
            points.append(cached)
            continue
        task, executor, params = point_builder(values[index])
        point = run_sweep_point(
            task, executor, spec.for_point(index), params=params
        )
        # Checkpoint before moving on: a crash after this line costs
        # nothing, a crash before it costs exactly this point.
        store.put(key, point, meta={"index": index}, observe=observe, index=index)
        computed += 1
        points.append(point)
    if observe is not None and observe.enabled:
        observe.emit(
            "sweep_run",
            total=len(selected),
            computed=computed,
            hits=hits,
            elapsed_s=time.perf_counter() - start,
        )
    return points


def sweep_status(
    spec: SweepSpec,
    workload: Any,
    total: int,
    store: ResultStore,
    *,
    indices: Sequence[int] | None = None,
) -> dict[str, Any]:
    """Which of the sweep's points are already checkpointed.

    A pure probe (no hit/miss counters, no events) safe to run against a
    live sweep — ``repro sweep status`` polls this.

    Returns:
        ``{"total": int, "done": int, "missing": [indices...]}`` over the
        selected indices (default: the whole grid).
    """
    selected = _resolve_indices(total, indices)
    missing = [
        index
        for index in selected
        if not store.contains(point_key(spec, workload, index))
    ]
    return {
        "total": len(selected),
        "done": len(selected) - len(missing),
        "missing": missing,
    }
