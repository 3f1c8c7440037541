"""Crossover calibration: measure where the vectorized backend wins.

The ``auto`` planner (:mod:`repro.parallel.planner`) routes on a
*measured* table, not a belief: per scheme, the smallest party count at
which the party-collapsed vectorized path beats the scalar engine on
this machine.  This module produces that table — ``repro bench
calibrate`` is a thin CLI wrapper around :func:`run_calibration` — by
timing both engines over an ``n`` grid with wall-clock-budgeted trial
counts (no hard-coded per-``n`` trial tables; see
:func:`trials_for_budget`, which the micro-benchmarks share).

A calibration row is a :class:`~repro.service.grid.SweepGrid`, the same
scenario record the CLI and the sweep service build
(:func:`calibration_grids` lists the default nine).  Its table key is
not written by hand: it is the crossover key
:func:`~repro.vectorized.runner.classify_batch` gives the row's
executor, the key the planner looks up, so the two cannot drift apart.

Calibration is honest about its machine: the table records the CPU count
and budget it was measured with, and the planner treats it as local
truth — re-run ``repro bench calibrate`` after moving to different
hardware, or point ``$REPRO_CROSSOVER`` at a per-machine table.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.grid import SweepGrid

from repro.parallel.runner import SerialRunner

__all__ = [
    "trials_for_budget",
    "run_calibration",
    "write_crossover",
    "calibration_grids",
    "DEFAULT_N_GRID",
    "NETWORK_N_GRID",
]

DEFAULT_N_GRID = (2, 4, 8, 16, 32)

#: Node counts for the graph rows — network batches pay off at larger
#: ``n`` than the single-hop collapses, so they get their own grid
#: (perfect squares: the calibration topology is a square grid graph).
NETWORK_N_GRID = (16, 64, 256, 1024)

#: Crossover sentinel when the vectorized path never won on the grid.
NEVER = 1 << 30


def calibration_grids(
    n_grid: tuple[int, ...] = DEFAULT_N_GRID,
) -> list["SweepGrid"]:
    """The default calibration rows, one :class:`SweepGrid` each.

    Single-hop rows run :class:`~repro.tasks.ParityTask` on ``n_grid``
    with the micro-benchmark pairings: correlated noise for the
    shared-transcript schemes, suppression for rewind, and repetition
    again under independent noise, whose per-party vote windows cost
    differently (the planner's ``@independent`` key).  Network rows run
    on a square grid graph over :data:`NETWORK_N_GRID` with per-node
    noise at 0.1: the raw protocols of three graph tasks, and
    neighbor-OR under the local-broadcast scheme.
    """
    from repro.service.grid import SweepGrid, TopologySpec

    single_hop = [
        ("chunk", "correlated"),
        ("rewind", "suppression"),
        ("repetition", "correlated"),
        ("hierarchical", "correlated"),
        ("repetition", "independent"),
    ]
    network = [
        ("neighbor-or", "none"),
        ("broadcast", "none"),
        ("mis", "none"),
        ("neighbor-or", "local-broadcast"),
    ]
    grid_graph = TopologySpec.of("grid")
    return [
        SweepGrid(
            task="parity",
            ns=n_grid,
            channel=channel,
            epsilon=0.1,
            simulator=simulator,
        )
        for simulator, channel in single_hop
    ] + [
        SweepGrid(
            task=task,
            ns=NETWORK_N_GRID,
            channel="independent",
            epsilon=0.1,
            simulator=simulator,
            topology=grid_graph,
        )
        for task, simulator in network
    ]


def trials_for_budget(
    per_trial_s: float,
    budget_s: float,
    *,
    min_trials: int = 2,
    max_trials: int = 512,
) -> int:
    """How many trials fit a wall-clock budget, given one trial's cost.

    Pure arithmetic, clamped to ``[min_trials, max_trials]`` — the floor
    keeps rates statistically meaningful when a single trial overruns
    the budget, the ceiling stops sub-microsecond points from spinning.
    Shared by the calibrator and the micro-benchmarks (which previously
    hard-coded a trials-per-``n`` table that drifted from reality as the
    engines got faster).
    """
    if budget_s <= 0:
        return min_trials
    per_trial = max(per_trial_s, 1e-9)
    return max(min_trials, min(max_trials, int(budget_s / per_trial)))


def _rate(runner, task, executor, budget_s: float, seed: int) -> float:
    """Trials per second under ``runner``, budget-derived trial count."""
    start = time.perf_counter()
    runner.run_trials(task, executor, 1, seed=seed)
    per_trial = time.perf_counter() - start
    trials = trials_for_budget(per_trial, budget_s)
    start = time.perf_counter()
    runner.run_trials(task, executor, trials, seed=seed)
    elapsed = time.perf_counter() - start
    return trials / elapsed if elapsed > 0 else float("inf")


def run_calibration(
    *,
    n_grid: tuple[int, ...] = DEFAULT_N_GRID,
    budget_s: float = 0.25,
    seed: int = 2026,
    grids: Sequence["SweepGrid"] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Measure scalar vs vectorized rates per (row, n); build the
    crossover table the ``auto`` planner consumes.

    Each row is a :class:`~repro.service.grid.SweepGrid` measured at
    every ``n`` of its grid (default: :func:`calibration_grids` on
    ``n_grid``); only its scenario is used, trial counts come from the
    budget.  The row's table key is the crossover key
    :func:`~repro.vectorized.runner.classify_batch` gives its executor —
    the key the planner looks up.

    ``vectorized_min_n`` per row is the smallest grid ``n`` from which
    the vectorized path wins at every measured ``n`` onward (crossovers
    are monotone in ``n``: the collapse amortizes per-round party work).
    A row that never wins gets a never-select sentinel.

    The table's ``n_grid`` and ``network_n_grid`` record the ``n`` values
    the single-hop and the network rows ran, in first-seen order.
    """
    from repro.vectorized import VectorizedRunner
    from repro.vectorized.runner import classify_batch

    if grids is None:
        grids = calibration_grids(n_grid)
    serial = SerialRunner()
    vectorized = VectorizedRunner()
    table: dict = {
        "format": 1,
        "calibrated": {
            "cpu_count": os.cpu_count() or 1,
            "budget_s": budget_s,
            "n_grid": _ran_ns(grids, network=False),
            "network_n_grid": _ran_ns(grids, network=True),
            "seed": seed,
        },
        "process_min_trials": 8,
        "default_vectorized_min_n": 16,
        "schemes": {},
    }
    for grid in grids:
        scheme = None
        measured = []
        for n in grid.ns:
            task, executor, _ = grid.build_point(n)
            if scheme is None:
                scheme = classify_batch(executor, seed)[1]
            scalar_rate = _rate(serial, task, executor, budget_s, seed)
            vector_rate = _rate(vectorized, task, executor, budget_s, seed)
            measured.append(
                {
                    "n": task.n_parties,
                    "scalar_trials_per_s": round(scalar_rate, 3),
                    "vectorized_trials_per_s": round(vector_rate, 3),
                    "speedup": round(vector_rate / scalar_rate, 3),
                }
            )
            if progress is not None:
                progress(
                    f"{scheme} n={task.n_parties}: "
                    f"scalar {scalar_rate:.1f}/s, "
                    f"vectorized {vector_rate:.1f}/s "
                    f"(x{vector_rate / scalar_rate:.2f})"
                )
        min_n = NEVER
        for point in reversed(measured):
            if point["speedup"] >= 1.0:
                min_n = point["n"]
            else:
                break
        table["schemes"][scheme] = {
            "vectorized_min_n": min_n,
            "measured": measured,
        }
    return table


def _ran_ns(grids: Sequence["SweepGrid"], *, network: bool) -> list[int]:
    """Every ``n`` of the single-hop (or network) ``grids``, once each,
    in first-seen order."""
    ns = (
        n
        for grid in grids
        if (grid.topology is not None) == network
        for n in grid.ns
    )
    return list(dict.fromkeys(ns))


def write_crossover(table: dict, path: str) -> None:
    """Write the table and drop the planner's cache so the new numbers
    take effect in-process."""
    from repro.parallel.planner import _reset_crossover_cache

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _reset_crossover_cache()
