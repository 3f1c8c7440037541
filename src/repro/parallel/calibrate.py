"""Crossover calibration: measure where the network kernel wins.

The ``auto`` planner (:mod:`repro.parallel.planner`) runs every
collapsible single-hop batch collapsed, and routes graph batches on a
*measured* table: per network scheme, the smallest node count at which
the trial-batched kernel beats the scalar engine on this machine.  This
module produces that table — ``repro bench calibrate`` is a thin CLI
wrapper around :func:`run_calibration` — by timing both engines over an
``n`` grid with wall-clock-budgeted trial counts (no hard-coded
per-``n`` trial tables; see :func:`trials_for_budget`, which the
micro-benchmarks share).

A calibration row is a :class:`~repro.service.grid.SweepGrid`, the same
scenario record the CLI and the sweep service build
(:func:`calibration_grids` lists the default four).  Its table key is
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
import statistics
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
    "NETWORK_N_GRID",
]

#: Default node counts of the rows (perfect squares: the calibration
#: topology is a square grid graph).
NETWORK_N_GRID = (16, 64, 256, 1024)

#: Crossover sentinel when the vectorized path never won on the grid.
NEVER = 1 << 30


def calibration_grids(
    n_grid: tuple[int, ...] = NETWORK_N_GRID,
) -> list["SweepGrid"]:
    """The default calibration rows, one :class:`SweepGrid` each.

    Every row runs on a grid graph over ``n_grid`` with per-node noise
    at 0.1: the raw protocols of three graph tasks, and neighbor-OR
    under the local-broadcast scheme.
    """
    from repro.service.grid import SweepGrid, TopologySpec

    network = [
        ("neighbor-or", "none"),
        ("broadcast", "none"),
        ("mis", "none"),
        ("neighbor-or", "local-broadcast"),
    ]
    grid_graph = TopologySpec.of("grid")
    return [
        SweepGrid(
            task=task,
            ns=n_grid,
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


#: Timed batches per (row, n, engine).  A point's rate is their median,
#: so one noisy timing near x1 cannot move a crossover by a grid step.
REPEATS = 3


def _trials(runner, task, executor, budget_s: float, seed: int) -> int:
    """The budget-derived trial count of ``runner``, from one timed
    trial."""
    start = time.perf_counter()
    runner.run_trials(task, executor, 1, seed=seed)
    return trials_for_budget(time.perf_counter() - start, budget_s)


def _rate(runner, task, executor, trials: int, seed: int) -> float:
    """Trials per second of one timed ``trials``-trial batch."""
    start = time.perf_counter()
    runner.run_trials(task, executor, trials, seed=seed)
    elapsed = time.perf_counter() - start
    return trials / elapsed if elapsed > 0 else float("inf")


def _median_rates(
    runners: Sequence, task, executor, budget_s: float, seed: int
) -> list[float]:
    """Per runner, the median rate of :data:`REPEATS` timed batches.

    The runners take turns batch by batch, so a slow spell of the host
    falls on both engines' samples rather than on one engine's.
    """
    counts = [
        _trials(runner, task, executor, budget_s, seed) for runner in runners
    ]
    samples: list[list[float]] = [[] for _ in runners]
    for _ in range(REPEATS):
        for runner, trials, rates in zip(runners, counts, samples):
            rates.append(_rate(runner, task, executor, trials, seed))
    return [statistics.median(rates) for rates in samples]


def run_calibration(
    *,
    n_grid: tuple[int, ...] = NETWORK_N_GRID,
    budget_s: float = 0.25,
    seed: int = 2026,
    grids: Sequence["SweepGrid"] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Measure scalar vs vectorized rates per (row, n); build the
    crossover table the ``auto`` planner consumes.

    A rate is the median of :data:`REPEATS` timed batches, scalar and
    vectorized interleaved (:func:`_median_rates`).

    Each row is a :class:`~repro.service.grid.SweepGrid` measured at
    every ``n`` of its grid (default: :func:`calibration_grids` on
    ``n_grid``); only its scenario is used, trial counts come from the
    budget.  The row's table key is the crossover key
    :func:`~repro.vectorized.runner.classify_batch` gives its executor —
    the key the planner looks up.

    ``vectorized_min_n`` per row is the smallest grid ``n`` from which
    the vectorized path wins at every measured ``n`` onward (crossovers
    are monotone in ``n``: the kernel amortizes its per-batch setup).
    A row that never wins gets a never-select sentinel.

    The table's ``n_grid`` records every ``n`` the rows ran, sorted.
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
            "n_grid": sorted({n for grid in grids for n in grid.ns}),
            "seed": seed,
        },
        "schemes": {},
    }
    for grid in grids:
        scheme = None
        measured = []
        for n in grid.ns:
            task, executor, _ = grid.build_point(n)
            if scheme is None:
                scheme = classify_batch(executor, seed)[1]
            scalar_rate, vector_rate = _median_rates(
                (serial, vectorized), task, executor, budget_s, seed
            )
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


def write_crossover(table: dict, path: str) -> None:
    """Write the table and drop the planner's cache so the new numbers
    take effect in-process."""
    from repro.parallel.planner import _reset_crossover_cache

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _reset_crossover_cache()
