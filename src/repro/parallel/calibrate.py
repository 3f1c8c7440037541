"""Crossover calibration: measure where the vectorized backend wins.

The ``auto`` planner (:mod:`repro.parallel.planner`) routes on a
*measured* table, not a belief: per scheme, the smallest party count at
which the party-collapsed vectorized path beats the scalar engine on
this machine.  This module produces that table — ``repro bench
calibrate`` is a thin CLI wrapper around :func:`run_calibration` — by
timing both engines over an ``n`` grid with wall-clock-budgeted trial
counts (no hard-coded per-``n`` trial tables; see
:func:`trials_for_budget`, which the micro-benchmarks share).

Calibration is honest about its machine: the table records the CPU count
and budget it was measured with, and the planner treats it as local
truth — re-run ``repro bench calibrate`` after moving to different
hardware, or point ``$REPRO_CROSSOVER`` at a per-machine table.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.parallel.executors import (
    ChannelSpec,
    ProtocolExecutor,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.parallel.runner import SerialRunner
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import ParityTask

__all__ = [
    "trials_for_budget",
    "run_calibration",
    "write_crossover",
    "CALIBRATION_SCHEMES",
    "NETWORK_CALIBRATION_SCHEMES",
    "DEFAULT_N_GRID",
    "NETWORK_N_GRID",
]

#: scheme key (simulator class name) -> (simulator spec, channel spec).
#: Channels match the micro-benchmark pairings: correlated noise for the
#: shared-transcript schemes, suppression for rewind.  Repetition under
#: independent noise replays per-party vote windows, a different cost,
#: so it gets its own row (the planner's ``@independent`` key).
CALIBRATION_SCHEMES = {
    "ChunkCommitSimulator": (
        SimulatorSpec.of(ChunkCommitSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "RewindSimulator": (
        SimulatorSpec.of(RewindSimulator),
        ChannelSpec.of(SuppressionNoiseChannel, 0.1),
    ),
    "RepetitionSimulator": (
        SimulatorSpec.of(RepetitionSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "HierarchicalSimulator": (
        SimulatorSpec.of(HierarchicalSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "RepetitionSimulator@independent": (
        SimulatorSpec.of(RepetitionSimulator),
        ChannelSpec.of(IndependentNoiseChannel, 0.1),
    ),
}

DEFAULT_N_GRID = (2, 4, 8, 16, 32)

#: Node counts for the graph schemes — network batches pay off at larger
#: ``n`` than the single-hop collapses, so they get their own grid
#: (perfect squares: the calibration topology is a square grid graph).
NETWORK_N_GRID = (16, 64, 256, 1024)

#: Crossover sentinel when the vectorized path never won on the grid.
NEVER = 1 << 30


def _network_scheme(task_factory, simulator_spec=None):
    """An ``n``-parameterized builder returning ``(task, executor)``.

    The graph schemes cannot use the fixed ``(simulator, channel)`` pair
    shape — the topology, the task, and (for broadcast) the protocol
    length all depend on ``n`` — so their registry entries are callables;
    :func:`run_calibration` accepts both shapes.  The channel matches the
    network micro-benchmark pairing: per-node noise at 0.1 on a square
    grid graph.
    """

    def build(n: int):
        from repro.network.channel import NetworkBeepingChannel
        from repro.network.topology import TopologySpec

        side = max(2, int(round(n ** 0.5)))
        spec = TopologySpec.of("grid", rows=side, cols=side)
        task = task_factory(spec.build())
        channel = ChannelSpec.of(
            NetworkBeepingChannel, 0.1, topology=spec
        )
        if simulator_spec is None:
            return task, ProtocolExecutor(task, channel)
        return task, SimulationExecutor(
            task=task, channel=channel, simulator=simulator_spec
        )

    build.n_grid = NETWORK_N_GRID
    return build


def _network_calibration_schemes():
    from repro.network.local_broadcast import LocalBroadcastSimulator
    from repro.network.mis import MISTask
    from repro.network.tasks import BroadcastTask, NeighborORTask

    return {
        "NeighborORTask": _network_scheme(NeighborORTask),
        "BroadcastTask": _network_scheme(BroadcastTask),
        "MISTask": _network_scheme(MISTask),
        "LocalBroadcastSimulator": _network_scheme(
            NeighborORTask,
            SimulatorSpec.of(LocalBroadcastSimulator),
        ),
    }


#: scheme key (crossover-table row) -> n-parameterized builder.
NETWORK_CALIBRATION_SCHEMES = _network_calibration_schemes()


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
    schemes: dict | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Measure scalar vs vectorized rates per (scheme, n); build the
    crossover table the ``auto`` planner consumes.

    ``vectorized_min_n`` per scheme is the smallest grid ``n`` from which
    the vectorized path wins at every measured ``n`` onward (crossovers
    are monotone in ``n``: the collapse amortizes per-round party work).
    A scheme that never wins gets a never-select sentinel.

    A scheme entry is either the classic ``(simulator_spec,
    channel_spec)`` pair — measured over :class:`~repro.tasks.ParityTask`
    on the shared ``n_grid`` — or an ``n``-parameterized builder callable
    returning ``(task, executor)`` (the network schemes), optionally
    carrying its own grid as a ``n_grid`` attribute.
    """
    from repro.vectorized import VectorizedRunner

    if schemes is None:
        schemes = {
            **CALIBRATION_SCHEMES,
            **NETWORK_CALIBRATION_SCHEMES,
        }
    serial = SerialRunner()
    vectorized = VectorizedRunner()
    table: dict = {
        "format": 1,
        "calibrated": {
            "cpu_count": os.cpu_count() or 1,
            "budget_s": budget_s,
            "n_grid": list(n_grid),
            "seed": seed,
        },
        "process_min_trials": 8,
        "default_vectorized_min_n": 16,
        "schemes": {},
    }
    for scheme, entry in schemes.items():
        builder = entry if callable(entry) else None
        grid = (
            getattr(builder, "n_grid", n_grid)
            if builder is not None
            else n_grid
        )
        measured = []
        for n in grid:
            if builder is not None:
                task, executor = builder(n)
                n = getattr(task, "n_parties", n)
            else:
                simulator_spec, channel_spec = entry
                task = ParityTask(n)
                executor = SimulationExecutor(
                    task=task,
                    channel=channel_spec,
                    simulator=simulator_spec,
                )
            scalar_rate = _rate(serial, task, executor, budget_s, seed)
            vector_rate = _rate(vectorized, task, executor, budget_s, seed)
            measured.append(
                {
                    "n": n,
                    "scalar_trials_per_s": round(scalar_rate, 3),
                    "vectorized_trials_per_s": round(vector_rate, 3),
                    "speedup": round(vector_rate / scalar_rate, 3),
                }
            )
            if progress is not None:
                progress(
                    f"{scheme} n={n}: scalar {scalar_rate:.1f}/s, "
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
