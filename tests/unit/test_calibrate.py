"""Crossover calibration: its rows are sweep grids keyed like the planner.

``repro bench calibrate`` writes the table the ``auto`` planner routes
on.  A row's key is the crossover key ``classify_batch`` gives its
executor, so these tests pin that the default rows produce exactly the
packaged table's network keys, and that a measured run writes one
well-formed entry per row under that key, beside the packaged table's
metadata keys.
"""

from __future__ import annotations

import json

import pytest

import repro.parallel.calibrate as calibrate
import repro.vectorized
from repro.network.topology import TopologySpec
from repro.parallel.calibrate import (
    NETWORK_N_GRID,
    NEVER,
    calibration_grids,
    run_calibration,
)
from repro.parallel.planner import DEFAULT_CROSSOVER_PATH
from repro.service.grid import SweepGrid
from repro.vectorized.runner import classify_batch

SEED = 2026


def _packaged() -> dict:
    with open(DEFAULT_CROSSOVER_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _key(grid: SweepGrid) -> str:
    _, executor, _ = grid.build_point(grid.ns[0])
    return classify_batch(executor, SEED)[1]


def _neighbor_or(ns, simulator="none") -> SweepGrid:
    return SweepGrid(
        task="neighbor-or",
        ns=ns,
        channel="independent",
        simulator=simulator,
        topology=TopologySpec.of("grid"),
    )


def test_default_rows_key_the_packaged_table():
    keys = [_key(grid) for grid in calibration_grids()]
    assert keys == [
        "NeighborORTask",
        "BroadcastTask",
        "MISTask",
        "LocalBroadcastSimulator",
    ]
    assert set(keys) == set(_packaged()["schemes"])


def test_run_writes_one_entry_per_row_under_its_planner_key():
    grids = [_neighbor_or((16,)), _neighbor_or((4, 16), "local-broadcast")]
    table = run_calibration(grids=grids, budget_s=0.002, seed=SEED)
    assert list(table["schemes"]) == [
        "NeighborORTask",
        "LocalBroadcastSimulator",
    ]
    assert [_key(grid) for grid in grids] == list(table["schemes"])
    calibrated = table["calibrated"]
    assert sorted(calibrated) == sorted(_packaged()["calibrated"])
    assert calibrated["n_grid"] == [4, 16]
    for grid, entry in zip(grids, table["schemes"].values()):
        assert [row["n"] for row in entry["measured"]] == list(grid.ns)
        min_n = entry["vectorized_min_n"]
        assert min_n == NEVER or min_n in grid.ns
        for row in entry["measured"]:
            assert row["scalar_trials_per_s"] > 0
            assert row["vectorized_trials_per_s"] > 0


def test_recorded_n_grids_are_the_ns_that_ran():
    """A run records one ``n_grid``: the ``n`` values its rows ran, here
    the ``ns`` the default rows were built on, not the defaults."""
    calibrated = run_calibration(
        n_grid=(9, 4), budget_s=0.002, seed=SEED
    )["calibrated"]
    assert calibrated["n_grid"] == [4, 9]


def test_default_rows_record_the_default_n_grids():
    assert all(grid.ns == NETWORK_N_GRID for grid in calibration_grids())
    assert _packaged()["calibrated"]["n_grid"] == list(NETWORK_N_GRID)


class _Clock:
    """A fake ``time`` module: only the runners advance it."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def _scripted_runner(clock, name, durations, calls):
    """A runner class whose ``run_trials`` calls take ``durations`` in
    turn on ``clock`` and are logged in ``calls``."""

    class Scripted:
        def __init__(self, *args, **kwargs) -> None:
            self.left = list(durations)

        def run_trials(self, task, executor, trials, *, seed=0):
            calls.append((name, trials))
            clock.now += self.left.pop(0)

    return Scripted


@pytest.mark.parametrize(
    "middle, min_n", [(0.9, 16), (1.1, NEVER)], ids=["wins", "loses"]
)
def test_median_of_interleaved_repeats_decides(monkeypatch, middle, min_n):
    """Each engine is timed on 3 batches, interleaved with the other's,
    and the median rate decides: the vectorized first batch (twice the
    scalar rate) and mean rate (above it either way) do not."""
    clock = _Clock()
    calls: list = []
    # One probe trial (0.1 s: 10 trials per 1 s budget), then 3 batches.
    scalar = _scripted_runner(clock, "scalar", [0.1, 1.0, 1.0, 1.0], calls)
    vectorized = _scripted_runner(
        clock, "vectorized", [0.1, 0.5, 2.0, middle], calls
    )
    monkeypatch.setattr(calibrate, "time", clock)
    monkeypatch.setattr(calibrate, "SerialRunner", scalar)
    monkeypatch.setattr(repro.vectorized, "VectorizedRunner", vectorized)
    table = run_calibration(grids=[_neighbor_or((16,))], budget_s=1.0)
    assert calls == [("scalar", 1), ("vectorized", 1)] + [
        ("scalar", 10),
        ("vectorized", 10),
    ] * calibrate.REPEATS
    (entry,) = table["schemes"].values()
    (row,) = entry["measured"]
    assert row["scalar_trials_per_s"] == 10.0
    assert row["vectorized_trials_per_s"] == round(10 / middle, 3)
    assert entry["vectorized_min_n"] == min_n
