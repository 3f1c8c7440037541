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
