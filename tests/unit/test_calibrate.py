"""Crossover calibration: its rows are sweep grids keyed like the planner.

``repro bench calibrate`` writes the table the ``auto`` planner routes
on.  A row's key is the crossover key ``classify_batch`` gives its
executor, so these tests pin that the default rows still produce the
packaged table's keys, and that a measured run writes one well-formed
entry per row under that key, beside the packaged table's metadata keys.
"""

from __future__ import annotations

import json

from repro.network.topology import TopologySpec
from repro.parallel.calibrate import (
    NETWORK_N_GRID,
    NEVER,
    _ran_ns,
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


def test_default_rows_key_the_packaged_table():
    keys = [_key(grid) for grid in calibration_grids()]
    assert len(keys) == len(set(keys)), keys
    assert set(keys) == set(_packaged()["schemes"])


def test_run_writes_one_entry_per_row_under_its_planner_key():
    grids = [
        SweepGrid(
            task="parity",
            ns=(2, 4),
            channel="suppression",
            simulator="rewind",
        ),
        SweepGrid(
            task="neighbor-or",
            ns=(16,),
            channel="independent",
            simulator="none",
            topology=TopologySpec.of("grid"),
        ),
    ]
    table = run_calibration(grids=grids, budget_s=0.002, seed=SEED)
    assert list(table["schemes"]) == [
        "RewindSimulator",
        "NeighborORTask",
    ]
    assert [_key(grid) for grid in grids] == list(table["schemes"])
    calibrated = table["calibrated"]
    assert sorted(calibrated) == sorted(_packaged()["calibrated"])
    assert calibrated["n_grid"] == [2, 4]
    assert calibrated["network_n_grid"] == [16]
    for grid, entry in zip(grids, table["schemes"].values()):
        assert [row["n"] for row in entry["measured"]] == list(grid.ns)
        min_n = entry["vectorized_min_n"]
        assert min_n == NEVER or min_n in grid.ns
        for row in entry["measured"]:
            assert row["scalar_trials_per_s"] > 0
            assert row["vectorized_trials_per_s"] > 0


def test_recorded_n_grids_are_the_ns_that_ran():
    """Explicit rows record their own ``n`` values, not the defaults."""
    grids = [
        SweepGrid(
            task="parity",
            ns=(2, 4),
            channel="suppression",
            simulator="rewind",
        )
    ]
    calibrated = run_calibration(grids=grids, budget_s=0.002, seed=SEED)[
        "calibrated"
    ]
    assert calibrated["n_grid"] == [2, 4]
    assert calibrated["network_n_grid"] == []


def test_default_rows_record_the_default_n_grids():
    grids = calibration_grids()
    table = _packaged()["calibrated"]
    assert _ran_ns(grids, network=False) == table["n_grid"]
    assert _ran_ns(grids, network=True) == table["network_n_grid"]
    assert table["network_n_grid"] == list(NETWORK_N_GRID)
