"""Tests of the end-to-end benchmark harness itself.

Run from the repository root (about 10 s)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q

The workloads here are tiny grids built in the test; the benchmark's
own workloads are not run.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import run
import tracing
from workloads import WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY_SWEEP = Workload(
    name="tiny-sweep",
    why="test",
    kind="sweep",
    params={
        "task": "input-set",
        "ns": (4, 8),
        "channel": "correlated",
        "epsilon": 0.1,
        "simulator": "chunk",
        "trials": 4,
    },
    replay=True,
)
TINY_REPORT = Workload(
    name="tiny-report",
    why="test",
    kind="report",
    params={"scale": 0.2, "only": ["E12"]},
)


def _pass(workload: Workload, mode: str, **kwargs) -> dict:
    return child.run_pass(workload, 0, mode, spawn_t=time.perf_counter(), **kwargs)


def _failed(cold: dict, warm: dict) -> int:
    return run.evaluate_rep(cold, warm, None)[1]


# -- metric names ------------------------------------------------------


def test_printed_metric_names_match_benchmark_json():
    bench = run.load_benchmark()
    end_to_end = [metric["name"] for metric in bench["end_to_end"]]
    per_layer = [metric["name"] for metric in bench["per_layer"]]
    assert all(NAME.fullmatch(name) for name in end_to_end + per_layer)
    assert [w["name"] for w in bench["workloads"]] == [w.name for w in WORKLOADS]
    assert list(tracing.layer_metrics({}, 1.0, 1.0, 2.0)) == per_layer

    stats = {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1, "samples": [1.0]}
    wres = {
        "correct": True,
        "attempted": 2,
        "failed": 0,
        "metrics": {name: stats for name in end_to_end},
        "layers": {name: 0.0 for name in per_layer},
    }
    untraced = {"trace": 0, "workloads": {"report": wres}}
    traced = {"trace": 1, "workloads": {"report": wres}}
    assert list(run.result_line(untraced, bench)["metrics"]) == end_to_end
    assert list(run.result_line(traced, bench)["metrics"]) == per_layer
    line = run.result_line(untraced, bench)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0


def test_rep_seeds_are_reproducible_and_vary_only_sweeps():
    sweep, report = WORKLOADS[1], WORKLOADS[0]
    assert sweep.kind == "sweep" and report.kind == "report"
    seeds = [run.rep_seed(sweep, 7, rep) for rep in range(6)]
    assert seeds[0] == 7 and len(set(seeds)) == 6
    assert seeds == [run.rep_seed(sweep, 7, rep) for rep in range(6)]
    assert {run.rep_seed(report, 7, rep) for rep in range(6)} == {7}


# -- failed_frac -------------------------------------------------------


def test_clean_sweep_rep_has_no_failures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cold = _pass(TINY_SWEEP, "cold", replay=True)
    warm = _pass(TINY_SWEEP, "warm")
    assert run.evaluate_rep(cold, warm, None) == (4, 0, [])
    pins = {unit["id"]: unit["digest"] for unit in cold["units"]}
    assert run.evaluate_rep(cold, warm, pins)[1] == 0
    assert run.evaluate_rep(cold, warm, dict(pins, extra="0"))[1] == 1


def test_tampered_store_record_fails_the_warm_pass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cold = _pass(TINY_SWEEP, "cold")
    envelope_path = next((tmp_path / ".repro-cache" / "objects").rglob("*.json"))
    envelope = json.loads(envelope_path.read_text())
    envelope["point"]["mean_rounds"] += 1.0
    envelope_path.write_text(json.dumps(envelope))
    warm = _pass(TINY_SWEEP, "warm")
    assert _failed(cold, warm) == 1


def test_tampered_trial_record_fails_the_scalar_replay(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = child.RecordingRunner.run_trials

    def tampering(self, task, executor, trials, *, seed=0, observe=None):
        batch = recorded(self, task, executor, trials, seed=seed, observe=observe)
        task, executor, seed, records = self.batches[-1]
        records = [dataclasses.replace(r, flips_up=r.flips_up + 1) for r in records]
        self.batches[-1] = (task, executor, seed, records)
        return batch

    monkeypatch.setattr(child.RecordingRunner, "run_trials", tampering)
    cold = _pass(TINY_SWEEP, "cold", replay=True)
    warm = _pass(TINY_SWEEP, "warm")
    assert _failed(cold, warm) == 2


def test_failing_report_check_is_a_failed_unit(tmp_path, monkeypatch):
    from repro.experiments import REGISTRY

    monkeypatch.chdir(tmp_path)
    cold = _pass(TINY_REPORT, "cold")
    warm = _pass(TINY_REPORT, "warm")
    assert [unit["id"] for unit in cold["units"]] == ["E12"]
    assert _failed(cold, warm) == 0

    module = REGISTRY["E12"]
    original = module.run

    def failing(seed=0, scale=1.0):
        result = original(seed=seed, scale=scale)
        result.check("forced failure", False)
        return result

    monkeypatch.setattr(module, "run", failing)
    failed_cold = _pass(TINY_REPORT, "cold")
    assert _failed(failed_cold, warm) == 2  # its own check, and cold != warm


def test_spawned_pass_is_probed_and_its_failures_reported(tmp_path):
    root = Path(run.__file__).resolve().parents[2]
    cold = run.spawn(root, TINY_SWEEP, 0, "cold", tmp_path)
    assert len(cold["units"]) == 2
    assert 0.0 < cold["scale"] < 10.0

    broken = dataclasses.replace(TINY_SWEEP, params=dict(TINY_SWEEP.params, task="no-such-task"))
    with pytest.raises(run.ChildFailed, match="tiny-sweep cold pass exited 1"):
        run.spawn(root, broken, 0, "cold", tmp_path)


def test_missing_source_tree_exits_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--root", str(tmp_path), "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- self-time arithmetic ---------------------------------------------


def test_self_times_subtract_children_and_skip_nested_totals():
    spans = [
        (0, None, "a", 0.0, 10.0, 0),
        (1, 0, "b", 1.0, 4.0, 5),
        (2, 1, "b", 2.0, 3.0, 7),  # recursive: no second total
        (3, 0, "c", 5.0, 9.0, 0),
    ]
    table = tracing.self_times(spans)
    assert table["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0, "value": 0.0}
    assert table["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "value": 12.0}
    assert table["c"]["self_s"] == 4.0
    assert sum(row["self_s"] for row in table.values()) == 10.0


def test_summary_merges_passes_into_layer_metrics():
    cold = [
        (0, None, tracing.HARNESS_PASS, 0.0, 10.0, 0),
        (1, 0, "vectorized.schemes.chunked", 2.0, 8.0, 0),
        (2, 0, "service.store.put", 8.0, 9.0, 100),
    ]
    events = [
        {"event": "backend_selected", "backend": "vectorized", "fallback_reason": None},
        {"event": "backend_selected", "backend": "serial", "fallback_reason": "n below crossover"},
        {"event": "cache_miss"},
    ]
    summary = tracing.summarize(cold, events)
    assert summary["spans"][tracing.HARNESS_PASS]["self_s"] == 3.0

    warm = tracing.summarize([(0, None, "service.store.get", 0.0, 0.5, 0)], [{"event": "cache_hit"}])
    metrics = tracing.layer_metrics(tracing.merge(summary, warm), 12.0, 10.0, 12.0)
    assert metrics["parallel.planner.decisions_vectorized"] == 1
    assert metrics["parallel.planner.decisions_serial"] == 1
    assert metrics["parallel.planner.fallbacks"] == 1
    assert metrics["service.store.hit_ratio"] == 0.5
    assert metrics["service.store.bytes"] == 100
    assert metrics["vectorized.schemes.chunked_self_s"] == 6.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)
    assert metrics["trace.self_sum_frac"] == pytest.approx(10.5 / 12.0)
    assert tracing.dominant(summary["spans"]) == "vectorized.schemes.chunked"


# -- compare -----------------------------------------------------------


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([10.0, 10.1, 10.2, 9.9, 10.0], [10.1, 10.0, 10.2, 9.9, 10.1], "same"),
        ([10.0, 10.1, 10.2, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5, 11.7], "worse"),
        ([10.0, 10.1, 10.2, 9.9, 10.0], [8.5, 8.6, 8.4, 8.5, 8.7], "better"),
        ([10.0, 14.0, 8.0, 12.0, 9.0], [11.0, 13.0, 9.0, 12.5, 10.0], "unresolved"),
        # Wider than the bound, but every new run beats every base run.
        ([20.0, 30.0, 25.0, 28.0, 22.0], [10.0, 15.0, 12.0, 14.0, 11.0], "better"),
    ],
)
def test_verdicts(base, new, expected):
    assert run.verdict(base, new, 0.1, "lower") == expected
    flipped = {"better": "worse", "worse": "better"}.get(expected, expected)
    assert run.verdict(base, new, 0.1, "higher") == flipped


def test_claim_protocol():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 10.0]
    faster = [value - 1.0 for value in parent]
    assert run.claim(parent, faster, "lower")["gain"]
    one_loss = faster[:9] + [parent[9] + 1.0]  # still 9/10 wins
    assert run.claim(parent, one_loss, "lower")["gain"]
    two_losses = faster[:8] + [parent[8], parent[9] + 1.0]  # a tie and a loss
    assert not run.claim(parent, two_losses, "lower")["gain"]
    within_noise = [value - 0.05 for value in parent]  # wins, gap < IQR
    assert not run.claim(parent, within_noise, "lower")["gain"]
    assert not run.claim(parent[:9], faster[:9], "lower")["gain"]


def test_compare_reads_results_files():
    bench = run.load_benchmark()

    def results(values_by_run):
        return {
            "runs": [
                {
                    "workloads": {
                        "net-mis": {
                            "metrics": {
                                "wall_s": {"median": sorted(values)[len(values) // 2], "samples": values}
                            }
                        }
                    }
                }
                for values in values_by_run
            ]
        }

    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    slower, faster = 1.0 + 2 * bound, 1.0 - 2 * bound
    single = run.compare(results([[1.0, 1.01, 0.99]]), results([[slower, slower]]), bench)
    assert [(row["metric"], row["verdict"]) for row in single] == [("wall_s", "worse")]
    assert "claim" not in single[0]
    paired = run.compare(results([[1.0]] * 10), results([[faster]] * 10), bench)
    assert paired[0]["verdict"] == "better"
    assert paired[0]["claim"]["wins"] == 10 and paired[0]["claim"]["gain"]
