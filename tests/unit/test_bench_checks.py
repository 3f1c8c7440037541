"""The throughput harness's floor logic, on synthetic payloads.

``benchmarks/bench_micro.py`` decides whether a benchmark run passes:
:func:`compare` applies the drift-normalized reference floor and
:func:`_retry_misses` the transient-miss protocol shared with the
absolute floors.  These tests drive both with a fake ``remeasure`` (no
timing runs), plus ``REPRO_WORKERS`` parsing in ``benchmarks/_harness.py``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import _harness  # noqa: E402
import bench_micro  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402

FAST, LEGACY = "fast_rounds_per_sec", "legacy_rounds_per_sec"


class FakeRemeasure:
    """Returns ``rates`` in turn and records the entry's value at each
    call (so a test can see what the fold kept)."""

    def __init__(self, *rates: float) -> None:
        self.rates = list(rates)
        self.seen: list[float] = []

    def __call__(self, payload: dict, entry: dict, field: str) -> dict:
        self.seen.append(entry[field])
        rate = self.rates.pop(0) if len(self.rates) > 1 else self.rates[0]
        return {field: rate}


def _suite(name: str, remeasure=None):
    remeasure = remeasure or FakeRemeasure(0.0)
    return dataclasses.replace(bench_micro.SUITES[name], remeasure=remeasure)


def _engine(*entries: tuple[int, float, float]) -> dict:
    """An engine payload of ``(n_parties, fast, legacy)`` entries."""
    return {
        "results": [
            {
                "n_parties": n,
                "record_sent": True,
                FAST: fast,
                LEGACY: legacy,
                "speedup": round(fast / legacy, 2),
            }
            for n, fast, legacy in entries
        ]
    }


REFERENCE = _engine((8, 2000, 1000))


def test_slower_anchor_lowers_the_floor():
    remeasure = FakeRemeasure(1000)
    # Without drift, 1000 r/s misses the 1900 r/s floor...
    assert bench_micro.compare(
        _suite("engine", remeasure), _engine((8, 1000, 1000)), REFERENCE, 0.05
    )
    # ...but a legacy loop at half its reference rate halves the floor.
    remeasure = FakeRemeasure(0.0)
    payload = _engine((8, 1000, 500))
    assert bench_micro.compare(
        _suite("engine", remeasure), payload, REFERENCE, 0.05
    ) == []
    assert remeasure.seen == []


def test_faster_anchor_does_not_raise_the_floor():
    remeasure = FakeRemeasure(1950)
    payload = _engine((8, 1950, 4000))
    assert bench_micro.compare(
        _suite("engine", remeasure), payload, REFERENCE, 0.05
    ) == []
    remeasure = FakeRemeasure(1850)
    failures = bench_micro.compare(
        _suite("engine", remeasure), _engine((8, 1850, 4000)), REFERENCE, 0.05
    )
    assert failures == [
        "n_parties=8 record_sent=True: 1,850 r/s < 1,900 r/s "
        "(reference - 5%, machine x1.00)"
    ]


def test_configs_missing_from_either_side_are_skipped():
    remeasure = FakeRemeasure(0.0)
    payload = _engine((8, 2000, 1000), (32, 1, 1000))
    reference = _engine((8, 2000, 1000), (128, 10**9, 1000))
    assert bench_micro.compare(
        _suite("engine", remeasure), payload, reference, 0.05
    ) == []
    assert remeasure.seen == []


def test_recovered_miss_keeps_its_best_of():
    # The first re-measure is lower than the original sample and must not
    # replace it; the second clears the floor.
    remeasure = FakeRemeasure(500, 1990)
    payload = _engine((8, 1000, 1000))
    assert bench_micro.compare(
        _suite("engine", remeasure), payload, REFERENCE, 0.05
    ) == []
    assert remeasure.seen == [1000, 1000]
    entry = payload["results"][0]
    assert entry[FAST] == 1990
    assert entry["speedup"] == 1.99


def test_persistent_miss_is_reported_once():
    remeasure = FakeRemeasure(1000)
    failures = bench_micro.compare(
        _suite("engine", remeasure), _engine((8, 1000, 1000)), REFERENCE, 0.05
    )
    assert len(failures) == 1
    assert failures[0].startswith("n_parties=8 record_sent=True: 1,000 r/s")
    # Three attempts: two re-measurements between three checks.
    assert len(remeasure.seen) == 2


def test_failed_canary_is_reported_without_remeasuring():
    remeasure = FakeRemeasure(0.0)
    entry = {
        "family": "grid",
        "n_nodes": 10_000,
        "sparse_rounds_per_sec": 5000.0,
        "dense_rounds_per_sec": 50.0,
        "lb_correct": False,
    }
    failures = bench_micro.compare(
        _suite("network", remeasure),
        {"results": [entry]},
        {"results": [dict(entry, lb_correct=True)]},
        0.05,
    )
    assert failures == [
        "family=grid n_nodes=10000: local-broadcast canary trial produced "
        "a wrong output"
    ]
    assert remeasure.seen == []


def _vectorized(cpu_count: int) -> dict:
    """A vectorized payload whose only weak point is the composed ratio
    on chunked n=128."""
    return {
        "cpu_count": cpu_count,
        "composed_workers": 4,
        "results": [
            {
                "scheme": "chunked",
                "n_parties": 128,
                "token_trials_per_sec": 10.0,
                "vectorized_trials_per_sec": 100.0,
                "speedup": 10.0,
                "serial_runner_trials_per_sec": 10.0,
                "auto_trials_per_sec": 100.0,
                "auto_speedup": 10.0,
                "auto_backend": "vectorized",
                "composed_trials_per_sec": 100.0,
                "composed_speedup_vs_vectorized": 1.0,
            }
        ],
    }


def test_composed_floor_needs_the_cores():
    remeasure = FakeRemeasure(0.0)
    suite = _suite("vectorized", remeasure)
    assert bench_micro.check_floors(suite, _vectorized(cpu_count=1)) == []
    assert remeasure.seen == []

    payload = _vectorized(cpu_count=4)
    failures = bench_micro.check_floors(suite, payload)
    assert failures == [
        "scheme=chunked n_parties=128: composed x1.0 < 2.0 vs single-core "
        "vectorized at 4 workers"
    ]
    assert remeasure.seen == [100.0, 100.0]

    # A re-measure that clears the floor also updates the ratio.
    payload = _vectorized(cpu_count=4)
    suite = _suite("vectorized", FakeRemeasure(250.0))
    assert bench_micro.check_floors(suite, payload) == []
    assert payload["results"][0]["composed_speedup_vs_vectorized"] == 2.5


def test_retry_misses_stops_at_the_first_clean_check():
    misses = [["a", "b"], ["b"], []]
    remeasured = []
    left = bench_micro._retry_misses(
        lambda: misses.pop(0), remeasured.append, attempts=3
    )
    assert left == []
    assert remeasured == ["a", "b", "b"]
    assert misses == []


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_repro_workers_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("REPRO_WORKERS", raw)
    with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
        _harness.workers_from_env()


@pytest.mark.parametrize("raw, workers", [("", 1), (" ", 1), ("3", 3)])
def test_repro_workers_accepts_positive_integers(monkeypatch, raw, workers):
    monkeypatch.setenv("REPRO_WORKERS", raw)
    assert _harness.workers_from_env() == workers
