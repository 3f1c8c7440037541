"""Unit tests for the sweep service (``repro.service``).

The load-bearing properties:

* cache keys are canonical — equal sweeps address equal keys, any
  result-shaping change addresses fresh ones;
* the store round-trips ``SweepPoint`` payloads bitwise and survives
  corruption by recomputing, never by serving garbage;
* the resumable driver returns results bitwise identical to a cold
  :func:`run_sweep` — cold, warm (all hits), interrupted-then-resumed,
  and sharded-then-merged, on both runner backends.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.sweep import SweepPoint, SweepSpec, run_sweep
from repro.errors import ConfigurationError
from repro.observe import MetricsCollector, Observer
from repro.parallel import ProcessPoolRunner, SerialRunner
from repro.service import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    SweepGrid,
    canonical_json,
    content_key,
    merge_sweep,
    plan_shards,
    point_key,
    run_sweep_resumable,
    sweep_status,
    validate_shards,
)
from repro.service.shards import ShardSpec


def small_grid(**overrides) -> SweepGrid:
    defaults = dict(
        task="parity", ns=(3, 4, 5, 6), trials=3, seed=11, epsilon=0.1
    )
    defaults.update(overrides)
    return SweepGrid(**defaults)


def dicts(points) -> list[dict]:
    return [point.to_dict() for point in points]


# ---------------------------------------------------------------------------
# canonical JSON + content keys
# ---------------------------------------------------------------------------


class TestCanon:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_is_compact(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_content_key_ignores_dict_order(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_content_key_is_hex_128_bit(self):
        key = content_key({"a": 1})
        assert len(key) == 32
        int(key, 16)

    def test_point_key_sensitivity(self):
        spec = SweepSpec(trials=5, seed=3)
        workload = {"task": "parity"}
        base = point_key(spec, workload, 0)
        assert base == point_key(SweepSpec(trials=5, seed=3), workload, 0)
        assert base != point_key(spec, workload, 1)
        assert base != point_key(SweepSpec(trials=6, seed=3), workload, 0)
        assert base != point_key(SweepSpec(trials=5, seed=4), workload, 0)
        assert base != point_key(spec, {"task": "or"}, 0)

    def test_point_key_ignores_runner_and_observe(self):
        workload = {"task": "parity"}
        plain = SweepSpec(trials=5, seed=3)
        dressed = SweepSpec(
            trials=5,
            seed=3,
            runner=SerialRunner(),
            observe=Observer([MetricsCollector()]),
        )
        assert point_key(plain, workload, 2) == point_key(dressed, workload, 2)


# ---------------------------------------------------------------------------
# SweepSpec / SweepPoint serialization (satellite)
# ---------------------------------------------------------------------------


class TestSweepSpecJson:
    def test_round_trip(self):
        spec = SweepSpec(trials=17, seed=93)
        revived = SweepSpec.from_json(spec.to_json())
        assert revived.trials == 17
        assert revived.seed == 93
        assert revived.to_json() == spec.to_json()

    def test_canonical_bytes(self):
        assert SweepSpec(trials=2, seed=5).to_json() == (
            '{"schema":1,"seed":5,"trials":2}'
        )

    def test_runner_observe_not_serialized(self):
        dressed = SweepSpec(trials=2, seed=5, runner=SerialRunner())
        assert dressed.to_json() == SweepSpec(trials=2, seed=5).to_json()

    def test_from_json_accepts_dict(self):
        revived = SweepSpec.from_json({"schema": 1, "trials": 3, "seed": 0})
        assert revived.trials == 3

    def test_from_json_rejects_other_schema(self):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_json({"schema": 99, "trials": 3, "seed": 0})

    def test_from_json_reattaches_runner(self):
        runner = SerialRunner()
        revived = SweepSpec.from_json(
            SweepSpec(trials=2, seed=5).to_json(), runner=runner
        )
        assert revived.runner is runner


class TestSweepPointFromDict:
    def test_round_trips_through_json(self):
        grid = small_grid(ns=(4,), trials=4)
        [point] = run_sweep(grid.ns, grid.build_point, grid.spec())
        payload = json.loads(json.dumps(point.to_dict()))
        revived = SweepPoint.from_dict(payload)
        assert revived.to_dict() == point.to_dict()
        assert revived.success == point.success
        assert revived.mean_rounds == point.mean_rounds
        assert revived.mean_overhead == point.mean_overhead
        assert revived.extras == point.extras

    def test_timing_excluded_by_default(self):
        grid = small_grid(ns=(4,), trials=2)
        [point] = run_sweep(grid.ns, grid.build_point, grid.spec())
        assert point.timing  # the live run measured something
        revived = SweepPoint.from_dict(point.to_dict())
        assert revived.timing == {}


# ---------------------------------------------------------------------------
# SweepGrid
# ---------------------------------------------------------------------------


class TestSweepGrid:
    def test_json_round_trip(self):
        grid = small_grid()
        revived = SweepGrid.from_json(grid.to_json())
        assert revived == grid
        assert revived.grid_key() == grid.grid_key()

    def test_grid_key_sensitivity(self):
        base = small_grid()
        assert base.grid_key() != small_grid(trials=4).grid_key()
        assert base.grid_key() != small_grid(seed=12).grid_key()
        assert base.grid_key() != small_grid(task="or").grid_key()
        assert base.grid_key() != small_grid(ns=(3, 4, 5)).grid_key()

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            SweepGrid(task="nope")
        with pytest.raises(ConfigurationError):
            SweepGrid(channel="nope")
        with pytest.raises(ConfigurationError):
            SweepGrid(simulator="nope")

    def test_rejects_empty_grid_and_bad_trials(self):
        with pytest.raises(ConfigurationError):
            SweepGrid(ns=())
        with pytest.raises(ConfigurationError):
            SweepGrid(trials=0)

    def test_from_json_rejects_other_schema(self):
        payload = json.loads(small_grid().to_json())
        payload["schema"] = 99
        with pytest.raises(ConfigurationError):
            SweepGrid.from_json(payload)

    def test_point_key_bounds(self):
        grid = small_grid()
        with pytest.raises(ConfigurationError):
            grid.point_key(grid.total_points)

    def test_build_point_matches_run_sweep_contract(self):
        grid = small_grid(ns=(4,))
        task, executor, params = grid.build_point(4)
        assert task.n_parties == 4
        assert params == {"n": 4, "epsilon": 0.1}
        assert callable(executor)


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


class TestResultStore:
    def put_one(self, store, key="a" * 32):
        grid = small_grid(ns=(4,), trials=2)
        [point] = run_sweep(grid.ns, grid.build_point, grid.spec())
        store.put(key, point, meta={"index": 0})
        return key, point

    def test_round_trip_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        key, point = self.put_one(store)
        cached = store.get(key)
        assert cached is not None
        assert cached.to_dict() == point.to_dict()

    def test_miss_on_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("f" * 32) is None
        assert store.counters["misses"] == 1
        assert store.counters["hits"] == 0

    def test_counters_and_events(self, tmp_path):
        store = ResultStore(tmp_path)
        collector = MetricsCollector()
        observer = Observer([collector])
        key, _ = self.put_one(store)
        store.get("0" * 32, observe=observer, index=5)
        store.get(key, observe=observer, index=0)
        assert store.counters == {
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "invalid": 0,
        }
        assert collector.count("cache_miss") == 1
        assert collector.count("cache_hit") == 1
        assert collector.events_of("cache_hit")[0]["index"] == 0

    def test_corrupt_envelope_self_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self.put_one(store)
        store.object_path(key).write_text("{ truncated", encoding="utf-8")
        assert store.get(key) is None
        assert store.counters["invalid"] == 1
        assert not store.object_path(key).exists()

    def test_key_mismatch_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self.put_one(store)
        other = "b" * 32
        path = store.object_path(other)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            store.object_path(key).read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert store.get(other) is None  # envelope names a different key
        assert store.counters["invalid"] == 1

    def test_wrong_schema_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self.put_one(store)
        path = store.object_path(key)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert store.get(key) is None

    def test_keys_listing(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self.put_one(store)
        assert list(store.keys()) == [key]

    def test_contains_is_counter_free(self, tmp_path):
        store = ResultStore(tmp_path)
        key, _ = self.put_one(store)
        assert store.contains(key)
        assert not store.contains("c" * 32)
        assert store.counters["hits"] == 0
        assert store.counters["misses"] == 0

    def test_gc_keeps_and_removes(self, tmp_path):
        store = ResultStore(tmp_path)
        key, point = self.put_one(store)
        store.put("d" * 32, point)
        stale = store.objects_dir / "ee" / ".tmp-x-123"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text("partial", encoding="utf-8")
        stats = store.gc(keep={key})
        assert stats == {"removed": 1, "kept": 1, "tmp_removed": 1}
        assert store.contains(key)
        assert not store.contains("d" * 32)
        assert not stale.exists()

    def test_manifests_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = small_grid()
        store.write_manifest(grid.grid_key(), {"grid": grid.workload()})
        manifests = store.manifests()
        assert grid.grid_key() in manifests
        revived = SweepGrid.from_json(manifests[grid.grid_key()]["grid"])
        assert revived == grid


# ---------------------------------------------------------------------------
# resumable driver
# ---------------------------------------------------------------------------


class FailAfter:
    """A point builder that raises when building point ``fail_index``."""

    def __init__(self, grid: SweepGrid, fail_index: int) -> None:
        self.grid = grid
        self.fail_index = fail_index
        self.built: list[int] = []

    def __call__(self, n: int):
        index = self.grid.ns.index(n)
        if index == self.fail_index:
            raise RuntimeError(f"injected crash at point {index}")
        self.built.append(index)
        return self.grid.build_point(n)


def both_runners():
    return [SerialRunner(), ProcessPoolRunner(workers=2)]


class TestRunSweepResumable:
    def test_cold_run_matches_run_sweep_bitwise(self, tmp_path):
        grid = small_grid()
        cold = run_sweep(grid.ns, grid.build_point, grid.spec())
        cached = run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(),
            store=ResultStore(tmp_path),
            workload=grid.workload(),
        )
        assert dicts(cached) == dicts(cold)

    def test_warm_run_recomputes_nothing(self, tmp_path):
        grid = small_grid()
        store = ResultStore(tmp_path)
        first = run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(),
            store=store,
            workload=grid.workload(),
        )

        def exploding_builder(n):
            raise AssertionError("warm run must not rebuild any point")

        warm = run_sweep_resumable(
            grid.ns,
            exploding_builder,
            grid.spec(),
            store=store,
            workload=grid.workload(),
        )
        assert dicts(warm) == dicts(first)
        assert store.counters["hits"] == grid.total_points

    def test_emits_cache_and_run_events(self, tmp_path):
        grid = small_grid(ns=(3, 4), trials=2)
        store = ResultStore(tmp_path)
        collector = MetricsCollector()
        run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(observe=Observer([collector])),
            store=store,
            workload=grid.workload(),
        )
        assert collector.count("cache_miss") == 2
        assert collector.count("cache_put") == 2
        assert collector.count("sweep_point") == 2
        [run_event] = collector.events_of("sweep_run")
        assert run_event["total"] == 2
        assert run_event["computed"] == 2
        assert run_event["hits"] == 0

    def test_rejects_out_of_range_indices(self, tmp_path):
        grid = small_grid()
        with pytest.raises(ConfigurationError):
            run_sweep_resumable(
                grid.ns,
                grid.build_point,
                grid.spec(),
                store=ResultStore(tmp_path),
                workload=grid.workload(),
                indices=[0, grid.total_points],
            )

    @pytest.mark.parametrize("runner", both_runners(), ids=["serial", "pool"])
    def test_interrupt_then_resume_is_bitwise_identical(
        self, tmp_path, runner
    ):
        """Kill the driver mid-sweep (exception after point j), resume,
        and land bitwise on the uninterrupted result — both backends."""
        grid = small_grid()
        fail_at = 2
        store = ResultStore(tmp_path)
        try:
            with pytest.raises(RuntimeError, match="injected crash"):
                run_sweep_resumable(
                    grid.ns,
                    FailAfter(grid, fail_at),
                    grid.spec(runner=runner),
                    store=store,
                    workload=grid.workload(),
                )
            # Everything before the crash is checkpointed, nothing after.
            status = sweep_status(
                grid.spec(), grid.workload(), grid.total_points, store
            )
            assert status["done"] == fail_at
            assert status["missing"] == [fail_at, fail_at + 1]

            resumed = run_sweep_resumable(
                grid.ns,
                grid.build_point,
                grid.spec(runner=runner),
                store=store,
                workload=grid.workload(),
            )
            cold = run_sweep(
                grid.ns, grid.build_point, grid.spec(runner=runner)
            )
            assert dicts(resumed) == dicts(cold)
            # The resume computed exactly the missing tail.
            assert store.counters["puts"] == grid.total_points
            assert store.counters["hits"] == fail_at
        finally:
            runner.close()

    def test_serial_and_pool_share_the_cache(self, tmp_path):
        """Backend never reaches the cache key: a pool run hits what a
        serial run checkpointed, and vice versa."""
        grid = small_grid(ns=(3, 4), trials=2)
        store = ResultStore(tmp_path)
        serial = run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(runner=SerialRunner()),
            store=store,
            workload=grid.workload(),
        )
        pool = ProcessPoolRunner(workers=2)
        try:
            warm = run_sweep_resumable(
                grid.ns,
                grid.build_point,
                grid.spec(runner=pool),
                store=store,
                workload=grid.workload(),
            )
        finally:
            pool.close()
        assert dicts(warm) == dicts(serial)
        assert store.counters["hits"] == 2

    def test_vectorized_warm_cache_is_backend_invariant(self, tmp_path):
        """A cache warmed by the vectorized backend serves serial runs
        (and vice versa) with zero recompute — the key excludes the
        runner, and the records it addresses are bitwise identical."""
        from repro.vectorized import VectorizedRunner

        grid = small_grid(ns=(3, 4), trials=2)
        store = ResultStore(tmp_path)
        cold = run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(runner=VectorizedRunner()),
            store=store,
            workload=grid.workload(),
        )
        assert store.counters["puts"] == 2
        warm = run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(runner=SerialRunner()),
            store=store,
            workload=grid.workload(),
        )
        assert dicts(warm) == dicts(cold)
        assert store.counters["hits"] == 2
        assert store.counters["puts"] == 2  # nothing recomputed


class TestSweepStatus:
    def test_status_counts_checkpoints(self, tmp_path):
        grid = small_grid()
        store = ResultStore(tmp_path)
        run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(),
            store=store,
            workload=grid.workload(),
            indices=[0, 2],
        )
        status = sweep_status(
            grid.spec(), grid.workload(), grid.total_points, store
        )
        assert status == {"total": 4, "done": 2, "missing": [1, 3]}


# ---------------------------------------------------------------------------
# shards
# ---------------------------------------------------------------------------


class TestShardPlanner:
    def test_plan_is_disjoint_and_complete(self):
        for total in (1, 2, 5, 8, 13):
            for count in (1, 2, 3):
                if count > total:
                    continue
                shards = plan_shards(total, count)
                validate_shards(shards, total)
                sizes = [len(shard.indices) for shard in shards]
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            plan_shards(4, 0)
        with pytest.raises(ConfigurationError):
            plan_shards(4, 5)

    def test_validate_catches_overlap(self):
        shards = [
            ShardSpec(0, 2, (0, 1)),
            ShardSpec(1, 2, (1, 2)),
        ]
        with pytest.raises(ConfigurationError, match="overlap"):
            validate_shards(shards, 3)

    def test_validate_catches_gap(self):
        shards = [
            ShardSpec(0, 2, (0,)),
            ShardSpec(1, 2, (2,)),
        ]
        with pytest.raises(ConfigurationError, match="missing"):
            validate_shards(shards, 3)

    def test_validate_catches_inconsistent_of(self):
        shards = [ShardSpec(0, 3, (0, 1, 2))]
        with pytest.raises(ConfigurationError, match="of="):
            validate_shards(shards, 3)


class TestShardedRunAndMerge:
    def test_sharded_runs_merge_to_cold_result(self, tmp_path):
        grid = small_grid()
        store = ResultStore(tmp_path)
        shards = plan_shards(grid.total_points, 3)
        validate_shards(shards, grid.total_points)
        # Shards run in scrambled order, like independent machines would.
        for shard in reversed(shards):
            run_sweep_resumable(
                grid.ns,
                grid.build_point,
                grid.spec(),
                store=store,
                workload=grid.workload(),
                indices=shard.indices,
            )
        merged = merge_sweep(
            grid.spec(), grid.workload(), grid.total_points, store
        )
        cold = run_sweep(grid.ns, grid.build_point, grid.spec())
        assert dicts(merged) == dicts(cold)

    def test_merge_reports_missing_indices(self, tmp_path):
        grid = small_grid()
        store = ResultStore(tmp_path)
        run_sweep_resumable(
            grid.ns,
            grid.build_point,
            grid.spec(),
            store=store,
            workload=grid.workload(),
            indices=[0, 3],
        )
        with pytest.raises(ConfigurationError, match=r"\[1, 2\]"):
            merge_sweep(
                grid.spec(), grid.workload(), grid.total_points, store
            )
