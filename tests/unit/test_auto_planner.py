"""The ``auto`` planner: routing, pins, and determinism.

The planner's contract: pick a backend per batch, never change a
result.  Every collapsible single-hop batch runs collapsed at every
``n`` (each collapse beats the scalar engine from ``n = 2``), whatever
a table says; graph batches route on the *measured* network crossover
rows of the shipped ``crossover.json``.
"""

from __future__ import annotations

import json

import pytest

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.errors import ConfigurationError
from repro.network.topology import TopologySpec
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    RUNNER_BACKENDS,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    make_runner,
)
from repro.parallel.planner import (
    AutoRunner,
    DEFAULT_CROSSOVER_PATH,
    load_crossover,
    _reset_crossover_cache,
)
from repro.service.grid import SweepGrid
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import ParityTask

from repro.vectorized import VectorizedRunner


def _executor(task, channel_spec, simulator):
    return SimulationExecutor(
        task=task,
        channel=channel_spec,
        simulator=SimulatorSpec.of(simulator),
    )


def _rewind_executor(n):
    return ParityTask(n), _executor(
        ParityTask(n),
        ChannelSpec.of(SuppressionNoiseChannel, 0.1),
        RewindSimulator,
    )


def _chunk_executor(n):
    task = ParityTask(n)
    return task, _executor(
        task, ChannelSpec.of(CorrelatedNoiseChannel, 0.1), ChunkCommitSimulator
    )


#: The five single-hop routes: each collapsed simulator under its
#: calibration channel, and repetition again under per-party noise.
SINGLE_HOP_ROUTES = {
    "chunk": (ChunkCommitSimulator, CorrelatedNoiseChannel),
    "rewind": (RewindSimulator, SuppressionNoiseChannel),
    "repetition": (RepetitionSimulator, CorrelatedNoiseChannel),
    "hierarchical": (HierarchicalSimulator, CorrelatedNoiseChannel),
    "repetition-independent": (RepetitionSimulator, IndependentNoiseChannel),
}


def _neighbor_or_point(n):
    """A raw neighbor-OR batch on an ``n``-node grid graph."""
    task, executor, _ = SweepGrid(
        task="neighbor-or",
        ns=(n,),
        channel="independent",
        epsilon=0.1,
        simulator="none",
        topology=TopologySpec.of("grid"),
    ).build_point(n)
    return task, executor


class TestMakeRunnerRouting:
    def test_registry_names(self):
        assert "vectorized-process" in RUNNER_BACKENDS
        assert "auto" in RUNNER_BACKENDS

    def test_auto_returns_planner(self):
        runner = make_runner(1, backend="auto")
        assert isinstance(runner, AutoRunner)
        assert runner.workers == 1

    def test_vectorized_process_backend(self):
        runner = make_runner(2, backend="vectorized-process")
        try:
            assert isinstance(runner, ProcessPoolRunner)
            assert runner.inner is VectorizedRunner
            assert runner.workers == 2
        finally:
            runner.close()

    def test_none_keeps_historical_rule(self):
        # Pinned behavior: backend=None predates the planner and must
        # stay serial-unless-workers, so library callers are unaffected.
        assert isinstance(make_runner(1, backend=None), SerialRunner)
        assert isinstance(make_runner(None, backend=None), SerialRunner)
        pool = make_runner(3, backend=None)
        try:
            assert isinstance(pool, ProcessPoolRunner)
        finally:
            pool.close()


class TestCrossoverTable:
    def test_shipped_table_loads_and_covers_all_schemes(self):
        """The shipped table holds the four network rows and nothing the
        planner no longer reads: no single-hop row, no default keys."""
        table = load_crossover(DEFAULT_CROSSOVER_PATH)
        schemes = table["schemes"]
        assert set(schemes) == {
            "NeighborORTask",
            "BroadcastTask",
            "MISTask",
            "LocalBroadcastSimulator",
        }
        for scheme, entry in schemes.items():
            assert entry["vectorized_min_n"] >= 1
            assert entry["measured"], scheme
        assert "default_vectorized_min_n" not in table
        assert "process_min_trials" not in table

    def test_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "crossover.json"
        table = {"schemes": {"MISTask": {"vectorized_min_n": 999}}}
        override.write_text(json.dumps(table))
        monkeypatch.setenv("REPRO_CROSSOVER", str(override))
        _reset_crossover_cache()
        try:
            assert load_crossover() == table
        finally:
            _reset_crossover_cache()

    #: Tables that fail to load or to validate, by what is wrong.
    BAD_TABLES = {
        "not json": "{not json",
        "not a dict": json.dumps(["x"]),
        "schemes not a dict": json.dumps({"schemes": ["x"]}),
        "scheme entry not a dict": json.dumps(
            {"schemes": {"ChunkCommitSimulator": 16}}
        ),
        "min n not an int": json.dumps(
            {"schemes": {"ChunkCommitSimulator": {"vectorized_min_n": "eight"}}}
        ),
        "min n not positive": json.dumps(
            {"schemes": {"RewindSimulator": {"vectorized_min_n": 0}}}
        ),
        "min n a bool": json.dumps(
            {"schemes": {"MISTask": {"vectorized_min_n": True}}}
        ),
    }

    def test_unreadable_table_degrades_to_defaults(self, tmp_path, monkeypatch):
        _reset_crossover_cache()
        try:
            assert load_crossover(str(tmp_path / "missing.json")) == {}
            task, executor = _chunk_executor(32)
            for problem, content in self.BAD_TABLES.items():
                path = tmp_path / "crossover.json"
                path.write_text(content)
                monkeypatch.setenv("REPRO_CROSSOVER", str(path))
                _reset_crossover_cache()
                assert load_crossover() == {}, problem
                # The planner runs on its defaults instead of crashing.
                with AutoRunner(workers=1) as runner:
                    runner.run_trials(task, executor, 2, seed=1)
                    assert runner.last_decision["backend"] == "vectorized"
        finally:
            _reset_crossover_cache()


class TestPlannerDecisions:
    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("route", sorted(SINGLE_HOP_ROUTES))
    def test_single_hop_routes_collapsed(self, route, n):
        """Every collapsible single-hop batch runs collapsed, at small n
        too, with the serial records."""
        simulator, channel = SINGLE_HOP_ROUTES[route]
        task = ParityTask(n)
        executor = _executor(task, ChannelSpec.of(channel, 0.1), simulator)
        runner = AutoRunner(workers=1)
        try:
            batch = runner.run_trials(task, executor, 4, seed=3)
        finally:
            runner.close()
        decision = runner.last_decision
        assert decision["backend"] == "vectorized"
        assert decision["scheme"] == simulator.__name__
        assert decision["n"] == n
        assert runner.last_fallback_reason is None
        assert batch.records == (
            SerialRunner().run_trials(task, executor, 4, seed=3).records
        )

    def test_simulator_subclass_runs_scalar(self):
        """Collapsed forms are keyed by the exact simulator type: a
        subclass may override a step the collapsed form hard-codes."""

        class TweakedRewind(RewindSimulator):
            pass

        task = ParityTask(8)
        executor = _executor(
            task, ChannelSpec.of(SuppressionNoiseChannel, 0.1), TweakedRewind
        )
        with AutoRunner(workers=1) as runner:
            runner.run_trials(task, executor, 2, seed=3)
            decision = runner.last_decision
        assert decision["backend"] == "serial"
        assert "no collapsed form for TweakedRewind" in decision["reason"]

    def test_stale_single_hop_row_is_ignored(self):
        """A per-machine table calibrated before single-hop batches always
        collapsed may still hold their rows; the planner does not read
        them."""
        task, executor = _rewind_executor(8)
        table = {"schemes": {"RewindSimulator": {"vectorized_min_n": 64}}}
        with AutoRunner(workers=1, crossover=table) as runner:
            runner.run_trials(task, executor, 4, seed=3)
            assert runner.last_decision["backend"] == "vectorized"

    def test_chunk_large_n_dispatches_vectorized(self):
        task, executor = _chunk_executor(32)
        runner = AutoRunner(workers=1)
        try:
            batch = runner.run_trials(task, executor, 4, seed=3)
            assert runner.last_decision["backend"] == "vectorized"
            assert runner.last_fallback_reason is None
            assert batch.records == (
                SerialRunner().run_trials(task, executor, 4, seed=3).records
            )
        finally:
            runner.close()

    def test_workers_compose_to_vectorized_process(self):
        task, executor = _chunk_executor(32)
        runner = AutoRunner(workers=2)
        try:
            batch = runner.run_trials(task, executor, 8, seed=3)
            assert (
                runner.last_decision["backend"] == "vectorized-process"
            )
            assert batch.records == (
                SerialRunner().run_trials(task, executor, 8, seed=3).records
            )
        finally:
            runner.close()

    def test_uncollapsible_with_workers_goes_process(self):
        task = ParityTask(8)
        executor = _executor(
            task,
            ChannelSpec.of(SharedFlipReductionChannel),
            RepetitionSimulator,
        )
        runner = AutoRunner(workers=2)
        try:
            runner.run_trials(task, executor, 8, seed=3)
            assert runner.last_decision["backend"] == "process"
            assert "no collapsed replay" in runner.last_decision["reason"]
        finally:
            runner.close()

    def test_tiny_batch_avoids_pool(self):
        task = ParityTask(8)
        executor = _executor(
            task,
            ChannelSpec.of(SharedFlipReductionChannel),
            RepetitionSimulator,
        )
        trials = AutoRunner.DEFAULT_PROCESS_MIN_TRIALS - 1
        runner = AutoRunner(workers=4)
        try:
            runner.run_trials(task, executor, trials, seed=3)
            assert runner.last_decision["backend"] == "serial"
            assert "below pool threshold" in runner.last_decision["reason"]
        finally:
            runner.close()

    def test_chunk_under_independent_noise_raises_on_every_backend(self):
        """The collapsed chunk scheme keeps the scalar scheme's
        requires-a-correlated-channel error, whichever backend runs."""
        task = ParityTask(4)
        executor = _executor(
            task,
            ChannelSpec.of(IndependentNoiseChannel, 0.15),
            ChunkCommitSimulator,
        )
        errors = {}
        for backend in RUNNER_BACKENDS:
            runner = make_runner(2, backend=backend)
            try:
                runner.run_trials(task, executor, 8, seed=3)
            except Exception as exc:  # noqa: BLE001 - parity is the assertion
                errors[backend] = (type(exc), str(exc))
            finally:
                runner.close()
        assert set(errors) == set(RUNNER_BACKENDS)
        assert len(set(errors.values())) == 1
        kind, message = errors["serial"]
        assert kind is ConfigurationError
        assert "requires a correlated channel" in message

    def test_injected_crossover_overrides(self):
        task, executor = _neighbor_or_point(16)
        table = {"schemes": {"NeighborORTask": {"vectorized_min_n": 1 << 20}}}
        with AutoRunner(workers=1, crossover=table) as runner:
            runner.run_trials(task, executor, 4, seed=3)
            decision = runner.last_decision
        assert decision["backend"] == "serial"
        assert decision["scheme"] == "NeighborORTask"
        assert "below measured vectorized crossover" in decision["reason"]

    def test_sub_runners_are_cached(self):
        task, executor = _chunk_executor(32)
        runner = AutoRunner(workers=1)
        try:
            runner.run_trials(task, executor, 2, seed=1)
            first = runner._runners["vectorized"]
            runner.run_trials(task, executor, 2, seed=2)
            assert runner._runners["vectorized"] is first
        finally:
            runner.close()


class TestPlannerObservability:
    def test_backend_selected_event(self):
        from repro.observe import MetricsCollector, Observer

        task, executor = _chunk_executor(32)
        collector = MetricsCollector()
        runner = AutoRunner(workers=1)
        try:
            with Observer([collector]) as observer:
                runner.run_trials(
                    task, executor, 3, seed=7, observe=observer
                )
        finally:
            runner.close()
        events = collector.events_of("backend_selected")
        assert len(events) == 1
        event = events[0]
        assert event["backend"] == "vectorized"
        assert event["scheme"] == "ChunkCommitSimulator"
        assert event["n"] == 32
        assert event["trials"] == 3
        assert event["fallback_reason"] is None
        assert "collapsible single-hop ChunkCommitSimulator" in event["reason"]

    def test_summary_sink_breaks_out_backends(self):
        from repro.observe import SummarySink

        sink = SummarySink()
        sink.handle(
            {"event": "backend_selected", "backend": "vectorized"}
        )
        sink.handle(
            {"event": "backend_selected", "backend": "serial"}
        )
        sink.handle(
            {"event": "backend_selected", "backend": "vectorized"}
        )
        rendered = sink.render()
        assert "backend=vectorized" in rendered
        assert "x2" in rendered
        assert "backend=serial" in rendered

    def test_tracing_does_not_perturb(self):
        from repro.observe import MetricsCollector, Observer

        task, executor = _chunk_executor(32)
        plain_runner = AutoRunner(workers=1)
        traced_runner = AutoRunner(workers=1)
        collector = MetricsCollector()
        try:
            plain = plain_runner.run_trials(task, executor, 4, seed=11)
            with Observer([collector]) as observer:
                traced = traced_runner.run_trials(
                    task, executor, 4, seed=11, observe=observer
                )
        finally:
            plain_runner.close()
            traced_runner.close()
        assert plain.records == traced.records


class TestBudgetedTrials:
    def test_trials_for_budget_clamps(self):
        from repro.parallel.calibrate import trials_for_budget

        assert trials_for_budget(0.01, 1.0) == 100
        assert trials_for_budget(10.0, 1.0) == 2  # floor
        assert trials_for_budget(1e-12, 1.0) == 512  # ceiling
        assert trials_for_budget(0.01, 0.0) == 2
        assert (
            trials_for_budget(0.001, 1.0, min_trials=5, max_trials=50)
            == 50
        )
