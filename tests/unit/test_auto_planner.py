"""The calibrated ``auto`` planner: routing, pins, and determinism.

The planner's contract: pick a backend per batch from the *measured*
crossover table, never change a result.  The small-``n`` regression pin
is the load-bearing test here — the rewind collapse loses to the scalar
engine at ``n = 8`` (measured, recorded in the shipped
``crossover.json``), so ``backend=auto`` must dispatch it scalar even
though a collapsed form exists.
"""

from __future__ import annotations

import json

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.errors import ConfigurationError
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
from repro.simulation import (
    ChunkCommitSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import ParityTask

from repro.vectorized import VectorizedProcessRunner, VectorizedRunner


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
            assert isinstance(runner, VectorizedProcessRunner)
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
        table = load_crossover(DEFAULT_CROSSOVER_PATH)
        schemes = table["schemes"]
        for scheme in (
            "ChunkCommitSimulator",
            "RewindSimulator",
            "RepetitionSimulator",
            "RepetitionSimulator@independent",
            "HierarchicalSimulator",
        ):
            entry = schemes[scheme]
            assert entry["vectorized_min_n"] >= 1
            assert entry["measured"], scheme
        # The regression that motivated the planner: rewind's collapse
        # loses below n=16 on the calibrating machine.
        assert schemes["RewindSimulator"]["vectorized_min_n"] > 8

    def test_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "crossover.json"
        override.write_text(json.dumps({"default_vectorized_min_n": 999}))
        monkeypatch.setenv("REPRO_CROSSOVER", str(override))
        _reset_crossover_cache()
        try:
            assert load_crossover()["default_vectorized_min_n"] == 999
        finally:
            _reset_crossover_cache()

    def test_unreadable_table_degrades_to_defaults(self, tmp_path):
        _reset_crossover_cache()
        try:
            assert load_crossover(str(tmp_path / "missing.json")) == {}
        finally:
            _reset_crossover_cache()


class TestPlannerDecisions:
    def test_rewind_n8_dispatches_scalar(self):
        """THE small-n pin: collapsed rewind exists but measured slower
        at n=8, so auto must not select it."""
        task, executor = _rewind_executor(8)
        runner = AutoRunner(workers=1)
        try:
            batch = runner.run_trials(task, executor, 4, seed=3)
        finally:
            runner.close()
        decision = runner.last_decision
        assert decision["backend"] == "serial"
        assert "below measured vectorized crossover" in decision["reason"]
        assert decision["scheme"] == "RewindSimulator"
        assert decision["n"] == 8
        assert batch.records == (
            SerialRunner().run_trials(task, executor, 4, seed=3).records
        )

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
        runner = AutoRunner(
            workers=4, crossover={"process_min_trials": 100}
        )
        try:
            runner.run_trials(task, executor, 4, seed=3)
            assert runner.last_decision["backend"] == "serial"
            assert "below pool threshold" in runner.last_decision["reason"]
        finally:
            runner.close()

    def test_independent_repetition_n8_dispatches_vectorized(self):
        """Per-party repetition has its own measured row, and collapses
        at n=8 where correlated repetition still routes scalar."""
        task = ParityTask(8)
        executor = _executor(
            task,
            ChannelSpec.of(IndependentNoiseChannel, 0.15),
            RepetitionSimulator,
        )
        runner = AutoRunner(workers=1)
        try:
            batch = runner.run_trials(task, executor, 4, seed=3)
        finally:
            runner.close()
        decision = runner.last_decision
        assert decision["scheme"] == "RepetitionSimulator@independent"
        assert decision["backend"] == "vectorized"
        assert runner.last_fallback_reason is None
        assert batch.records == (
            SerialRunner().run_trials(task, executor, 4, seed=3).records
        )

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
        task, executor = _chunk_executor(32)
        table = {
            "schemes": {"ChunkCommitSimulator": {"vectorized_min_n": 64}}
        }
        runner = AutoRunner(workers=1, crossover=table)
        try:
            runner.run_trials(task, executor, 4, seed=3)
            assert runner.last_decision["backend"] == "serial"
        finally:
            runner.close()

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
        assert "crossover" in event["reason"]

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
