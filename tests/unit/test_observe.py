"""The observability layer's two hard guarantees, plus sink mechanics.

* **Disabled is free** — ``observe=None`` and :data:`NO_OBSERVER` change
  nothing and record nothing.
* **Tracing never perturbs** — traced and untraced executions are bitwise
  identical (transcripts, outputs, SweepPoints), across every layer:
  engine, simulators, trial runners, sweeps.

Plus the event schema: each instrumented layer emits the events
documented in :mod:`repro.observe`, with internally consistent fields.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis.sweep import SweepSpec, run_sweep_point
from repro.channels import (
    CorrelatedNoiseChannel,
    NoiselessChannel,
    SuppressionNoiseChannel,
)
from repro.core import run_protocol
from repro.observe import (
    JsonlSink,
    MetricsCollector,
    NO_OBSERVER,
    NullObserver,
    Observer,
    SummarySink,
    read_jsonl,
)
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import InputSetTask, ParityTask


def _sample(task, seed=0):
    import random

    return task.sample_inputs(random.Random(seed))


def _run_traced(task, channel_factory, simulator=None, seed=11):
    collector = MetricsCollector()
    observer = Observer([collector])
    inputs = _sample(task)
    if simulator is None:
        result = run_protocol(
            task.noiseless_protocol(),
            inputs,
            channel_factory(seed),
            observe=observer,
        )
    else:
        result = simulator.simulate(
            task.noiseless_protocol(),
            inputs,
            channel_factory(seed),
            observe=observer,
        )
    return result, collector


class TestObserverMechanics:
    def test_emit_builds_record_with_event_key(self):
        collector = MetricsCollector()
        Observer([collector]).emit("ping", value=3)
        assert collector.events == [{"event": "ping", "value": 3}]

    def test_disabled_observer_emits_nothing(self):
        collector = MetricsCollector()
        observer = Observer([collector])
        observer.enabled = False
        observer.emit("ping")
        assert collector.events == []

    def test_null_observer_is_disabled_and_silent(self):
        assert NO_OBSERVER.enabled is False
        assert isinstance(NO_OBSERVER, NullObserver)
        NO_OBSERVER.emit("ping", x=1)  # hard no-op even if called

    def test_context_manager_closes_sinks(self):
        stream = io.StringIO()
        with Observer([SummarySink(stream)]) as observer:
            observer.emit("ping")
        assert "ping" in stream.getvalue()

    def test_collector_counters_and_accessors(self):
        collector = MetricsCollector()
        observer = Observer([collector])
        observer.emit("chunk", committed=True, rounds=5)
        observer.emit("chunk", committed=False, rounds=7)
        assert collector.count("chunk") == 2
        assert collector.total("chunk", "rounds") == 12
        assert collector.total("chunk", "committed") == 1  # bools count
        assert len(collector.events_of("chunk")) == 2
        collector.clear()
        assert collector.count("chunk") == 0


class TestSinkRoundTrip:
    def test_jsonl_stream_round_trips_into_collector(self):
        stream = io.StringIO()
        direct = MetricsCollector()
        with Observer([JsonlSink(stream), direct]) as observer:
            observer.emit("alpha", n=4, rate=0.5, label="x")
            observer.emit("beta", flag=True)
        replayed = MetricsCollector()
        for record in read_jsonl(io.StringIO(stream.getvalue())):
            replayed.handle(record)
        # JSON maps True -> true -> True; events and counters survive.
        assert replayed.events == direct.events
        assert replayed.counters == direct.counters

    def test_jsonl_path_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Observer([JsonlSink(str(path))]) as observer:
            observer.emit("alpha", n=1)
            observer.emit("alpha", n=2)
        with open(path, encoding="utf-8") as handle:
            records = read_jsonl(handle)
        assert [record["n"] for record in records] == [1, 2]
        assert all(record["event"] == "alpha" for record in records)

    def test_jsonl_lines_are_valid_json(self):
        stream = io.StringIO()
        with Observer([JsonlSink(stream)]) as observer:
            observer.emit("alpha", nested_ok={"a": 1})
        for line in stream.getvalue().splitlines():
            json.loads(line)

    def test_summary_sink_renders_counts(self):
        sink = SummarySink(io.StringIO())
        sink.handle({"event": "chunk", "rounds": 4})
        sink.handle({"event": "chunk", "rounds": 6})
        rendered = sink.render()
        assert "chunk" in rendered and "x2" in rendered
        assert "rounds" in rendered


class TestJsonlSinkLongRunning:
    """The long-running-producer contract: append mode, flush-on-event,
    context-manager close — a live ``repro sweep status`` must be able
    to tail the file without ever seeing a truncated JSON line."""

    def test_append_mode_preserves_existing_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.handle({"event": "before", "run": 1})
        # A resumed run reopens the same file; append keeps history.
        with JsonlSink(str(path), append=True) as sink:
            sink.handle({"event": "after", "run": 2})
        with open(path, encoding="utf-8") as handle:
            events = [record["event"] for record in read_jsonl(handle)]
        assert events == ["before", "after"]

    def test_truncate_mode_still_default(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for run in (1, 2):
            with JsonlSink(str(path)) as sink:
                sink.handle({"event": "only", "run": run})
        with open(path, encoding="utf-8") as handle:
            records = read_jsonl(handle)
        assert [record["run"] for record in records] == [2]

    def test_flush_on_event_is_tailable_mid_run(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), append=True, flush=True)
        try:
            for index in range(3):
                sink.handle({"event": "tick", "index": index})
                # Read back *without* closing the writer: every line on
                # disk is complete JSON at every instant.
                with open(path, encoding="utf-8") as handle:
                    records = read_jsonl(handle)
                assert [record["index"] for record in records] == list(
                    range(index + 1)
                )
        finally:
            sink.close()

    def test_sink_is_a_context_manager(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.handle({"event": "x"})
        # close() ran on exit: the stream is released and reusable state
        # reset, so a fresh append-mode open sees the flushed line.
        with open(path, encoding="utf-8") as handle:
            assert len(read_jsonl(handle)) == 1

    def test_close_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.jsonl"))
        sink.handle({"event": "x"})
        sink.close()
        sink.close()


class TestEngineEvents:
    def test_protocol_run_summary_matches_result(self):
        task = ParityTask(4)
        result, collector = _run_traced(
            task, lambda seed: CorrelatedNoiseChannel(0.2, rng=seed)
        )
        (summary,) = collector.events_of("protocol_run")
        assert summary["rounds"] == result.rounds
        assert summary["n_parties"] == 4
        assert summary["flips_up"] == result.channel_stats.flips_up
        assert summary["flips_down"] == result.channel_stats.flips_down
        assert summary["total_energy"] == result.total_energy
        assert summary["elapsed_s"] >= 0.0

    def test_noise_flip_events_match_transcript(self):
        task = ParityTask(4)
        result, collector = _run_traced(
            task, lambda seed: CorrelatedNoiseChannel(0.4, rng=seed)
        )
        flips = collector.events_of("noise_flip")
        assert len(flips) == result.transcript.noisy_count
        assert [event["round"] for event in flips] == list(
            result.transcript.noise_positions()
        )
        for event in flips:
            expected = "down" if event["or_value"] else "up"
            assert event["direction"] == expected

    def test_noiseless_run_emits_no_flip_events(self):
        task = ParityTask(4)
        _, collector = _run_traced(task, lambda seed: NoiselessChannel())
        assert collector.count("noise_flip") == 0
        assert collector.count("protocol_run") == 1


class TestSimulatorEvents:
    def test_chunk_simulator_emits_attempts_and_owners(self):
        task = InputSetTask(6)
        result, collector = _run_traced(
            task,
            lambda seed: CorrelatedNoiseChannel(0.05, rng=seed),
            simulator=ChunkCommitSimulator(),
        )
        report = result.metadata["report"]
        assert collector.count("chunk_attempt") == report.chunk_attempts
        assert collector.count("owners_phase") == report.chunk_attempts
        committed = [
            event
            for event in collector.events_of("chunk_attempt")
            if event["committed"]
        ]
        assert len(committed) == report.chunk_commits
        (summary,) = collector.events_of("simulation")
        assert summary["scheme"] == "ChunkCommitSimulator"
        assert summary["simulated_rounds"] == result.rounds
        for event in collector.events_of("owners_phase"):
            assert event["owners_assigned"] <= event["ones"]
            assert event["unowned_ones"] >= 0

    def test_rewind_simulator_emits_rewind_events(self):
        task = ParityTask(4)
        result, collector = _run_traced(
            task,
            lambda seed: SuppressionNoiseChannel(0.3, rng=seed),
            simulator=RewindSimulator(),
            seed=1,
        )
        report = result.metadata["report"]
        assert collector.count("rewind") == report.rewinds
        assert report.rewinds > 0, "seed should produce at least one rewind"
        for event in collector.events_of("rewind"):
            assert event["position"] >= 0

    def test_hierarchical_simulator_emits_progress_checks(self):
        task = InputSetTask(6)
        result, collector = _run_traced(
            task,
            lambda seed: CorrelatedNoiseChannel(0.05, rng=seed),
            simulator=HierarchicalSimulator(),
        )
        report = result.metadata["report"]
        checks = collector.events_of("progress_check")
        assert len(checks) == report.extra["progress_checks"]
        truncated = sum(event["truncated"] for event in checks)
        assert truncated == report.rewinds
        leaves = collector.events_of("chunk_attempt")
        # Idle leaves emit nothing; non-idle ones each have an owners phase.
        assert len(leaves) == collector.count("owners_phase")
        assert len(leaves) <= report.chunk_attempts

    def test_repetition_simulator_emits_summary(self):
        task = ParityTask(4)
        result, collector = _run_traced(
            task,
            lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
            simulator=RepetitionSimulator(),
        )
        (summary,) = collector.events_of("simulation")
        assert summary["scheme"] == "RepetitionSimulator"
        assert summary["simulated_rounds"] == result.rounds


class TestRunnerEvents:
    def _executor(self, task):
        return SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.05),
            simulator=SimulatorSpec.of(ChunkCommitSimulator),
        )

    def test_serial_runner_emits_trial_and_batch_events(self):
        task = InputSetTask(4)
        collector = MetricsCollector()
        batch = SerialRunner().run_trials(
            task, self._executor(task), 4, seed=2,
            observe=Observer([collector]),
        )
        trials = collector.events_of("trial")
        assert [event["index"] for event in trials] == [0, 1, 2, 3]
        for event, record in zip(trials, batch.records):
            assert event["success"] == record.success
            assert event["rounds"] == record.rounds
            assert event["flips"] == record.flips
            assert event["elapsed_s"] > 0.0
        (summary,) = collector.events_of("sweep_batch")
        totals = batch.aggregate_channel_stats()
        assert summary["trials"] == 4
        assert summary["channel_rounds"] == totals.rounds
        assert summary["flips_up"] == totals.flips_up
        assert summary["parallel"] is False

    def test_pool_runner_emits_worker_chunks(self):
        task = InputSetTask(4)
        collector = MetricsCollector()
        with ProcessPoolRunner(workers=2, chunk_size=2) as runner:
            batch = runner.run_trials(
                task, self._executor(task), 4, seed=2,
                observe=Observer([collector]),
            )
        if batch.timing["parallel"]:
            chunks = collector.events_of("worker_chunk")
            assert sum(event["trials"] for event in chunks) == 4
            (summary,) = collector.events_of("sweep_batch")
            assert summary["parallel"] is True
        # Fallback environments still emit trial + batch events.
        assert collector.count("trial") == 4
        assert collector.count("sweep_batch") == 1


class TestTracingNeverPerturbs:
    """Traced and untraced runs are bitwise identical."""

    def test_engine_transcript_identical(self):
        task = ParityTask(4)
        inputs = _sample(task)
        untraced = run_protocol(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.2, rng=13),
        )
        traced = run_protocol(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.2, rng=13),
            observe=Observer([MetricsCollector()]),
        )
        assert traced.transcript.or_values() == untraced.transcript.or_values()
        assert traced.transcript.common_view() == untraced.transcript.common_view()
        assert traced.outputs == untraced.outputs
        assert traced.channel_stats.snapshot() == untraced.channel_stats.snapshot()

    @pytest.mark.parametrize(
        "simulator_factory",
        [
            ChunkCommitSimulator,
            HierarchicalSimulator,
            RepetitionSimulator,
        ],
    )
    def test_simulator_transcript_identical(self, simulator_factory):
        task = InputSetTask(6)
        inputs = _sample(task)
        untraced = simulator_factory().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.08, rng=21),
        )
        traced = simulator_factory().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.08, rng=21),
            observe=Observer([MetricsCollector()]),
        )
        assert traced.rounds == untraced.rounds
        assert traced.outputs == untraced.outputs
        assert (
            traced.transcript.or_values() == untraced.transcript.or_values()
        )

    def test_rewind_transcript_identical(self):
        task = ParityTask(4)
        inputs = _sample(task)
        untraced = RewindSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            SuppressionNoiseChannel(0.3, rng=5),
        )
        traced = RewindSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            SuppressionNoiseChannel(0.3, rng=5),
            observe=Observer([MetricsCollector()]),
        )
        assert traced.rounds == untraced.rounds
        assert (
            traced.transcript.or_values() == untraced.transcript.or_values()
        )

    @pytest.mark.parametrize(
        "simulator_factory",
        [
            ChunkCommitSimulator,
            HierarchicalSimulator,
            RepetitionSimulator,
            RewindSimulator,
        ],
    )
    def test_traced_tokens_match_untraced_desugared(self, simulator_factory):
        # Crossing both equivalence axes at once: a traced run with the
        # primitives' batch tokens must equal an untraced run with the
        # desugared per-round primitives.
        from repro.simulation.primitives import batch_tokens

        task = ParityTask(4)
        inputs = _sample(task)
        traced_tokens = simulator_factory().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.08, rng=77),
            observe=Observer([MetricsCollector()]),
        )
        with batch_tokens(False):
            untraced_plain = simulator_factory().simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(0.08, rng=77),
            )
        assert traced_tokens.rounds == untraced_plain.rounds
        assert traced_tokens.outputs == untraced_plain.outputs
        assert traced_tokens.beeps_per_party == untraced_plain.beeps_per_party
        assert (
            traced_tokens.transcript.or_values()
            == untraced_plain.transcript.or_values()
        )
        assert (
            traced_tokens.transcript.common_view()
            == untraced_plain.transcript.common_view()
        )
        assert traced_tokens.channel_stats == untraced_plain.channel_stats

    def test_sweep_points_identical_across_tracing_and_backends(self):
        task = InputSetTask(4)
        executor = ProtocolExecutor(
            task=task, channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
        )
        baseline = run_sweep_point(task, executor, SweepSpec(6, 9))
        traced_serial = run_sweep_point(
            task,
            executor,
            SweepSpec(6, 9, observe=Observer([MetricsCollector()])),
        )
        with ProcessPoolRunner(workers=2) as runner:
            traced_pool = run_sweep_point(
                task,
                executor,
                SweepSpec(
                    trials=6,
                    seed=9,
                    runner=runner,
                    observe=Observer([MetricsCollector()]),
                ),
            )
        assert traced_serial.to_dict() == baseline.to_dict()
        assert traced_pool.to_dict() == baseline.to_dict()

    def test_disabled_observer_collects_nothing_through_stack(self):
        task = InputSetTask(4)
        executor = ProtocolExecutor(
            task=task, channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
        )
        collector = MetricsCollector()
        observer = Observer([collector])
        observer.enabled = False
        point = run_sweep_point(
            task, executor, SweepSpec(3, 9, observe=observer)
        )
        assert collector.events == []
        assert point.to_dict() == run_sweep_point(
            task, executor, SweepSpec(3, 9)
        ).to_dict()
