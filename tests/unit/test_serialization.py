"""Unit tests for the JSON-serialisable report views."""

import json

import pytest

from repro.analysis import SweepSpec, run_sweep_point
from repro.channels import NoiselessChannel
from repro.core import run_protocol
from repro.errors import ConfigurationError
from repro.simulation import ChunkCommitSimulator, SimulationReport
from repro.tasks import OrTask
from repro.vectorized import simulate_chunked


class TestSimulationReportToDict:
    def test_round_trips_through_json(self):
        report = SimulationReport(
            scheme="Test",
            inner_length=10,
            simulated_rounds=40,
            completed=True,
            chunk_attempts=3,
            chunk_commits=2,
            rewinds=1,
            extra={"repetitions": 5},
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["scheme"] == "Test"
        assert payload["overhead"] == 4.0
        assert payload["extra"]["repetitions"] == 5

    def test_zero_length_overhead(self):
        report = SimulationReport(scheme="Test", inner_length=0)
        assert report.to_dict()["overhead"] == 0.0

    def test_extra_is_copied(self):
        extra = {"a": 1}
        report = SimulationReport(
            scheme="Test", inner_length=1, extra=extra
        )
        payload = report.to_dict()
        payload["extra"]["a"] = 2
        assert extra["a"] == 1


class TestExecutionResultToDict:
    def test_collapsed_result_has_no_transcript_to_include(self):
        task = OrTask(2)
        result = simulate_chunked(
            ChunkCommitSimulator(),
            task.noiseless_protocol(),
            [0, 1],
            NoiselessChannel(),
        )
        assert result.transcript is None
        with pytest.raises(ConfigurationError, match="no transcript"):
            result.to_dict(include_transcript=True)


class TestSweepPointToDict:
    def test_serialisable(self):
        task = OrTask(2)

        def executor(inputs, trial_seed):
            return run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )

        point = run_sweep_point(task, executor, SweepSpec(4), params={"n": 2})
        payload = json.loads(json.dumps(point.to_dict()))
        assert payload["params"] == {"n": 2}
        assert payload["success"] == 1.0
        assert payload["trials"] == 4
        assert payload["success_interval"][0] <= 1.0
