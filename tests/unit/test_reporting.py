"""Unit tests for report generation and the new CLI commands."""

import pytest

from repro.analysis import generate_report
from repro.cli import main
from repro.errors import ConfigurationError


class TestGenerateReport:
    def test_restricted_report_structure(self):
        report = generate_report(scale=0.3, only=["E5"])
        assert "# Noisy Beeps — experiment report" in report
        assert "## Summary" in report
        assert "## E5 —" in report
        assert "- [x]" in report  # passing checks rendered

    def test_progress_callback(self):
        seen = []
        generate_report(scale=0.3, only=["E5"], progress=seen.append)
        assert seen == ["E5"]

    def test_ids_sorted_numerically(self):
        report = generate_report(scale=0.3, only=["E12", "E5"])
        assert report.index("## E5 —") < report.index("## E12 —")

    def test_unknown_id_raises_before_running_anything(self):
        seen = []
        with pytest.raises(ConfigurationError, match="known: E1, E2"):
            generate_report(only=["E5", "E99"], progress=seen.append)
        assert seen == []

    def test_auto_backend_matches_serial(self, monkeypatch):
        """The planner changes how fast the sweeps run, never the report."""
        from repro.parallel.planner import AutoRunner

        backends = []
        plan = AutoRunner._plan

        def recording_plan(self, *args):
            decision = plan(self, *args)
            backends.append(decision[0])
            return decision

        monkeypatch.setattr(AutoRunner, "_plan", recording_plan)
        only = ["E1", "E3", "E8", "E9", "E10", "E13"]
        serial = generate_report(
            seed=3, scale=0.5, only=only, backend="serial"
        )
        assert backends == []
        auto = generate_report(seed=3, scale=0.5, only=only, backend="auto")
        assert auto == serial
        # Both routes were taken: collapsed chunk-commit points, and the
        # burst / independent-noise / small-n repetition points serially.
        assert {"vectorized", "serial"} <= set(backends)


class TestCliRunExperiment:
    def test_pass_exit_code(self, capsys):
        code = main(["run-experiment", "E5", "--scale", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(ConfigurationError):
            main(["run-experiment", "E99"])

    def test_backend_forwarded(self, monkeypatch, capsys):
        import repro.experiments

        calls = []

        def fake_run_experiment(experiment_id, **kwargs):
            calls.append((experiment_id, kwargs))
            return repro.experiments.ExperimentResult(
                experiment_id="E7", title="stub", table=""
            )

        monkeypatch.setattr(
            repro.experiments, "run_experiment", fake_run_experiment
        )
        assert main(["run-experiment", "E7", "--backend", "serial"]) == 0
        assert calls[0][0] == "E7"
        assert calls[0][1]["backend"] == "serial"
        main(["run-experiment", "E7"])
        assert calls[1][1]["backend"] == "auto"


class TestCliReport:
    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--only",
                "E5",
                "--scale",
                "0.3",
                "-o",
                str(target),
            ]
        )
        assert code == 0
        content = target.read_text()
        assert "## E5 —" in content

    def test_backend_forwarded(self, monkeypatch, capsys):
        import repro.analysis.reporting

        calls = []

        def fake_generate_report(**kwargs):
            calls.append(kwargs)
            return "stub report"

        monkeypatch.setattr(
            repro.analysis.reporting, "generate_report", fake_generate_report
        )
        assert main(["report", "--backend", "serial"]) == 0
        assert calls[0]["backend"] == "serial"
        main(["report"])
        assert calls[1]["backend"] == "auto"

    def test_report_to_stdout(self, capsys):
        code = main(["report", "--only", "E12", "--scale", "0.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "## E12 —" in out
