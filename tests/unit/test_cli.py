"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        # Scenario flags parse as None sentinels (the defaults depend on
        # --topology); _resolve_scenario's grid fills the historical
        # single-hop defaults when no topology is given.
        from repro.cli import _resolve_scenario

        args = build_parser().parse_args(["demo"])
        assert args.task is None
        assert args.simulator is None
        assert args.epsilon == 0.1
        grid, task, _executor, params = _resolve_scenario(args)
        assert grid.task == "input-set"
        assert grid.channel == "correlated"
        assert grid.simulator == "chunk"
        assert grid.topology is None
        assert grid.ns == (8,)
        assert (grid.trials, grid.seed) == (10, 0)
        assert params == {"n": 8, "epsilon": 0.1}
        assert task.n_parties == 8

    def test_demo_topology_defaults(self):
        from repro.cli import _resolve_scenario

        args = build_parser().parse_args(["demo", "--topology", "grid:4x4"])
        grid, task, _executor, params = _resolve_scenario(args)
        assert grid.task == "mis"
        assert grid.channel == "independent"
        assert grid.simulator == "local-broadcast"
        assert grid.topology.label() == "grid:cols=4,rows=4"
        assert grid.ns == (16,)
        assert params["topology"] == "grid:cols=4,rows=4"
        assert task.n_parties == 16

    def test_overhead_ns_list(self):
        args = build_parser().parse_args(["overhead", "--ns", "4", "8"])
        assert args.ns == [4, 8]

    def test_unknown_simulator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--simulator", "bogus"])


class TestRunConfiguration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--workers", "0", "--backend", "process"],
            ["demo", "--workers", "-3"],
            ["demo", "--trials", "0"],
            ["overhead", "--trials", "-1"],
            ["report", "--workers", "0"],
            ["sweep", "run", "--workers", "0"],
            ["sweep", "status", "--trials", "0"],
            ["demo", "--n", "0"],
            ["trace", "--n", "-2"],
            ["overhead", "--ns", "0"],
            ["overhead", "--ns", "4", "-1"],
            ["sweep", "run", "--ns", "0"],
        ],
        ids=" ".join,
    )
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "--epsilon", "1.5"],
            ["demo", "--epsilon", "-0.1"],
            ["trace", "--epsilon", "1"],
            ["overhead", "--epsilon", "nan"],
            ["sweep", "run", "--epsilon", "1.5"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_epsilon_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "must be in [0, 1)" in err


class TestConfigurationErrorsAreUsageErrors:
    """A flag combination that only fails once the scenario is resolved
    (a size a pinned topology rejects, a network-only name without a
    topology, a bad shard or scale) exits 2 with a usage line, like a
    flag that fails to parse."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-experiment", "E1", "--scale", "0"],
            ["run-experiment", "E99"],
            ["report", "--only", "E1", "--scale", "-1"],
            ["demo", "--topology", "grid:4x4", "--n", "9"],
            ["overhead", "--topology", "grid:4x4", "--ns", "9"],
            ["demo", "--simulator", "local-broadcast"],
            ["trace", "--task", "mis"],
            ["sweep", "run", "--shard", "5/3"],
            ["sweep", "status", "--task", "mis"],
        ],
        ids=" ".join,
    )
    def test_exit_2_with_usage_line(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # the sweep verbs' default cache dir
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # The usage line is the subcommand's own, not the root parser's.
        command = " ".join(argv[:2] if argv[0] == "sweep" else argv[:1])
        assert err.startswith(f"usage: repro {command} ")
        assert "Traceback" not in err


class TestPinnedOutput:
    """Literal stdout of the scenario commands.  Flags reach the executor
    through one resolver; these pin that resolving them moves no default,
    seed or printed number."""

    CASES = {
        "demo --trials 4": (
            "task=input-set n=8 channel=correlated epsilon=0.1 "
            "simulator=chunk\n"
            "success: 4/4   rounds: 1298 (overhead x81.1 vs 16 noiseless)\n"
        ),
        "demo --topology grid:4x4 --trials 3": (
            "task=mis n=16 topology=grid:cols=4,rows=4 channel=independent "
            "epsilon=0.1 simulator=local-broadcast\n"
            "success: 3/3   rounds: 5900 (overhead x59.0 vs 100 noiseless)\n"
        ),
        "demo --task parity --simulator rewind --channel suppression "
        "--trials 3": (
            "task=parity n=8 channel=suppression epsilon=0.1 "
            "simulator=rewind\n"
            "success: 3/3   rounds: 112 (overhead x14.0 vs 8 noiseless)\n"
        ),
        "overhead --ns 4 8 --trials 2": (
            "chunk overhead on InputSet_n (epsilon=0.1)\n"
            "n  noiseless T  overhead  success\n"
            "-  -----------  --------  -------\n"
            "4            8      62.2     1.00\n"
            "8           16      78.6     1.00\n"
            "fit: overhead = 29.5 + 16.4 * log2(n)   R^2 = 1.000\n"
        ),
        "overhead --topology grid --ns 16 --trials 2": (
            "local-broadcast overhead on neighbor-or @ grid (epsilon=0.1)\n"
            "n   noiseless T  overhead  success\n"
            "--  -----------  --------  -------\n"
            "16            1      17.0     1.00\n"
        ),
    }

    @pytest.mark.parametrize("argv", sorted(CASES))
    def test_stdout(self, argv, capsys):
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == self.CASES[argv]


class TestInfo:
    def test_info_prints_summary(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Noisy Beeps" in out
        assert "Theta(log n)" in out


class TestTrace:
    ARGV = ["trace", "--task", "parity", "--n", "4", "--trials", "3"]

    def test_traced_trials_are_the_serial_runner_records(self, tmp_path):
        import json

        from repro.cli import _resolve_scenario, _trace_trials
        from repro.observe import Observer
        from repro.parallel import SerialRunner

        argv = self.ARGV + ["--seed", "11"]
        path = tmp_path / "trace.jsonl"
        assert main(argv + ["-o", str(path)]) == 0
        _, task, executor, _ = _resolve_scenario(
            build_parser().parse_args(argv)
        )
        expected = SerialRunner().run_trials(task, executor, 3, seed=11)
        assert _trace_trials(task, executor, 11, 3, Observer([])) == (
            expected.records
        )
        fields = ("index", "success", "rounds", "flips", "total_energy")
        traced = [
            tuple(event[name] for name in fields)
            for event in map(json.loads, path.read_text().splitlines())
            if event["event"] == "trial"
        ]
        assert traced == [
            tuple(getattr(record, name) for name in fields)
            for record in expected.records
        ]


class TestDemo:
    def test_demo_succeeds_with_simulator(self, capsys):
        code = main(
            [
                "demo",
                "--task",
                "parity",
                "--n",
                "4",
                "--epsilon",
                "0.1",
                "--trials",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "success: 5/5" in out

    def test_demo_raw_over_noise_fails(self, capsys):
        code = main(
            [
                "demo",
                "--task",
                "input-set",
                "--n",
                "6",
                "--simulator",
                "none",
                "--epsilon",
                "0.3",
                "--trials",
                "8",
            ]
        )
        assert code == 1  # unprotected protocol loses most trials

    def test_demo_noiseless_channel(self, capsys):
        code = main(
            [
                "demo",
                "--channel",
                "noiseless",
                "--simulator",
                "none",
                "--n",
                "4",
                "--trials",
                "3",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "task", ["or", "max-id", "bit-exchange", "size-estimate"]
    )
    def test_demo_all_tasks_run(self, task, capsys):
        code = main(
            [
                "demo",
                "--task",
                task,
                "--n",
                "4",
                "--simulator",
                "repetition",
                "--trials",
                "3",
            ]
        )
        assert code in (0, 1)
        assert "success" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "simulator,channel",
        [
            ("hierarchical", "correlated"),
            ("rewind", "suppression"),
        ],
    )
    def test_demo_other_simulators(self, simulator, channel, capsys):
        code = main(
            [
                "demo",
                "--task",
                "parity",
                "--n",
                "4",
                "--simulator",
                simulator,
                "--channel",
                channel,
                "--trials",
                "3",
            ]
        )
        assert code == 0
        assert "success" in capsys.readouterr().out

    def test_demo_on_grid_topology(self, capsys):
        code = main(
            [
                "demo",
                "--topology",
                "grid:4x4",
                "--epsilon",
                "0.05",
                "--trials",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "topology=grid:cols=4,rows=4" in out
        assert "simulator=local-broadcast" in out

    def test_demo_burst_channel(self, capsys):
        code = main(
            [
                "demo",
                "--channel",
                "burst",
                "--task",
                "parity",
                "--n",
                "4",
                "--trials",
                "3",
            ]
        )
        assert code == 0


class TestOverhead:
    def test_overhead_prints_fit(self, capsys):
        code = main(
            [
                "overhead",
                "--ns",
                "4",
                "8",
                "--trials",
                "2",
                "--simulator",
                "repetition",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fit: overhead" in out
        assert "log2(n)" in out

    def test_single_n_skips_fit(self, capsys):
        code = main(
            [
                "overhead",
                "--ns",
                "4",
                "--trials",
                "2",
                "--simulator",
                "repetition",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fit:" not in out


class TestExperiments:
    def test_lists_all_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for identifier in [f"E{i}" for i in range(1, 14)]:
            assert identifier in out
        assert "--benchmark-only" in out


class TestSweepService:
    """The ``repro sweep`` verbs, end to end through ``main``."""

    GRID = [
        "--task",
        "parity",
        "--ns",
        "3",
        "4",
        "--trials",
        "2",
        "--seed",
        "5",
    ]

    def run_verb(self, verb, tmp_path, *extra):
        return main(
            ["sweep", verb, *self.GRID, "--cache-dir", str(tmp_path / "cache")]
            + list(extra)
        )

    def json_out(self, capsys):
        import json

        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    def test_run_then_warm_rerun_all_hits(self, tmp_path, capsys):
        assert self.run_verb("run", tmp_path, "--json") == 0
        cold = self.json_out(capsys)
        assert cold["computed"] == 2 and cold["hits"] == 0

        assert self.run_verb("run", tmp_path, "--json") == 0
        warm = self.json_out(capsys)
        # The acceptance criterion: zero recomputed points on re-run.
        assert warm["computed"] == 0
        assert warm["hits"] == warm["points"] == 2

    def test_resume_is_run_alias(self, tmp_path, capsys):
        assert self.run_verb("run", tmp_path, "--json") == 0
        self.json_out(capsys)
        assert self.run_verb("resume", tmp_path, "--json") == 0
        assert self.json_out(capsys)["computed"] == 0

    def test_status_incomplete_then_complete(self, tmp_path, capsys):
        assert self.run_verb("run", tmp_path, "--shard", "0/2", "--json") == 0
        self.json_out(capsys)
        assert self.run_verb("status", tmp_path, "--json") == 1
        partial = self.json_out(capsys)
        assert partial["done"] == 1 and partial["missing"] == [1]

        assert self.run_verb("run", tmp_path, "--shard", "1/2", "--json") == 0
        self.json_out(capsys)
        assert self.run_verb("status", tmp_path, "--json") == 0
        assert self.json_out(capsys)["done"] == 2

    def test_merge_requires_completeness(self, tmp_path, capsys):
        out_file = str(tmp_path / "merged.json")
        assert self.run_verb("run", tmp_path, "--shard", "0/2", "--json") == 0
        self.json_out(capsys)
        assert self.run_verb("merge", tmp_path, "-o", out_file) == 1
        assert "missing" in capsys.readouterr().err

        assert self.run_verb("run", tmp_path, "--shard", "1/2", "--json") == 0
        self.json_out(capsys)
        assert self.run_verb("merge", tmp_path, "-o", out_file, "--json") == 0
        assert self.json_out(capsys)["points"] == 2

        import json

        with open(out_file, encoding="utf-8") as handle:
            merged = json.load(handle)
        assert len(merged["points"]) == 2
        assert merged["grid"]["task"] == "parity"

    def test_events_stream_and_status_summary(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        assert self.run_verb("run", tmp_path, "--events", events) == 0
        capsys.readouterr()
        code = self.run_verb(
            "status", tmp_path, "--events", events, "--json"
        )
        assert code == 0
        summary = self.json_out(capsys)
        assert summary["events"]["cache_put"] == 2
        assert summary["events"]["trial"] == 4  # 2 points x 2 trials

    def test_gc_drops_unreferenced_objects(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self.run_verb("run", tmp_path, "--json") == 0
        self.json_out(capsys)
        # Remove the manifest: the objects become unreferenced.
        import pathlib

        for manifest in pathlib.Path(cache, "runs").glob("*.json"):
            manifest.unlink()
        assert main(["sweep", "gc", "--cache-dir", cache, "--json"]) == 0
        stats = self.json_out(capsys)
        assert stats["removed"] == 2

    def test_gc_keeps_referenced_objects(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert self.run_verb("run", tmp_path, "--json") == 0
        self.json_out(capsys)
        assert main(["sweep", "gc", "--cache-dir", cache, "--json"]) == 0
        stats = self.json_out(capsys)
        assert stats["removed"] == 0 and stats["kept"] == 2
        # ... and the cached points still serve a warm run.
        assert self.run_verb("run", tmp_path, "--json") == 0
        assert self.json_out(capsys)["computed"] == 0

    def test_bad_shard_spec_rejected(self, tmp_path, capsys):
        for shard in ("2/2", "nope"):
            with pytest.raises(SystemExit) as exit_info:
                self.run_verb("run", tmp_path, "--shard", shard)
            assert exit_info.value.code == 2
            assert "--shard" in capsys.readouterr().err

    def test_network_sweep_caches_and_resumes(self, tmp_path, capsys):
        # A topology sweep goes through the same content-addressed cache:
        # cold run computes, warm re-run is all hits.
        grid = [
            "--topology",
            "grid:4x4",
            "--trials",
            "2",
            "--epsilon",
            "0.05",
            "--seed",
            "5",
        ]
        cache = ["--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(["sweep", "run", *grid, *cache]) == 0
        cold = self.json_out(capsys)
        assert cold["computed"] == 1 and cold["hits"] == 0
        assert main(["sweep", "resume", *grid, *cache]) == 0
        warm = self.json_out(capsys)
        assert warm["computed"] == 0 and warm["hits"] == 1

    def test_output_writes_points(self, tmp_path, capsys):
        out_file = str(tmp_path / "points.json")
        assert self.run_verb("run", tmp_path, "-o", out_file) == 0
        import json

        with open(out_file, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert [p["params"]["n"] for p in payload["points"]] == [3, 4]
