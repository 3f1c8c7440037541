"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — package, model and scheme summary.
* ``demo`` — run one task over a noisy channel with a chosen simulator and
  print what happened (the quickstart, parameterised).
* ``trace`` — the same run with the observability layer attached: emit the
  documented trace events (chunk attempts, rewinds, owner disagreements,
  noise flips) to a JSONL file and/or a terminal summary.
* ``overhead`` — measure the simulation overhead across a sweep of n and
  fit the Θ(log n) curve.
* ``sweep`` — the sweep service: ``run``/``resume`` a grid through the
  content-addressed result cache (checkpointed, kill-safe), ``status``
  a live run, ``merge`` shard runs, ``gc`` the cache
  (see :mod:`repro.service.cli`).
* ``experiments`` — list the benchmark experiments and how to run them.
* ``bench calibrate`` — measure the network scalar↔vectorized crossover
  on this machine and write the table the ``auto`` backend planner
  routes graph batches on.

Every subcommand that runs trials, the sweep service's included, shares
one run-configuration argument group
(:func:`~repro.service.cli.add_common_run_args`:
``--trials/--seed/--workers/--backend``, counts validated as positive)
and gets its runner from :func:`~repro.service.cli.runner_from_args`, so
``--workers N`` behaves identically everywhere and results are bitwise
independent of it.

``demo``, ``trace``, ``overhead`` and the ``sweep`` verbs share one
scenario path: the flags of
:func:`~repro.service.cli.add_scenario_args` (plus each command's own
``--n`` or ``--ns``) resolve through
:func:`~repro.service.cli.scenario_from_args` into a
:class:`~repro.service.grid.SweepGrid`, whose construction checks the
names and the single-hop/network rules, and whose
:meth:`~repro.service.grid.SweepGrid.build_point` builds each task and
picklable executor.  A :class:`~repro.errors.ConfigurationError` raised
after parsing (a flag combination that cannot run) ends in :func:`main`
as a usage error: exit 2 and a ``usage:`` line, no traceback.

Every command is a plain function taking parsed arguments and returning an
exit code, so the CLI is unit-testable without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.analysis.sweep import run_sweep_point
from repro.errors import ConfigurationError

# Every scenario command resolves its flags into a SweepGrid — the record
# the sweep service caches and shards — and runs the grid's points.
from repro.service.cli import (
    add_common_run_args,
    add_scenario_args,
    add_sweep_parser,
    positive_int,
    runner_from_args,
    scenario_from_args,
)
from repro.service.grid import (
    CHANNELS as _CHANNEL_SPECS,
    NETWORK_CHANNELS as _NETWORK_CHANNELS,
    NETWORK_TASKS as _NETWORK_TASKS,
    SIMULATORS as _SIMULATORS,
    TOPOLOGIES as _TOPOLOGIES,
    SweepGrid,
)

__all__ = ["main", "build_parser", "add_common_run_args"]


def cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} — reproduction of 'Noisy Beeps' "
          "(Efremenko, Kol, Saxena; PODC 2020)")
    print()
    print("Model: n-party beeping channel; every round delivers the OR of")
    print("the beeped bits, flipped with probability epsilon (correlated:")
    print("all parties receive the same flip).")
    print()
    print("Channels  :", ", ".join(sorted(_CHANNEL_SPECS)))
    print("Simulators:", ", ".join(sorted(_SIMULATORS)))
    print("Tasks     : input-set, or, parity, max-id, bit-exchange, "
          "size-estimate, pointer-chasing")
    print()
    print("Networks (--topology kind:params, e.g. grid:8x8):")
    print("  Topologies:", ", ".join(sorted(_TOPOLOGIES)))
    print("  Tasks     :", ", ".join(sorted(_NETWORK_TASKS)))
    print("  Channels  :", ", ".join(sorted(_NETWORK_CHANNELS)))
    print()
    print("Headline results: simulation over noise costs Theta(log n) —")
    print("necessary (Theorem 1.1) and sufficient (Theorem 1.2).")
    return 0


def _resolve_scenario(args: argparse.Namespace):
    """The one-point :class:`~repro.service.grid.SweepGrid` ``demo`` and
    ``trace`` run (a single-hop run defaults to ``n = 8``), with the task,
    executor and params of its point."""
    grid = scenario_from_args(
        args, None if args.n is None else [args.n], single_hop_ns=(8,)
    )
    return (grid, *grid.build_point(grid.ns[0]))


def _scenario_line(grid: SweepGrid, task, params: dict) -> str:
    line = f"task={grid.task} n={task.n_parties}"
    if "topology" in params:
        line += f" topology={params['topology']}"
    return (
        line
        + f" channel={grid.channel} epsilon={grid.epsilon}"
        + f" simulator={grid.simulator}"
    )


def cmd_demo(args: argparse.Namespace) -> int:
    grid, task, executor, params = _resolve_scenario(args)
    runner = runner_from_args(args)
    try:
        point = run_sweep_point(task, executor, grid.spec(runner=runner))
    finally:
        runner.close()
    wins = point.success.successes
    overhead = point.mean_overhead
    print(_scenario_line(grid, task, params))
    print(
        f"success: {wins}/{args.trials}   rounds: {point.mean_rounds:.0f} "
        f"(overhead x{overhead:.1f} vs {task.noiseless_length()} noiseless)"
    )
    return 0 if wins > args.trials // 2 else 1


def _trace_trials(task, executor, seed: int, trials: int, observer):
    """Run trials ``0..trials-1`` in-process with ``observer`` attached.

    Each trial goes through :func:`~repro.parallel.runner.run_trial` on
    the runners' default seed pair, so its record is the one any sweep
    backend records for the same ``(seed, index)`` — just with events
    attached.  Emits one ``trial`` event per record; returns the records.
    """
    from repro.parallel import run_trial

    records = []
    for index in range(trials):
        record = run_trial(task, executor, seed, index, observe=observer)
        observer.emit(
            "trial",
            index=index,
            success=record.success,
            rounds=record.rounds,
            flips=record.flips,
            total_energy=record.total_energy,
        )
        records.append(record)
    return records


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.observe import JsonlSink, Observer, SummarySink

    grid, task, executor, params = _resolve_scenario(args)

    sinks = []
    if args.output:
        sinks.append(JsonlSink(args.output))
    if not args.output or args.summary:
        sinks.append(SummarySink())
    observer = Observer(sinks)

    with observer:
        records = _trace_trials(
            task, executor, args.seed, args.trials, observer
        )
    wins = sum(record.success for record in records)
    print(
        f"traced {args.trials} trial(s): "
        + _scenario_line(grid, task, params)
        + f" success={wins}/{args.trials}",
        file=sys.stderr,
    )
    if args.output:
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _with_profile(profile, default_path: str, fn) -> int:
    """Run ``fn`` under :mod:`cProfile` when ``--profile`` was given.

    ``profile`` is ``None`` (flag absent: run plain), ``""`` (bare flag:
    dump to ``default_path``) or an explicit pstats path.  The dump is
    written even when ``fn`` raises, so a hung-then-interrupted run still
    leaves its profile behind; load it with :mod:`pstats` or snakeviz.
    """
    if profile is None:
        return fn()
    import cProfile

    path = profile or default_path
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn)
    finally:
        profiler.dump_stats(path)
        print(f"wrote profile to {path}", file=sys.stderr)


def _add_profile_arg(parser: argparse.ArgumentParser, default_path: str):
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="PSTATS_PATH",
        help="wrap the run in cProfile and write a pstats dump "
        f"(default: {default_path})",
    )


def cmd_overhead(args: argparse.Namespace) -> int:
    return _with_profile(
        args.profile, "profile_overhead.pstats", lambda: _run_overhead(args)
    )


def _run_overhead(args: argparse.Namespace) -> int:
    from repro.analysis import fit_log, format_table

    # The task and channel are fixed.  On a network, one-round
    # neighborhood OR isolates the scheme's overhead, and the independent
    # channel is what local-broadcast calibrates against (per-node flips
    # at rate epsilon); local-broadcast stays the default even at
    # epsilon 0.
    network = args.topology is not None
    fixed = {
        "task": "neighbor-or" if network else "input-set",
        "channel": "independent" if network else "correlated",
        "simulator": args.simulator
        or ("local-broadcast" if network else "chunk"),
    }
    grid = scenario_from_args(
        argparse.Namespace(**{**vars(args), **fixed}),
        args.ns,
        single_hop_ns=(4, 8, 16, 32),
        network_ns=(64, 256),
    )
    subject = (
        f"{grid.task} @ {grid.topology.label()}" if network else "InputSet_n"
    )
    rows = []
    overheads = []
    trials_per_s = []
    runner = runner_from_args(args)
    try:
        for n in grid.ns:
            task, executor, _params = grid.build_point(n)
            # Each point runs on seed + n, not the grid's derived point
            # seed, so the published overhead numbers stay put.
            spec = grid.spec(runner=runner).with_seed(grid.seed + n)
            point = run_sweep_point(task, executor, spec)
            overheads.append(point.mean_overhead)
            trials_per_s.append(point.timing.get("trials_per_s", 0.0))
            rows.append(
                [
                    n,
                    task.noiseless_length(),
                    f"{point.mean_overhead:.1f}",
                    f"{point.success.value:.2f}",
                ]
            )
    finally:
        runner.close()
    print(format_table(
        ["n", "noiseless T", "overhead", "success"],
        rows,
        title=(
            f"{grid.simulator} overhead on {subject} "
            f"(epsilon={grid.epsilon})"
        ),
    ))
    if len(grid.ns) >= 2:
        fit = fit_log(grid.ns, overheads)
        print(
            f"fit: overhead = {fit.intercept:.1f} + "
            f"{fit.slope:.1f} * log2(n)   R^2 = {fit.r_squared:.3f}"
        )
    if args.workers > 1 and trials_per_s:
        print(
            f"runner: {args.workers} workers, "
            f"{sum(trials_per_s) / len(trials_per_s):.1f} trials/s "
            "per grid point"
        )
    return 0


def cmd_bench_calibrate(args: argparse.Namespace) -> int:
    from repro.parallel.calibrate import (
        NETWORK_N_GRID,
        run_calibration,
        write_crossover,
    )
    from repro.parallel.planner import DEFAULT_CROSSOVER_PATH

    table = run_calibration(
        n_grid=tuple(args.ns or NETWORK_N_GRID),
        budget_s=args.budget,
        seed=args.seed,
        progress=lambda line: print(line, file=sys.stderr),
    )
    path = args.output or DEFAULT_CROSSOVER_PATH
    write_crossover(table, path)
    print(f"wrote {path}", file=sys.stderr)
    for scheme, entry in sorted(table["schemes"].items()):
        min_n = entry["vectorized_min_n"]
        shown = "never" if min_n > 4096 else str(min_n)
        print(f"{scheme}: vectorized from n >= {shown}")
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.experiments import REGISTRY

    experiments = [
        (module.ID, module.TITLE)
        for module in sorted(
            REGISTRY.values(), key=lambda m: int(m.ID[1:])
        )
    ]
    print(format_table(["id", "claim"], experiments, title="Experiments"))
    print("\nrun one :  python -m repro run-experiment E1")
    print("run all :  python -m pytest benchmarks/ --benchmark-only")
    print("results :  benchmarks/results/*.txt  (quoted in EXPERIMENTS.md)")
    return 0


def cmd_run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    def run() -> int:
        result = run_experiment(
            args.experiment,
            seed=args.seed,
            scale=args.scale,
            workers=args.workers,
            backend=args.backend,
        )
        print(result.summary())
        return 0 if result.all_passed else 1

    return _with_profile(
        args.profile, f"profile_{args.experiment.upper()}.pstats", run
    )


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import generate_report

    report = generate_report(
        seed=args.seed,
        scale=args.scale,
        only=args.only,
        progress=lambda identifier: print(
            f"running {identifier} ...", file=sys.stderr
        ),
        workers=args.workers,
        backend=args.backend,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)
    return 0


def _add_n_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n",
        type=positive_int,
        default=None,
        help="party count (default: 8; with --topology: the spec's "
        "pinned size, or 64)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Noisy Beeps (PODC 2020) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="model and package summary")
    info.set_defaults(func=cmd_info, parser=info)

    demo = subparsers.add_parser(
        "demo", help="run a task over a noisy channel"
    )
    add_scenario_args(demo)
    _add_n_arg(demo)
    add_common_run_args(demo, trials_default=10)
    demo.set_defaults(func=cmd_demo, parser=demo)

    trace = subparsers.add_parser(
        "trace",
        help="run with the observability layer attached and emit events",
    )
    add_scenario_args(trace)
    _add_n_arg(trace)
    add_common_run_args(trace, trials_default=1)
    trace.add_argument(
        "-o",
        "--output",
        help="write events as JSON lines to this file "
        "(default: print a summary table)",
    )
    trace.add_argument(
        "--summary",
        action="store_true",
        help="print the summary table even when writing --output",
    )
    trace.set_defaults(func=cmd_trace, parser=trace)

    overhead = subparsers.add_parser(
        "overhead", help="measure the Theta(log n) overhead curve"
    )
    overhead.add_argument(
        "--ns",
        type=positive_int,
        nargs="+",
        default=None,
        help="party counts (default: 4 8 16 32; with --topology: the "
        "spec's pinned size, or 64 256)",
    )
    add_scenario_args(overhead, choose_task=False)
    add_common_run_args(overhead, trials_default=3)
    _add_profile_arg(overhead, "profile_overhead.pstats")
    overhead.set_defaults(func=cmd_overhead, parser=overhead)

    add_sweep_parser(subparsers)

    bench = subparsers.add_parser(
        "bench", help="benchmark utilities (crossover calibration)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    calibrate = bench_sub.add_parser(
        "calibrate",
        help="measure the scalar vs vectorized crossover per network "
        "scheme and write the table the auto planner routes on",
    )
    calibrate.add_argument(
        "--ns",
        type=positive_int,
        nargs="+",
        help="node counts of the network rows' grid graphs "
        "(default: 16 64 256 1024; crossovers are monotone in n)",
    )
    calibrate.add_argument(
        "--budget",
        type=float,
        default=0.25,
        help="wall-clock seconds per (scheme, n, engine) measurement; "
        "trial counts are derived from it, not hard-coded",
    )
    calibrate.add_argument("--seed", type=int, default=2026)
    calibrate.add_argument(
        "-o",
        "--output",
        help="where to write the table (default: the packaged "
        "crossover.json; $REPRO_CROSSOVER overrides reads)",
    )
    calibrate.set_defaults(func=cmd_bench_calibrate, parser=calibrate)

    experiments = subparsers.add_parser(
        "experiments", help="list the E1-E13 experiments"
    )
    experiments.set_defaults(func=cmd_experiments, parser=experiments)

    run_exp = subparsers.add_parser(
        "run-experiment", help="run one experiment and print its checks"
    )
    run_exp.add_argument(
        "experiment", help="experiment id, e.g. E1 (case-insensitive)"
    )
    run_exp.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trial multiplier (< 1 for a quick look)",
    )
    add_common_run_args(run_exp)
    _add_profile_arg(run_exp, "profile_<ID>.pstats")
    run_exp.set_defaults(func=cmd_run_experiment, parser=run_exp)

    report = subparsers.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report.add_argument(
        "--only", nargs="+", help="experiment ids (default: all)"
    )
    report.add_argument(
        "--scale", type=float, default=1.0, help="trial multiplier"
    )
    add_common_run_args(report)
    report.add_argument(
        "-o", "--output", help="output file (default: stdout)"
    )
    report.set_defaults(func=cmd_report, parser=report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        # A combination of flags that parsed but cannot run (a size a
        # pinned topology rejects, a network-only name without a
        # topology, a bad --shard or --scale) is a usage error too,
        # reported against the subcommand that parsed it.
        args.parser.error(str(error))
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like
        # a well-behaved Unix tool.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
