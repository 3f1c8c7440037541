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
* ``bench calibrate`` — measure the scalar↔vectorized crossover on this
  machine and write the table the ``auto`` backend planner routes on.

Every subcommand that runs trials shares the same execution surface
(:func:`add_common_run_args`: ``--trials/--seed/--workers``), builds
picklable :class:`~repro.parallel.ChannelSpec`-based executors, and
dispatches through the trial-runner registry
(:func:`repro.parallel.make_runner`), so ``--workers N`` behaves
identically everywhere and results are bitwise independent of it.

Every command is a plain function taking parsed arguments and returning an
exit code, so the CLI is unit-testable without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.analysis import fit_log, format_table
from repro.analysis.sweep import SweepSpec, run_sweep_point
from repro.parallel import RUNNER_BACKENDS, make_runner

# Task/channel/simulator registries and executor construction live in
# repro.service.grid — one source of truth shared with the sweep service,
# so every scenario the CLI can run the service can cache and shard.
from repro.service.cli import add_sweep_parser
from repro.service.grid import (
    CHANNELS as _CHANNEL_SPECS,
    NETWORK_CHANNELS as _NETWORK_CHANNELS,
    NETWORK_TASKS as _NETWORK_TASKS,
    SIMULATORS as _SIMULATORS,
    TASKS as _TASKS,
    TOPOLOGIES as _TOPOLOGIES,
    make_executor as _make_executor,
    make_task as _make_task,
    parse_topology as _parse_topology,
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
    """Build (task, executor, scenario-label dict) from scenario flags.

    ``--task``/``--channel``/``--simulator``/``--n`` parse as ``None``
    sentinels so the defaults can depend on ``--topology``: single-hop
    runs keep the historical input-set/correlated/chunk defaults, network
    runs default to mis/independent/local-broadcast ("none" at ε=0) with
    ``n`` taken from a size-pinned spec.
    """
    topology = _parse_topology(args.topology) if args.topology else None
    if topology is None:
        task_name = args.task or "input-set"
        channel = args.channel or "correlated"
        simulator = args.simulator or "chunk"
        n = args.n if args.n is not None else 8
    else:
        task_name = args.task or "mis"
        channel = args.channel or "independent"
        simulator = args.simulator or (
            "local-broadcast" if args.epsilon > 0 else "none"
        )
        if args.n is not None:
            n = args.n
        elif topology.size is not None:
            n = topology.size
        else:
            n = 64
        topology = topology.with_n(n)
    task = _make_task(task_name, n, topology=topology)
    executor = _make_executor(
        task, channel, args.epsilon, simulator, topology=topology
    )
    scenario = {
        "task": task_name,
        "channel": channel,
        "simulator": simulator,
        "topology": None if topology is None else topology.label(),
    }
    return task, executor, scenario


def _scenario_line(scenario: dict, task, epsilon: float) -> str:
    line = f"task={scenario['task']} n={task.n_parties}"
    if scenario["topology"] is not None:
        line += f" topology={scenario['topology']}"
    return (
        line
        + f" channel={scenario['channel']} epsilon={epsilon}"
        + f" simulator={scenario['simulator']}"
    )


def cmd_demo(args: argparse.Namespace) -> int:
    task, executor, scenario = _resolve_scenario(args)
    runner = make_runner(args.workers, backend=args.backend)
    try:
        point = run_sweep_point(
            task,
            executor,
            SweepSpec(trials=args.trials, seed=args.seed, runner=runner),
        )
    finally:
        runner.close()
    wins = point.success.successes
    overhead = point.mean_overhead
    print(_scenario_line(scenario, task, args.epsilon))
    print(
        f"success: {wins}/{args.trials}   rounds: {point.mean_rounds:.0f} "
        f"(overhead x{overhead:.1f} vs {task.noiseless_length()} noiseless)"
    )
    return 0 if wins > args.trials // 2 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.observe import JsonlSink, Observer, SummarySink
    from repro.rng import derive_seed, spawn

    task, executor, scenario = _resolve_scenario(args)

    sinks = []
    if args.output:
        sinks.append(JsonlSink(args.output))
    if not args.output or args.summary:
        sinks.append(SummarySink())
    observer = Observer(sinks)

    # Trials run in-process with the sweep layer's exact seed labels
    # (see repro.parallel.runner.run_trial), so each traced trial is the
    # same execution a sweep would have run — just with events attached.
    wins = 0
    with observer:
        for index in range(args.trials):
            inputs = task.sample_inputs(spawn(args.seed, f"inputs[{index}]"))
            trial_seed = derive_seed(args.seed, f"trial[{index}]")
            result = executor(inputs, trial_seed, observe=observer)
            success = bool(task.is_correct(inputs, result.outputs))
            wins += success
            observer.emit(
                "trial",
                index=index,
                success=success,
                rounds=float(result.rounds),
                flips=result.channel_stats.flips,
                total_energy=result.total_energy,
            )
    print(
        f"traced {args.trials} trial(s): "
        + _scenario_line(scenario, task, args.epsilon)
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
    if args.simulator == "none":
        print("overhead needs a real simulator (not 'none')", file=sys.stderr)
        return 2
    return _with_profile(
        args.profile, "profile_overhead.pstats", lambda: _run_overhead(args)
    )


def _run_overhead(args: argparse.Namespace) -> int:
    topology = _parse_topology(args.topology) if args.topology else None
    if topology is None:
        task_name, channel = "input-set", "correlated"
        simulator = args.simulator or "chunk"
        ns = args.ns or [4, 8, 16, 32]
        subject = "InputSet_n"
    else:
        # One-round neighborhood OR isolates the scheme's overhead; the
        # independent network channel is what local-broadcast calibrates
        # against (per-node flips at rate epsilon).
        task_name, channel = "neighbor-or", "independent"
        simulator = args.simulator or "local-broadcast"
        if args.ns:
            ns = args.ns
        else:
            ns = [topology.size] if topology.size is not None else [64, 256]
        subject = f"{task_name} @ {topology.label()}"
    rows = []
    overheads = []
    trials_per_s = []
    runner = make_runner(args.workers, backend=args.backend)
    try:
        for n in ns:
            pinned = None if topology is None else topology.with_n(n)
            task = _make_task(task_name, n, topology=pinned)
            # Picklable executor so --workers > 1 can fan trials out to a
            # process pool; results are identical for every worker count.
            executor = _make_executor(
                task, channel, args.epsilon, simulator, topology=pinned
            )
            point = run_sweep_point(
                task,
                executor,
                SweepSpec(
                    trials=args.trials, seed=args.seed + n, runner=runner
                ),
            )
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
            f"{simulator} overhead on {subject} "
            f"(epsilon={args.epsilon})"
        ),
    ))
    if len(ns) >= 2:
        fit = fit_log(ns, overheads)
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
    from repro.parallel.calibrate import run_calibration, write_crossover
    from repro.parallel.planner import DEFAULT_CROSSOVER_PATH

    table = run_calibration(
        n_grid=tuple(args.ns),
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


_TASK_CHOICES = sorted(set(_TASKS) | set(_NETWORK_TASKS))


def add_common_run_args(
    parser: argparse.ArgumentParser, *, trials_default: int = 10
) -> None:
    """The execution knobs every trial-running subcommand shares.

    Mirrors :class:`~repro.analysis.sweep.SweepSpec`: ``--trials`` and
    ``--seed`` shape the numbers, ``--workers`` and ``--backend`` only
    the wall-clock.
    """
    parser.add_argument("--trials", type=int, default=trials_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial-runner workers (process pool when > 1; results are "
        "identical for any worker count)",
    )
    _add_backend_arg(parser)


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=RUNNER_BACKENDS,
        default="auto",
        help="trial-runner backend (auto: calibrated per-batch planner "
        "over the measured crossover table — see 'repro bench "
        "calibrate'; vectorized: trial-batched numpy backend; "
        "vectorized-process: vectorized stripes over a process pool; "
        "results are identical for every choice)",
    )


def _add_topology_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="run on a beeping network: kind:params shorthand resolved "
        "through the TOPOLOGIES registry (grid:8x8, "
        "geometric:n=10000,r=0.02,seed=7, scale-free:m=2,seed=1, "
        "ring, complete)",
    )


def _add_scenario_args(
    parser: argparse.ArgumentParser, *, include_simulator_none: bool = True
) -> None:
    """Task/channel/simulator selection shared by demo and trace.

    Defaults are ``None`` sentinels filled by :func:`_resolve_scenario`,
    because they depend on whether ``--topology`` was given.
    """
    parser.add_argument(
        "--task",
        choices=_TASK_CHOICES,
        default=None,
        help="default: input-set (single-hop) / mis (with --topology)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="party count (default: 8; with --topology: the spec's "
        "pinned size, or 64)",
    )
    _add_topology_arg(parser)
    parser.add_argument(
        "--channel",
        choices=sorted(set(_CHANNEL_SPECS) | set(_NETWORK_CHANNELS)),
        default=None,
        help="default: correlated (single-hop) / independent "
        "(with --topology)",
    )
    parser.add_argument("--epsilon", type=float, default=0.1)
    simulators = sorted(_SIMULATORS)
    if not include_simulator_none:
        simulators = [name for name in simulators if name != "none"]
    parser.add_argument(
        "--simulator",
        choices=simulators,
        default=None,
        help="default: chunk (single-hop) / local-broadcast "
        "(with --topology; 'none' at epsilon 0)",
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
    info.set_defaults(func=cmd_info)

    demo = subparsers.add_parser(
        "demo", help="run a task over a noisy channel"
    )
    _add_scenario_args(demo)
    add_common_run_args(demo, trials_default=10)
    demo.set_defaults(func=cmd_demo)

    trace = subparsers.add_parser(
        "trace",
        help="run with the observability layer attached and emit events",
    )
    _add_scenario_args(trace)
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
    trace.set_defaults(func=cmd_trace)

    overhead = subparsers.add_parser(
        "overhead", help="measure the Theta(log n) overhead curve"
    )
    overhead.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=None,
        help="party counts (default: 4 8 16 32; with --topology: the "
        "spec's pinned size, or 64 256)",
    )
    overhead.add_argument("--epsilon", type=float, default=0.1)
    _add_topology_arg(overhead)
    overhead.add_argument(
        "--simulator",
        choices=[name for name in sorted(_SIMULATORS) if name != "none"],
        default=None,
        help="default: chunk (single-hop) / local-broadcast "
        "(with --topology)",
    )
    add_common_run_args(overhead, trials_default=3)
    _add_profile_arg(overhead, "profile_overhead.pstats")
    overhead.set_defaults(func=cmd_overhead)

    add_sweep_parser(subparsers)

    bench = subparsers.add_parser(
        "bench", help="benchmark utilities (crossover calibration)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    calibrate = bench_sub.add_parser(
        "calibrate",
        help="measure the scalar vs vectorized crossover per scheme and "
        "write the table the auto planner routes on",
    )
    calibrate.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=[2, 4, 8, 16, 32],
        help="party counts to measure (crossovers are monotone in n)",
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
    calibrate.set_defaults(func=cmd_bench_calibrate)

    experiments = subparsers.add_parser(
        "experiments", help="list the E1-E13 experiments"
    )
    experiments.set_defaults(func=cmd_experiments)

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
    run_exp.add_argument("--seed", type=int, default=0)
    run_exp.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial-runner workers for the experiment's sweeps",
    )
    _add_backend_arg(run_exp)
    _add_profile_arg(run_exp, "profile_<ID>.pstats")
    run_exp.set_defaults(func=cmd_run_experiment)

    report = subparsers.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report.add_argument(
        "--only", nargs="+", help="experiment ids (default: all)"
    )
    report.add_argument(
        "--scale", type=float, default=1.0, help="trial multiplier"
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial-runner workers for each experiment's sweeps",
    )
    _add_backend_arg(report)
    report.add_argument(
        "-o", "--output", help="output file (default: stdout)"
    )
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like
        # a well-behaved Unix tool.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
