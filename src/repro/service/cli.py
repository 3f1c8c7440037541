"""The ``repro sweep`` command group, and the scenario flags every CLI
command shares.

:func:`add_scenario_args` declares ``--task/--topology/--channel/
--epsilon/--simulator`` once, for ``demo``, ``trace``, ``overhead`` and
the sweep verbs; :func:`scenario_from_args` resolves them, with the
defaults that depend on ``--topology``, into a
:class:`~repro.service.grid.SweepGrid`.  Every command runs that grid's
:meth:`~repro.service.grid.SweepGrid.build_point`, so every scenario the
CLI can run, the sweep service can cache and shard.

Verbs (all sharing the scenario flags, ``--ns``, ``--trials/--seed`` and
``--cache-dir``):

* ``run``    — run the sweep through the result cache, checkpointing
  every completed point; safe to kill at any instant.
* ``resume`` — alias of ``run`` (a re-run *is* the resume: cached points
  are skipped, only the remainder computes).
* ``status`` — probe which points are checkpointed, without touching
  counters; tails a live run's ``--events`` JSONL when given.
* ``merge``  — validate completeness and write the full ordered result
  (use after k shard runs against a shared cache dir).
* ``gc``     — delete cache objects no run manifest references, and reap
  stale temp files.

``--shard J/K`` restricts a run to stripe J of a K-way
:func:`~repro.service.shards.plan_shards` plan; ``--events FILE``
streams observe events (trials, cache hits/misses, per-point summaries)
to line-buffered, flush-per-event JSONL so ``status``/``tail -f`` never
see a torn line; ``--json`` prints a machine-readable summary (the CI
smoke job asserts ``computed == 0`` on a warm re-run from it).
"""

from __future__ import annotations

import argparse
from collections import Counter
import json
import sys
from typing import Any, Iterable, Sequence

from repro.analysis.sweep import SweepPoint
from repro.errors import ConfigurationError, ReproError
from repro.observe import JsonlSink, MetricsCollector, Observer, read_jsonl
from repro.parallel import (
    RUNNER_BACKENDS,
    TrialRunner,
    make_runner,
    use_runner,
)
from repro.service.driver import run_sweep_resumable, sweep_status
from repro.service.grid import (
    CHANNELS,
    NETWORK_CHANNELS,
    NETWORK_TASKS,
    SIMULATORS,
    TASKS,
    SweepGrid,
    parse_topology,
)
from repro.service.shards import merge_sweep, plan_shards
from repro.service.store import ResultStore

__all__ = [
    "add_sweep_parser",
    "add_common_run_args",
    "add_scenario_args",
    "runner_from_args",
    "scenario_from_args",
    "positive_int",
    "probability",
]

_DEFAULT_CACHE_DIR = ".repro-cache"


def positive_int(text: str) -> int:
    """``argparse`` type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def probability(text: str) -> float:
    """``argparse`` type for noise rates, which must lie in ``[0, 1)``."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


def add_common_run_args(
    parser: argparse.ArgumentParser,
    *,
    trials_default: int | None = None,
    runner: bool = True,
) -> None:
    """The run configuration every trial-running command shares, as one
    argument group.

    Mirrors :class:`~repro.analysis.sweep.SweepSpec`: ``--trials`` and
    ``--seed`` shape the numbers, ``--workers`` and ``--backend`` only
    the wall-clock.  Commands without a trial count (``run-experiment``,
    ``report``) pass no ``trials_default``; commands that only address
    stored results (``sweep status``/``merge``) pass ``runner=False``.
    """
    group = parser.add_argument_group("run configuration")
    if trials_default is not None:
        group.add_argument(
            "--trials", type=positive_int, default=trials_default
        )
    group.add_argument("--seed", type=int, default=0)
    if not runner:
        return
    group.add_argument(
        "--workers",
        type=positive_int,
        default=1,
        help="trial-runner workers (a process pool when > 1)",
    )
    group.add_argument(
        "--backend",
        choices=RUNNER_BACKENDS,
        default="auto",
        help="trial-runner backend (auto: calibrated per-batch planner "
        "over the measured crossover table — see 'repro bench "
        "calibrate'; vectorized: trial-batched numpy backend; "
        "vectorized-process: vectorized stripes over a process pool).  "
        "Results, and sweep cache keys, are identical for every backend "
        "and worker count",
    )


def runner_from_args(args: argparse.Namespace) -> TrialRunner:
    """The trial runner ``--workers``/``--backend`` select."""
    return make_runner(args.workers, backend=args.backend)


def add_scenario_args(
    parser: argparse.ArgumentParser, *, choose_task: bool = True
) -> None:
    """The scenario flags ``--task/--topology/--channel/--epsilon/
    --simulator`` every scenario command shares; each command adds its
    own size flag (``--n`` or ``--ns``).

    Task, channel and simulator parse as ``None`` sentinels, filled by
    :func:`scenario_from_args`, because their defaults depend on
    ``--topology``.  ``choose_task=False`` (``overhead``) leaves out
    ``--task`` and ``--channel``, which that command fixes, and the
    ``none`` simulator, which has no overhead to measure.
    """
    if choose_task:
        parser.add_argument(
            "--task",
            choices=sorted(set(TASKS) | set(NETWORK_TASKS)),
            default=None,
            help="default: input-set (single-hop) / mis (with --topology)",
        )
        parser.add_argument(
            "--channel",
            choices=sorted(set(CHANNELS) | set(NETWORK_CHANNELS)),
            default=None,
            help="default: correlated (single-hop) / independent "
            "(with --topology)",
        )
    parser.add_argument(
        "--topology",
        metavar="SPEC",
        default=None,
        help="run on a beeping network: kind:params shorthand resolved "
        "through the TOPOLOGIES registry (grid:8x8, "
        "geometric:n=10000,r=0.02,seed=7, scale-free:m=2,seed=1, "
        "ring, complete)",
    )
    parser.add_argument("--epsilon", type=probability, default=0.1)
    parser.add_argument(
        "--simulator",
        choices=[
            name
            for name in sorted(SIMULATORS)
            if choose_task or name != "none"
        ],
        default=None,
        help="default: chunk (single-hop) / local-broadcast (with --topology"
        + ("; 'none' at epsilon 0)" if choose_task else ")"),
    )


def scenario_from_args(
    args: argparse.Namespace,
    ns: Sequence[int] | None,
    *,
    single_hop_ns: tuple[int, ...],
    network_ns: tuple[int, ...] = (64,),
) -> SweepGrid:
    """The :class:`SweepGrid` the scenario flags describe, over ``ns``,
    with the defaults that depend on ``--topology`` filled in.

    Single-hop runs default to input-set over correlated noise under
    chunk-commit, on ``single_hop_ns``; network runs to mis over
    independent noise under local-broadcast ("none" at ε=0), on the
    spec's pinned size, or ``network_ns``.  The grid's own checks are
    the only check of the names and the single-hop/network rules.
    """
    topology = parse_topology(args.topology) if args.topology else None
    if topology is None:
        defaults = ("input-set", "correlated", "chunk")
        default_ns = single_hop_ns
    else:
        defaults = (
            "mis",
            "independent",
            "local-broadcast" if args.epsilon > 0 else "none",
        )
        default_ns = (
            network_ns if topology.size is None else (topology.size,)
        )
    return SweepGrid(
        task=args.task or defaults[0],
        ns=tuple(ns) if ns else default_ns,
        channel=args.channel or defaults[1],
        epsilon=args.epsilon,
        simulator=args.simulator or defaults[2],
        trials=args.trials,
        seed=args.seed,
        topology=topology,
    )


def _add_grid_args(
    parser: argparse.ArgumentParser, *, runner: bool = False
) -> None:
    add_scenario_args(parser)
    parser.add_argument(
        "--ns",
        type=positive_int,
        nargs="+",
        default=None,
        help="party counts, one grid point each "
        "(default: 4 8; with --topology: the spec's pinned size, or 64)",
    )
    add_common_run_args(parser, trials_default=10, runner=runner)
    parser.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"content-addressed result cache (default: {_DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON summary to stdout",
    )


def _grid_from_args(args: argparse.Namespace) -> SweepGrid:
    return scenario_from_args(args, args.ns, single_hop_ns=(4, 8))


def _parse_shard(text: str, total: int) -> tuple[int, int]:
    """Parse ``"J/K"`` and bounds-check against the grid size."""
    try:
        shard_text, of_text = text.split("/", 1)
        shard, of = int(shard_text), int(of_text)
    except ValueError:
        raise ConfigurationError(
            f"--shard wants J/K (e.g. 0/3), got {text!r}"
        ) from None
    if not 0 <= shard < of:
        raise ConfigurationError(
            f"--shard {text}: shard index must be in [0, {of})"
        )
    if of > total:
        raise ConfigurationError(
            f"--shard {text}: only {total} grid points to split"
        )
    return shard, of


def _print_summary(summary: dict[str, Any], args: argparse.Namespace, human: str) -> None:
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(human)


def _count_backends(selections: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Batches per backend, from ``backend_selected`` event records."""
    return dict(Counter(str(record.get("backend")) for record in selections))


def _write_points(
    path: str, grid: SweepGrid, points: list[SweepPoint]
) -> None:
    """Write a sweep's points, with the grid that produced them, as JSON."""
    payload = {
        "schema": 1,
        "grid": grid.workload(),
        "points": [point.to_dict() for point in points],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_sweep_run(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = ResultStore(args.cache_dir)
    collector = MetricsCollector()
    sinks: list[Any] = [collector]
    if args.events:
        sinks.append(JsonlSink(args.events, append=True, flush=True))
    observer = Observer(sinks)

    indices = None
    shard_label = ""
    if args.shard:
        shard, of = _parse_shard(args.shard, grid.total_points)
        indices = plan_shards(grid.total_points, of)[shard].indices
        shard_label = f" (shard {shard}/{of}: indices {list(indices)})"

    store.write_manifest(
        grid.grid_key(),
        {
            "schema": 1,
            "grid": grid.workload(),
            "total": grid.total_points,
        },
    )
    runner = runner_from_args(args)
    try:
        with use_runner(runner):
            points = run_sweep_resumable(
                grid.ns,
                grid.build_point,
                grid.spec(observe=observer),
                store=store,
                workload=grid.workload(),
                indices=indices,
            )
    finally:
        runner.close()
        observer.close()

    hits = collector.count("cache_hit")
    computed = collector.count("cache_miss")
    summary = {
        "grid": grid.grid_key(),
        "cache_dir": str(store.root),
        "points": len(points),
        "computed": computed,
        "hits": hits,
        "shard": args.shard or None,
        "backend": args.backend,
        "workers": args.workers,
        # The auto planner's per-batch choices and the last runner-level
        # downgrade reason (None when every batch ran as selected).
        "backend_decisions": _count_backends(
            collector.events_of("backend_selected")
        ),
        "last_fallback_reason": runner.last_fallback_reason,
    }
    _print_summary(
        summary,
        args,
        f"sweep {grid.grid_key()[:12]}: {len(points)} point(s), "
        f"computed {computed}, cache hits {hits}{shard_label}",
    )
    if not args.json:
        for point in points:
            print(
                f"  n={point.params.get('n'):>4}  "
                f"success={point.success.value:.3f}  "
                f"overhead=x{point.mean_overhead:.1f}"
            )
    if args.output:
        _write_points(args.output, grid, points)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_sweep_status(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = ResultStore(args.cache_dir)
    status = sweep_status(
        grid.spec(), grid.workload(), grid.total_points, store
    )
    summary: dict[str, Any] = {
        "grid": grid.grid_key(),
        "cache_dir": str(store.root),
        **status,
    }
    if args.events:
        try:
            with open(args.events, encoding="utf-8") as handle:
                events = read_jsonl(handle)
        except OSError:
            events = []
        summary["events"] = dict(
            Counter(record.get("event", "?") for record in events)
        )
        # Planner visibility: which backends the auto planner picked and
        # the last runner-level downgrade it observed (the
        # backend_selected events carry both; see repro.observe).
        selections = [
            record
            for record in events
            if record.get("event") == "backend_selected"
        ]
        if selections:
            summary["backend_decisions"] = _count_backends(selections)
            summary["last_backend_reason"] = selections[-1].get("reason")
            summary["last_fallback_reason"] = next(
                (
                    record.get("fallback_reason")
                    for record in reversed(selections)
                    if record.get("fallback_reason") is not None
                ),
                None,
            )
    complete = status["done"] == status["total"]
    human = (
        f"sweep {grid.grid_key()[:12]}: {status['done']}/{status['total']} "
        f"point(s) checkpointed"
        + ("" if complete else f", missing {status['missing']}")
    )
    if args.events and not args.json:
        human += f"\n  events: {summary.get('events', {})}"
        if "backend_decisions" in summary:
            human += (
                f"\n  backends: {summary['backend_decisions']}"
                f" (last fallback: {summary['last_fallback_reason']})"
            )
    _print_summary(summary, args, human)
    return 0 if complete else 1


def cmd_sweep_merge(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    store = ResultStore(args.cache_dir)
    try:
        points = merge_sweep(
            grid.spec(), grid.workload(), grid.total_points, store
        )
    except ConfigurationError as error:
        print(f"merge failed: {error}", file=sys.stderr)
        return 1
    _write_points(args.output, grid, points)
    _print_summary(
        {
            "grid": grid.grid_key(),
            "points": len(points),
            "output": args.output,
        },
        args,
        f"merged {len(points)} point(s) -> {args.output}",
    )
    return 0


def cmd_sweep_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    keep: set[str] = set()
    manifests = store.manifests()
    for payload in manifests.values():
        try:
            grid = SweepGrid.from_json(payload["grid"])
        except (ReproError, KeyError, TypeError, ValueError):
            continue  # unreadable manifest: its objects are unreferenced
        keep.update(grid.point_key(i) for i in range(grid.total_points))
    stats = store.gc(keep)
    summary = {
        "cache_dir": str(store.root),
        "manifests": len(manifests),
        **stats,
    }
    _print_summary(
        summary,
        args,
        f"gc: removed {stats['removed']} object(s), kept {stats['kept']}, "
        f"reaped {stats['tmp_removed']} temp file(s) "
        f"({len(manifests)} manifest(s))",
    )
    return 0


def add_sweep_parser(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``sweep`` command group on the root CLI parser."""
    sweep = subparsers.add_parser(
        "sweep",
        help="resumable, cached, sharded sweeps (the sweep service)",
    )
    verbs = sweep.add_subparsers(dest="sweep_command", required=True)

    for name, help_text in (
        ("run", "run a sweep through the result cache (kill-safe)"),
        ("resume", "alias of run: cached points skip, the rest computes"),
    ):
        verb = verbs.add_parser(name, help=help_text)
        _add_grid_args(verb, runner=True)
        verb.add_argument(
            "--shard",
            metavar="J/K",
            help="run only stripe J of a K-way shard plan",
        )
        verb.add_argument(
            "--events",
            metavar="FILE",
            help="stream observe events (JSONL, append + flush-per-event)",
        )
        verb.add_argument(
            "-o", "--output", help="also write the points as JSON here"
        )
        verb.set_defaults(func=cmd_sweep_run, parser=verb)

    status = verbs.add_parser(
        "status", help="how many points are checkpointed (exit 1 if incomplete)"
    )
    _add_grid_args(status)
    status.add_argument(
        "--events", metavar="FILE", help="also summarize this events JSONL"
    )
    status.set_defaults(func=cmd_sweep_status, parser=status)

    merge = verbs.add_parser(
        "merge", help="validate completeness and write the merged results"
    )
    _add_grid_args(merge)
    merge.add_argument(
        "-o", "--output", required=True, help="merged results JSON file"
    )
    merge.set_defaults(func=cmd_sweep_merge, parser=merge)

    gc = verbs.add_parser(
        "gc", help="drop cache objects no run manifest references"
    )
    gc.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    gc.add_argument("--json", action="store_true")
    gc.set_defaults(func=cmd_sweep_gc, parser=gc)
