"""End-to-end benchmark of the repro package: the paper's report and four
sweeps, timed pass by pass in fresh processes.

Run (from the repository root)::

    python3 benchmarks/e2e/run.py                     # all workloads
    python3 benchmarks/e2e/run.py --workload net-mis --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --trace 1 --out trace.json  # appends a run
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py pairs --parent DIR --change DIR --workload W
    python3 benchmarks/e2e/run.py pin                 # rewrite pins.json

A repetition is a cold pass (fresh temp dir, empty result store) and a
warm re-run in a new process against the same store.  Repetitions are
interleaved round-robin across workloads until each has run for
``--seconds``; every metric is the median over them.  Times are scaled
to full host speed by a probe loop the harness runs while each pass runs
(see :func:`spawn`); the times as measured are kept as ``raw.*``
samples.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json,
or its ``per_layer`` metrics with ``--trace 1``).  With several
workloads a metric is named ``<workload>.<metric>``.

The parent imports nothing from the package under test; ``child.py``
does, from ``<root>/src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any

import tracing
from workloads import BY_NAME, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent

DEFAULT_ROOT = HERE.parents[1]
PINS_PATH = HERE / "pins.json"
#: Set-up-only processes per workload per run, for the ``setup_s`` median.
SETUP_SAMPLES = 3
#: Longest a single pass may run; a whole run is meant to end within 3 min.
CHILD_TIMEOUT_S = 150
#: Child environment: one BLAS thread, so a pass uses one core.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Iterations of the host-speed probe loop (:func:`probe`), ~1 ms.
PROBE_LOOPS = 8000
#: The probe's CPU time on the 2-vCPU baseline host at full speed (the
#: 5th percentile of back-to-back probes); a pass's times are reported
#: in seconds of that host.
PROBE_NOMINAL_S = 0.00105
#: How often the harness probes while a pass runs.
PROBE_EVERY_S = 0.05


def load_benchmark(root: Path = DEFAULT_ROOT) -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds and run length."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """``better``, ``same``, ``worse`` or ``unresolved`` for ``new``
    against ``base`` under ``bound`` (a share of the base median).

    A pair whose spread exceeds the bound is unresolved unless every
    value on one side beats every value on the other.
    """
    if max(spread(base), spread(new)) > bound:
        lower_new = max(new) < min(base)
        lower_base = max(base) < min(new)
        if not (lower_new or lower_base):
            return "unresolved"
    worse = _worse_by(statistics.median(base), statistics.median(new), better)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def claim(parent: list[float], change: list[float], better: str) -> dict[str, Any]:
    """The gain rule for paired runs (index ``i`` of each list is pair
    ``i``, with the side that ran first alternating): the change wins at
    least 9 of every 10 pairs, ties counting for neither, and the medians
    differ by more than the parent's interquartile distance."""
    pairs = len(parent)
    if pairs != len(change) or pairs < 10:
        return {"pairs": pairs, "wins": 0, "gain": False, "reason": "needs >= 10 pairs"}
    wins = sum(
        1
        for a, b in zip(parent, change)
        if (b < a if better == "lower" else b > a)
    )
    q1, parent_median, q3 = quartiles(parent)
    gap = statistics.median(change) - parent_median
    improved = gap < 0 if better == "lower" else gap > 0
    gain = wins >= math.ceil(0.9 * pairs) and improved and abs(gap) > q3 - q1
    return {"pairs": pairs, "wins": wins, "gap": gap, "parent_iqr": q3 - q1, "gain": gain}


# ---------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------


def _loop(iterations: int) -> None:
    acc, table = 0, {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 15] = acc


def probe() -> float:
    """CPU seconds a fixed pure-Python loop takes here now.

    CPU time rather than wall time, so that the pass preempting the probe
    does not count.  The loop's data fits in the first-level cache and an
    untimed warm-up precedes it, so what a pass leaves in the caches does
    not move it either.
    """
    _loop(PROBE_LOOPS // 16)
    start = time.process_time()
    _loop(PROBE_LOOPS)
    return time.process_time() - start


def pin_to_one_cpu() -> None:
    """Run this process, and every pass it starts, on one CPU, so that
    :func:`probe` times the CPU the passes run on (a shared host slows
    one vCPU at a time)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass


class ChildFailed(RuntimeError):
    """A pass process exited badly or wrote no result."""


def child_env(root: Path, cwd: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(cwd)
    for name in THREAD_ENV:
        env[name] = "1"
    return env


def spawn(
    root: Path,
    workload: Workload,
    seed: int,
    mode: str,
    cwd: Path,
    *,
    trace: bool = False,
    replay: bool = False,
) -> dict[str, Any]:
    """Run one pass in a fresh process in ``cwd``; its result dict.

    While the pass runs, this process wakes every ``PROBE_EVERY_S`` and
    runs :func:`probe` on the same CPU (see :func:`pin_to_one_cpu`).  A
    shared host has phases, seconds to minutes long, in which every
    process runs 20-80% slower; the probes sample the CPU's speed over
    the pass.  ``scale``, ``PROBE_NOMINAL_S`` over their mean, maps the
    pass's times to seconds of the host at full speed.  Only the harness
    runs the probe, so a change to the program cannot move it.
    """
    out = cwd / f"{mode}-result.json"
    out.unlink(missing_ok=True)
    env = child_env(root, cwd)
    spec = {
        "workload": workload.__dict__,
        "seed": seed,
        "mode": mode,
        "trace": trace,
        "replay": replay,
        "out": str(out),
    }
    probes = []
    with open(cwd / f"{mode}-stderr.txt", "w+", encoding="utf-8") as stderr:
        spec["spawn_t"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        try:
            while True:
                time.sleep(PROBE_EVERY_S)
                probes.append(probe())
                if proc.poll() is not None:
                    break
                if time.perf_counter() - spec["spawn_t"] > CHILD_TIMEOUT_S:
                    raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out.is_file():
            stderr.seek(0)
            tail = stderr.read().strip().splitlines()[-3:]
            raise ChildFailed(
                f"{workload.name} {mode} pass exited {proc.returncode}: "
                + " | ".join(tail)
            )
    result = json.loads(out.read_text(encoding="utf-8"))
    result["scale"] = PROBE_NOMINAL_S * len(probes) / sum(probes)
    return result


def rep_seed(workload: Workload, seed: int, rep: int) -> int:
    """The input seed of repetition ``rep`` of a run at ``seed``.

    A sweep's first repetition uses ``seed`` and each later one a seed
    derived from it, so a run's median spans several input sets rather
    than one set's luck.  The report keeps ``seed``: its checks are
    statistical and were vetted at small seeds only.
    """
    if rep == 0 or workload.kind == "report":
        return seed
    digest = hashlib.sha256(f"{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def evaluate_rep(
    cold: dict[str, Any], warm: dict[str, Any], pins: dict[str, str] | None
) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over both passes' units.

    A cold unit fails on its own problems or a digest that differs from
    its seed-0 pin (when ``pins`` is given; pinned units that are missing
    fail too).  A warm unit fails on its own problems or a digest that
    differs from the cold pass.
    """
    problems: list[str] = []
    failed = 0
    cold_digests = {unit["id"]: unit["digest"] for unit in cold["units"]}
    for pass_name, units in (("cold", cold["units"]), ("warm", warm["units"])):
        for unit in units:
            issues = list(unit["problems"])
            if pass_name == "cold" and pins is not None and pins.get(unit["id"]) != unit["digest"]:
                issues.append("digest differs from its seed-0 pin")
            if pass_name == "warm" and cold_digests.get(unit["id"]) != unit["digest"]:
                issues.append("differs from the cold pass")
            if issues:
                failed += 1
                problems.append(f"{pass_name} {unit['id']}: {'; '.join(issues)}")
    attempted = len(cold["units"]) + len(warm["units"])
    if pins is not None:
        missing = sorted(set(pins) - set(cold_digests))
        attempted += len(missing)
        failed += len(missing)
        problems.extend(f"cold {unit}: missing" for unit in missing)
    if attempted == 0:
        return 1, 1, ["the pass produced no units"]
    return attempted, failed, problems


class WorkloadRun:
    """Samples and correctness tallies of one workload within one run."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.traces: list[dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.measured_s = 0.0
        self.reps = 0

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def tally(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def _add_time(state: WorkloadRun, metric: str, result: dict[str, Any], key: str) -> None:
    """Record ``result[key]`` as ``metric``, scaled to full host speed,
    and as measured under ``raw.<metric>``."""
    state.add(metric, result[key] * result["scale"])
    state.add(f"raw.{metric}", result[key])


def _rep(
    root: Path,
    state: WorkloadRun,
    seed: int,
    pins: dict[str, str] | None,
    work: Path,
    *,
    trace: bool,
    replay: bool,
) -> dict[str, Any] | None:
    """One cold + warm repetition; returns the cold pass (or ``None``)."""
    workload = state.workload
    cwd = Path(tempfile.mkdtemp(dir=work))
    start = time.perf_counter()
    try:
        cold = spawn(root, workload, seed, "cold", cwd, trace=trace, replay=replay)
        warm = spawn(root, workload, seed, "warm", cwd, trace=trace)
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        state.tally(1, 1, [str(error)])
        return None
    finally:
        state.measured_s += time.perf_counter() - start
        shutil.rmtree(cwd, ignore_errors=True)
    state.tally(*evaluate_rep(cold, warm, pins))
    if not trace:
        _add_time(state, "wall_s", cold, "wall_s")
        _add_time(state, "warm_s", warm, "wall_s")
        _add_time(state, "cpu_s", cold, "cpu_s")
        _add_time(state, "setup_s", cold, "setup_s")
        _add_time(state, "setup_s", warm, "setup_s")
        state.add("peak_rss_mb", cold["peak_rss_mb"])
    else:
        cold["trace_merged"] = tracing.merge(cold["trace"], warm["trace"])
        cold["total_s"] = cold["wall_s"] + warm["wall_s"]
    return cold


def measure(
    root: Path,
    workloads: list[Workload],
    seed: int,
    seconds: float,
    trace: bool = False,
) -> dict[str, Any]:
    """One run: the workloads round-robin until each has run ``seconds``."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {root / 'src' / 'repro'}")
    pins_all = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.is_file() else {}
    states = [WorkloadRun(workload) for workload in workloads]
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    pin_to_one_cpu()
    load_before = os.getloadavg()
    try:
        setup_dir = Path(tempfile.mkdtemp(dir=work))
        try:
            for round_no in range(SETUP_SAMPLES + 1):
                for state in states:
                    try:
                        result = spawn(root, state.workload, seed, "setup", setup_dir)
                    except (ChildFailed, subprocess.TimeoutExpired) as error:
                        state.tally(1, 1, [str(error)])
                        continue
                    # Round 0 is untimed: it compiles bytecode and fills
                    # the page cache, which a user pays once, not per run.
                    if round_no:
                        _add_time(state, "setup_s", result, "setup_s")
        finally:
            shutil.rmtree(setup_dir, ignore_errors=True)
        while True:
            pending = [s for s in states if s.reps == 0 or s.measured_s < seconds]
            if not pending:
                break
            for state in pending:
                inputs = rep_seed(state.workload, seed, state.reps)
                pins = pins_all.get(state.workload.name) if inputs == 0 else None
                replay = state.reps == 0 and state.workload.replay
                untraced = _rep(root, state, inputs, pins, work, trace=False, replay=replay)
                if trace:
                    traced = _rep(root, state, inputs, pins, work, trace=True, replay=False)
                    if untraced is not None and traced is not None:
                        summary = traced["trace_merged"]
                        state.layers.append(
                            tracing.layer_metrics(
                                summary,
                                traced["wall_s"] * traced["scale"],
                                untraced["wall_s"] * untraced["scale"],
                                traced["total_s"],
                            )
                        )
                        state.traces.append(summary)
                state.reps += 1
    finally:
        try:
            work.rmdir()
        except OSError:
            pass
    return {
        "seed": seed,
        "trace": int(trace),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "workloads": {state.workload.name: _summarize(state, trace) for state in states},
    }


def _summarize(state: WorkloadRun, trace: bool) -> dict[str, Any]:
    metrics = {}
    for name, values in state.samples.items():
        q1, median, q3 = quartiles(values)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}
    out: dict[str, Any] = {
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "reps": state.reps,
        "problems": state.problems[:20],
        "metrics": metrics,
    }
    if trace and state.layers:
        out["layers"] = {
            name: statistics.median(layer[name] for layer in state.layers)
            for name in state.layers[0]
        }
        merged: dict[str, Any] = {}
        for summary in state.traces:
            merged = tracing.merge(merged, summary)
        reps = len(state.traces)
        out["table"] = {
            name: {key: value / reps for key, value in row.items()}
            for name, row in merged.get("spans", {}).items()
        }
        out["dominant"] = tracing.dominant(out["table"])
    return out


# ---------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------


def result_line(run: dict[str, Any], bench: dict[str, Any]) -> dict[str, Any]:
    """The last output line: totals plus one value per metric."""
    trace = bool(run["trace"])
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    several = len(run["workloads"]) > 1
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    for name, wres in run["workloads"].items():
        attempted += wres["attempted"]
        failed += wres["failed"]
        correct = correct and wres["correct"]
        for metric in declared:
            if trace:
                value = wres.get("layers", {}).get(metric["name"])
            else:
                value = wres["metrics"].get(metric["name"], {}).get("median")
            if value is None:
                correct = False
                value = 0.0
            key = f"{name}.{metric['name']}" if several else metric["name"]
            metrics[key] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def print_run(run: dict[str, Any], bench: dict[str, Any]) -> None:
    units = {metric["name"]: metric["unit"] for metric in bench["end_to_end"] + bench["per_layer"]}
    for name, wres in run["workloads"].items():
        frac = wres["failed"] / wres["attempted"] if wres["attempted"] else 1.0
        print(
            f"== {name} (seed {run['seed']}, {wres['reps']} reps): "
            f"{wres['failed']}/{wres['attempted']} units failed "
            f"(failed_frac {frac:.3f})"
        )
        for problem in wres["problems"]:
            print(f"   ! {problem}")
        print(f"   {'metric':<16}{'unit':<7}{'median':>11}{'q1':>11}{'q3':>11}{'n':>4}")
        # The reported (scaled) metrics first, then the raw.* times.
        for metric, stats in sorted(wres["metrics"].items(), key=lambda item: "." in item[0]):
            unit = units.get(metric.removeprefix("raw."), "")
            print(
                f"   {metric:<16}{unit:<7}{stats['median']:>11.4f}"
                f"{stats['q1']:>11.4f}{stats['q3']:>11.4f}{stats['n']:>4}"
            )
        if "table" in wres:
            print_trace(wres)


def print_trace(wres: dict[str, Any]) -> None:
    table = wres["table"]
    layers = wres["layers"]
    wall = sum(row["self_s"] for row in table.values()) or 1.0
    print(
        f"   self time per traced rep (dominant: {wres['dominant']}; "
        f"trace.overhead_frac {layers['trace.overhead_frac']:+.3f}; "
        f"self-times / traced wall_s {layers['trace.self_sum_frac']:.3f})"
    )
    print(f"   {'span':<34}{'calls':>9}{'total_s':>10}{'self_s':>10}{'share':>7}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"   {name:<34}{row['calls']:>9.0f}{row['total_s']:>10.4f}"
            f"{row['self_s']:>10.4f}{row['self_s'] / wall:>7.1%}"
        )


def host_info() -> dict[str, Any]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "child_env": {name: "1" for name in THREAD_ENV},
    }


def add_results(path: Path, runs: list[dict[str, Any]]) -> None:
    """Append ``runs`` to the results file at ``path`` (created if absent)."""
    earlier = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.is_file() else []
    payload = {"schema": 1, "host": host_info(), "runs": earlier + runs}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------
# compare / pairs / pin
# ---------------------------------------------------------------------


def _values(results: dict[str, Any], workload: str, metric: str) -> tuple[list[float], bool]:
    """``(values, per_run)``: the per-run medians when the file holds
    several runs of ``workload``, else the single run's samples."""
    runs = [run for run in results["runs"] if workload in run["workloads"]]
    stats = [run["workloads"][workload]["metrics"].get(metric) for run in runs]
    stats = [entry for entry in stats if entry is not None]
    if len(stats) > 1:
        return [entry["median"] for entry in stats], True
    return (list(stats[0]["samples"]) if stats else []), False


def compare(base: dict[str, Any], new: dict[str, Any], bench: dict[str, Any]) -> list[dict[str, Any]]:
    """A verdict for every (workload, end-to-end metric) pair in both."""
    rows = []
    workloads = [
        name
        for name in BY_NAME
        if any(name in run["workloads"] for run in base["runs"])
        and any(name in run["workloads"] for run in new["runs"])
    ]
    for workload in workloads:
        for metric in bench["end_to_end"]:
            a, a_runs = _values(base, workload, metric["name"])
            b, b_runs = _values(new, workload, metric["name"])
            if not a or not b:
                continue
            row = {
                "workload": workload,
                "metric": metric["name"],
                "base": statistics.median(a),
                "new": statistics.median(b),
                "spread_base": spread(a),
                "spread_new": spread(b),
                "bound": metric["bound"],
                "verdict": verdict(a, b, metric["bound"], metric["better"]),
            }
            if a_runs and b_runs and len(a) == len(b) >= 10:
                row["claim"] = claim(a, b, metric["better"])
            rows.append(row)
    return rows


def cmd_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base", type=Path, help="results file of the parent")
    parser.add_argument("new", type=Path, help="results file of the change")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    rows = compare(
        json.loads(args.base.read_text(encoding="utf-8")),
        json.loads(args.new.read_text(encoding="utf-8")),
        bench,
    )
    print(f"{'workload':<20}{'metric':<13}{'base':>10}{'new':>10}{'change':>8}"
          f"{'spread':>14}{'bound':>7}  verdict")
    for row in rows:
        change = (row["new"] - row["base"]) / row["base"] if row["base"] else 0.0
        line = (
            f"{row['workload']:<20}{row['metric']:<13}{row['base']:>10.4f}{row['new']:>10.4f}"
            f"{change:>+8.1%}{row['spread_base']:>7.1%}/{row['spread_new']:<6.1%}"
            f"{row['bound']:>7.0%}  {row['verdict']}"
        )
        if "claim" in row:
            result = row["claim"]
            line += f"  claim: {result['wins']}/{result['pairs']} wins, gain={result['gain']}"
        print(line)
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


def cmd_pairs(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py pairs",
        description="alternate runs of two source trees, then compare them",
    )
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", choices=list(BY_NAME), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = [BY_NAME[name] for name in args.workload]
    sides: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = measure(roots[side], workloads, args.seed + pair, seconds)
            sides[side].append(run)
            print(f"pair {pair} {side}: " + json.dumps(result_line(run, bench)["metrics"]))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side, runs in sides.items():
        (args.out_dir / f"{side}.json").unlink(missing_ok=True)
        add_results(args.out_dir / f"{side}.json", runs)
    return cmd_compare([str(args.out_dir / "parent.json"), str(args.out_dir / "change.json")])


def cmd_pin(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py pin", description="rewrite the seed-0 digests in pins.json"
    )
    parser.add_argument("--workload", action="append", choices=list(BY_NAME))
    args = parser.parse_args(argv)
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.is_file() else {}
    work = DEFAULT_ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    for name in args.workload or list(BY_NAME):
        cwd = Path(tempfile.mkdtemp(dir=work))
        try:
            cold = spawn(DEFAULT_ROOT, BY_NAME[name], 0, "cold", cwd)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        pins[name] = {unit["id"]: unit["digest"] for unit in cold["units"]}
        print(f"{name}: {len(pins[name])} units pinned")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    commands = {"compare": cmd_compare, "pairs": cmd_pairs, "pin": cmd_pin}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=list(BY_NAME),
        help="repeatable; default: every workload, interleaved",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also add the full results to this file")
    parser.add_argument(
        "--root", type=Path, default=DEFAULT_ROOT,
        help="checkout whose src/ is measured (default: this one)",
    )
    args = parser.parse_args(argv)
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = [BY_NAME[name] for name in args.workload] if args.workload else list(WORKLOADS)
    run = measure(args.root.resolve(), workloads, args.seed, seconds, bool(args.trace))
    if args.out is not None:
        add_results(args.out, [run])
    print_run(run, bench)
    print(json.dumps(result_line(run, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
