"""One pass of one workload, in a fresh process: the unit the harness times.

``run.py`` starts ``python3 child.py SPEC`` with the pass's own temp dir
as working directory, so the result store (``.repro-cache``), the
topology cache and codebooks all start cold, as they do for a
user's ``repro report`` or ``repro sweep run``.  ``SPEC`` is JSON with
the workload row, ``seed``, ``mode`` (``setup``, ``cold`` or ``warm``),
``spawn_t`` (the parent's ``perf_counter`` just before the spawn; the
clock is system-wide), ``trace``, ``replay`` and ``out`` (where the
result JSON goes).

Timed: spawn to set-up done (``setup_s``: the package imported, runner
and store built) and spawn to pass done (``wall_s``).  The correctness
checks and the scalar replay run after the clock stops.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any

import repro
from repro import ResultStore, SweepGrid, make_runner, run_sweep_resumable
from repro.network.topology import parse_topology
from repro.observe import MetricsCollector, Observer
from repro.parallel import TrialRunner, run_trial
from repro.service.canon import content_key

import tracing
from workloads import Workload

#: Marks an experiment check that did not pass in the report markdown.
FAILED_CHECK = "- [ ] "


class RecordingRunner(TrialRunner):
    """Delegates to ``inner`` and keeps every batch for the replay check."""

    def __init__(self, inner: TrialRunner) -> None:
        self.inner = inner
        #: ``(task, executor, batch seed, records)`` per ``run_trials``.
        self.batches: list[tuple] = []

    @property
    def workers(self) -> int:
        return self.inner.workers

    def run_trials(self, task, executor, trials, *, seed=0, observe=None):
        batch = self.inner.run_trials(
            task, executor, trials, seed=seed, observe=observe
        )
        self.batches.append((task, executor, seed, batch.records))
        return batch

    def close(self) -> None:
        self.inner.close()


def make_grid(workload: Workload, seed: int) -> SweepGrid:
    """The workload's sweep at ``seed`` (also the geometric graph seed)."""
    params = dict(workload.params)
    topology = params.pop("topology", None)
    return SweepGrid(
        seed=seed,
        topology=(
            None if topology is None else parse_topology(topology.format(seed=seed))
        ),
        **params,
    )


def replay_problems(batches: list[tuple]) -> list[list[str]]:
    """Per batch: whether one sampled trial replays bitwise on the scalar
    engine (:func:`repro.parallel.run_trial`, the reference backend)."""
    problems = []
    for task, executor, seed, records in batches:
        index = random.Random(seed).randrange(len(records))
        scalar = run_trial(task, executor, seed, index)
        problems.append(
            []
            if scalar == records[index]
            else [f"trial {index} differs from the scalar engine"]
        )
    return problems


def report_units(markdown: str) -> list[dict[str, Any]]:
    """One unit per ``## E...`` section: its digest and failed checks."""
    sections = markdown.split("\n## ")[1:]
    units = []
    for section in sections:
        if not section.startswith("E"):
            continue
        identifier = section.split(" ", 1)[0]
        failed = section.count(FAILED_CHECK)
        units.append(
            {
                "id": identifier,
                "digest": content_key(section),
                "problems": [f"{failed} check(s) failed"] if failed else [],
            }
        )
    return units


def sweep_units(
    workload: Workload, points: list, store: ResultStore, mode: str
) -> list[dict[str, Any]]:
    """One unit per sweep point: its digest, success floor and, on the
    warm pass, whether it came from the store."""
    counters = store.counters
    all_hits = (
        counters["hits"] == len(points)
        and counters["misses"] == 0
        and counters["puts"] == 0
    )
    units = []
    for index, point in enumerate(points):
        problems = []
        if point.success.value < workload.success_floor:
            problems.append(
                f"success {point.success.value:.3f} below floor "
                f"{workload.success_floor}"
            )
        if mode == "warm" and not all_hits:
            problems.append(f"warm pass was not all store hits: {counters}")
        units.append(
            {
                "id": f"point[{index}]",
                "digest": content_key(point.to_dict()),
                "problems": problems,
            }
        )
    return units


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MiB) of this process."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime, own.ru_maxrss / 1024.0


def run_pass(
    workload: Workload,
    seed: int,
    mode: str,
    *,
    spawn_t: float,
    trace: bool = False,
    replay: bool = False,
) -> dict[str, Any]:
    """Set up, run one pass in the current directory, check it."""
    if workload.kind == "report":
        generate_report = repro.generate_report  # imports the experiments
    else:
        grid = make_grid(workload, seed)
        runner = RecordingRunner(make_runner(1, backend="auto"))
        store = ResultStore(".repro-cache")
    ready_t = time.perf_counter()
    result: dict[str, Any] = {"mode": mode, "setup_s": ready_t - spawn_t}
    if mode == "setup":
        if workload.kind != "report":
            runner.close()
        return result

    tracer = collector = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.record(tracing.HARNESS_SETUP, spawn_t, ready_t)
        tracer.record("harness.trace_install", ready_t, time.perf_counter())
        collector = MetricsCollector()

    if workload.kind == "report":

        def execute():
            return generate_report(seed=seed, **workload.params)

    else:

        def execute():
            observe = Observer([collector]) if collector is not None else None
            try:
                return run_sweep_resumable(
                    grid.ns,
                    grid.build_point,
                    grid.spec(runner=runner, observe=observe),
                    store=store,
                    workload=grid.workload(),
                )
            finally:
                runner.close()

    if tracer is not None:
        execute = tracer.wrap(tracing.HARNESS_PASS, execute)
    output = execute()
    done_t = time.perf_counter()
    cpu_s, peak_rss_mb = _usage()
    result.update(wall_s=done_t - spawn_t, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb)

    if workload.kind == "report":
        result["units"] = report_units(output)
    else:
        units = sweep_units(workload, output, store, mode)
        if replay:
            for unit, problems in zip(units, replay_problems(runner.batches)):
                unit["problems"].extend(problems)
        result["units"] = units
    if tracer is not None:
        result["trace"] = tracing.summarize(tracer.spans, collector.events)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    outcome = run_pass(
        Workload(**spec["workload"]),
        spec["seed"],
        spec["mode"],
        spawn_t=spec["spawn_t"],
        trace=spec["trace"],
        replay=spec["replay"],
    )
    Path(spec["out"]).write_text(json.dumps(outcome), encoding="utf-8")
