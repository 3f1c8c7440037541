"""E9 — Appendix D.2 ablation: hierarchical A_l vs iterative chunk-commit."""

from __future__ import annotations

from repro.analysis import SweepSpec, fit_log, format_table, run_sweep_point
from repro.channels import CorrelatedNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import ChunkCommitSimulator, HierarchicalSimulator
from repro.tasks import InputSetTask

ID = "E9"
TITLE = "Appendix D.2 ablation: hierarchical vs iterative"

NS = (4, 8, 16, 32)
EPSILON = 0.15
TRIALS = 8


def _point(n, simulator, trials, seed):
    task = InputSetTask(n)
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, EPSILON),
        simulator=SimulatorSpec.of(simulator),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(3, round(TRIALS * scale))
    rows = []
    iter_success, hier_success = [], []
    iter_overhead, hier_overhead = [], []
    for n in NS:
        iterative = _point(
            n, ChunkCommitSimulator, trials, seed=seed + 3 * n
        )
        hierarchical = _point(
            n, HierarchicalSimulator, trials, seed=seed + 5 * n
        )
        iter_success.append(iterative.success.value)
        hier_success.append(hierarchical.success.value)
        iter_overhead.append(iterative.mean_overhead)
        hier_overhead.append(hierarchical.mean_overhead)
        rows.append(
            [
                n,
                f"{iterative.success.value:.2f}",
                f"{iterative.mean_overhead:.1f}",
                f"{hierarchical.success.value:.2f}",
                f"{hierarchical.mean_overhead:.1f}",
            ]
        )
    iter_fit = fit_log(list(NS), iter_overhead)
    hier_fit = fit_log(list(NS), hier_overhead)
    table = format_table(
        [
            "n",
            "iterative success",
            "overhead",
            "hierarchical success",
            "overhead",
        ],
        rows,
        title=(
            f"E9  Theorem 1.2 implementations head-to-head "
            f"(epsilon={EPSILON}, {trials} trials/point)"
        ),
    )
    table += (
        f"\niterative    overhead log-slope: {iter_fit.slope:.1f}"
        f"\nhierarchical overhead log-slope: {hier_fit.slope:.1f}"
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(NS),
            "iter_overhead": iter_overhead,
            "hier_overhead": hier_overhead,
        },
    )
    result.check(
        "iterative variant succeeds everywhere (>= 0.8)",
        min(iter_success) >= 0.8,
    )
    result.check(
        "hierarchical variant succeeds everywhere (>= 0.8)",
        min(hier_success) >= 0.8,
    )
    result.check("iterative overhead is log-shaped", iter_fit.slope > 5.0)
    result.check(
        "hierarchical overhead is log-shaped", hier_fit.slope > 5.0
    )
    result.check(
        "the two overheads are within a small constant factor",
        all(
            0.4 <= hierarchical / iterative <= 2.5
            for iterative, hierarchical in zip(
                iter_overhead, hier_overhead
            )
        ),
    )
    return result
