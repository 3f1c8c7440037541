"""E3 — §1.1 asymmetry: 1→0 noise is constant-overhead simulable, 0→1 not.

The rewind scheme over suppression noise succeeds at an overhead flat in
n; the identical scheme under 0→1 noise degrades; the chunk-commit scheme
restores success under 0→1 noise at a Θ(log n) overhead.
"""

from __future__ import annotations

from repro.analysis import SweepSpec, fit_log, format_table, run_sweep_point
from repro.channels import OneSidedNoiseChannel, SuppressionNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import ChunkCommitSimulator, RewindSimulator
from repro.tasks import InputSetTask

ID = "E3"
TITLE = "Section 1.1 asymmetry: 1->0 constant vs 0->1 log overhead"

NS = (4, 8, 16)
EPSILON = 0.2
TRIALS = 10


def _point(task, simulator, channel, trials, seed):
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(channel, EPSILON),
        simulator=SimulatorSpec.of(simulator),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(3, round(TRIALS * scale))
    rows = []
    down_success, down_overhead = [], []
    up_success = []
    fix_success, fix_overhead = [], []
    for n in NS:
        task = InputSetTask(n)
        down = _point(
            task,
            RewindSimulator,
            SuppressionNoiseChannel,
            trials,
            seed=seed + 3 * n,
        )
        up = _point(
            task,
            RewindSimulator,
            OneSidedNoiseChannel,
            trials,
            seed=seed + 5 * n,
        )
        fix = _point(
            task,
            ChunkCommitSimulator,
            OneSidedNoiseChannel,
            trials,
            seed=seed + 7 * n,
        )
        down_success.append(down.success.value)
        down_overhead.append(down.mean_overhead)
        up_success.append(up.success.value)
        fix_success.append(fix.success.value)
        fix_overhead.append(fix.mean_overhead)
        rows.append(
            [
                n,
                f"{down.success.value:.2f}",
                f"{down.mean_overhead:.1f}",
                f"{up.success.value:.2f}",
                f"{fix.success.value:.2f}",
                f"{fix.mean_overhead:.1f}",
            ]
        )
    down_fit = fit_log(list(NS), down_overhead)
    fix_fit = fit_log(list(NS), fix_overhead)
    table = format_table(
        [
            "n",
            "rewind/1->0 success",
            "overhead",
            "rewind/0->1 success",
            "chunk/0->1 success",
            "overhead",
        ],
        rows,
        title=(
            f"E3  noise-direction asymmetry (epsilon={EPSILON}, "
            f"{trials} trials/point)"
        ),
    )
    table += (
        f"\nrewind overhead log-slope: {down_fit.slope:.2f} "
        f"(constant-overhead scheme)"
        f"\nchunk  overhead log-slope: {fix_fit.slope:.2f} "
        f"(Theta(log n) scheme)"
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(NS),
            "down_success": down_success,
            "down_overhead": down_overhead,
            "up_success": up_success,
            "fix_success": fix_success,
            "fix_overhead": fix_overhead,
        },
    )
    result.check(
        "rewind over 1->0 noise succeeds everywhere (>= 0.8)",
        min(down_success) >= 0.8,
    )
    result.check(
        "rewind over 0->1 noise degrades (mean <= 0.6)",
        sum(up_success) / len(up_success) <= 0.6,
    )
    result.check(
        "chunk-commit fixes 0->1 noise (>= 0.8 everywhere)",
        min(fix_success) >= 0.8,
    )
    result.check(
        "chunk overhead grows logarithmically (slope > 5)",
        fix_fit.slope > 5.0,
    )
    result.check(
        "rewind overhead does not grow with n (slope < 1)",
        down_fit.slope < 1.0,
    )
    return result
