"""E1 — Theorem 1.2: the chunk-commit simulation costs Θ(log n) overhead.

Sweep the party count n, simulate the 2n-round ``InputSet_n`` protocol
with the chunk-commit scheme over two-sided ε-noise, and fit the measured
overhead against log₂ n.  Predicted shape: overhead ≈ a + b·log₂ n with
b > 0 and an excellent fit; success near 1 throughout.
"""

from __future__ import annotations

from repro.analysis import SweepSpec, fit_log, format_table, run_sweep_point
from repro.channels import CorrelatedNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import ChunkCommitSimulator
from repro.tasks import InputSetTask

ID = "E1"
TITLE = "Theorem 1.2: Theta(log n) simulation overhead"

NS = (4, 8, 16, 32, 64)
EPSILON = 0.1
TRIALS = 3


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(1, round(TRIALS * scale))
    ns = NS if scale >= 1.0 else NS[: max(2, int(len(NS) * scale) + 1)]

    rows = []
    overheads = []
    successes = []
    for n in ns:
        task = InputSetTask(n)
        # Picklable executor: the sweep can fan trials out to a process
        # pool (``--workers``) with bitwise-identical results.
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, EPSILON),
            simulator=SimulatorSpec.of(ChunkCommitSimulator),
        )

        point = run_sweep_point(
            task, executor, SweepSpec(trials, seed + 100 + n), params={"n": n}
        )
        overheads.append(point.mean_overhead)
        successes.append(point.success.value)
        rows.append(
            [
                n,
                2 * n,
                round(point.mean_rounds),
                f"{point.mean_overhead:.1f}",
                f"{point.success.value:.2f}",
            ]
        )
    fit = fit_log(list(ns), overheads)
    table = format_table(
        ["n", "noiseless T", "simulated rounds", "overhead", "success"],
        rows,
        title=(
            f"E1  chunk-commit overhead vs n (epsilon={EPSILON}, "
            f"{trials} trials/point)"
        ),
    )
    table += (
        f"\nfit: overhead = {fit.intercept:.1f} + {fit.slope:.1f}"
        f" * log2(n)   R^2 = {fit.r_squared:.3f}"
    )

    # E1b — the verification-repetition ablation (DESIGN.md §5): fewer
    # votes per chunk verdict cost less but let bad chunks commit (and
    # good ones rewind); the derived Θ(log n) choice buys reliability at
    # marginal round cost.
    ablation_rows = []
    ablation = {}
    ablation_n = 8
    for label, votes in (("1", 1), ("3", 3), ("derived", None)):
        task = InputSetTask(ablation_n)
        from repro.simulation import SimulationParameters

        params = (
            SimulationParameters(verification_repetitions=votes)
            if votes is not None
            else SimulationParameters()
        )
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.25),
            simulator=SimulatorSpec.of(ChunkCommitSimulator, params),
        )

        point = run_sweep_point(
            task,
            executor,
            SweepSpec(max(6, 2 * trials), seed + 555 + (votes or 0)),
        )
        ablation[label] = point
        ablation_rows.append(
            [
                label,
                f"{point.success.value:.2f}",
                f"{point.mean_overhead:.1f}",
                f"{point.extras.get('mean_chunk_attempts', 0):.1f}",
            ]
        )
    table += "\n\n" + format_table(
        ["verify votes r_v", "success", "overhead", "mean attempts"],
        ablation_rows,
        title=(
            f"E1b  verification-vote ablation (n={ablation_n}, "
            "epsilon=0.25)"
        ),
    )

    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(ns),
            "overheads": overheads,
            "successes": successes,
            "fit": {
                "intercept": fit.intercept,
                "slope": fit.slope,
                "r_squared": fit.r_squared,
            },
            "verification_ablation": {
                label: point.success.value
                for label, point in ablation.items()
            },
        },
    )
    result.check(
        "derived verification votes at least match the 1-vote ablation",
        ablation["derived"].success.value
        >= ablation["1"].success.value - 0.1,
    )
    result.check("log slope is clearly positive (> 5)", fit.slope > 5.0)
    result.check("log fit explains the curve (R^2 > 0.9)", fit.r_squared > 0.9)
    result.check(
        "simulation succeeds throughout (>= 0.65 each point)",
        all(success >= 0.65 for success in successes),
    )
    result.check(
        "overhead grows sublinearly in n",
        overheads[-1] < overheads[0] * (ns[-1] / ns[0]),
    )
    return result
