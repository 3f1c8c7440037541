"""E13 — §1.2's open problem: naive repetition gains nothing from
independent noise."""

from __future__ import annotations

from repro.analysis import SweepSpec, format_table, run_sweep_point
from repro.channels import CorrelatedNoiseChannel, IndependentNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import RepetitionSimulator, SimulationParameters
from repro.tasks import InputSetTask

ID = "E13"
TITLE = "Independent vs correlated noise for naive repetition"

N = 8
EPSILON = 0.2
REPETITIONS = (3, 5, 9, 15, 25)
TRIALS = 30


def _point(repetitions, channel, trials, seed):
    task = InputSetTask(N)
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(channel, EPSILON),
        simulator=SimulatorSpec.of(
            RepetitionSimulator,
            SimulationParameters(repetitions=repetitions),
        ),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(10, round(TRIALS * scale))
    rows = []
    correlated_success = []
    independent_success = []
    for repetitions in REPETITIONS:
        correlated = _point(
            repetitions,
            CorrelatedNoiseChannel,
            trials,
            seed=seed + 3 * repetitions,
        )
        independent = _point(
            repetitions,
            IndependentNoiseChannel,
            trials,
            seed=seed + 5 * repetitions,
        )
        correlated_success.append(correlated.success.value)
        independent_success.append(independent.success.value)
        rows.append(
            [
                repetitions,
                N * 2 * repetitions,
                f"{correlated.success.value:.2f}",
                f"{independent.success.value:.2f}",
            ]
        )
    table = format_table(
        ["reps r", "rounds", "correlated success", "independent success"],
        rows,
        title=(
            f"E13  repetition scheme under the two noise models "
            f"(n={N}, epsilon={EPSILON}, {trials} trials/point)"
        ),
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "repetitions": list(REPETITIONS),
            "correlated_success": correlated_success,
            "independent_success": independent_success,
        },
    )
    result.check(
        "enough repetition solves both models",
        correlated_success[-1] >= 0.9
        and independent_success[-1] >= 0.8,
    )
    result.check(
        "independence gives the naive scheme no edge anywhere",
        all(
            independent <= correlated + 0.15
            for correlated, independent in zip(
                correlated_success, independent_success
            )
        ),
    )
    return result
