"""E7 — §1.2: correlated vs independent noise + the A.1.2 reduction."""

from __future__ import annotations

import random

from repro.analysis import SweepSpec, format_table, run_sweep_point
from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    SharedFlipReductionChannel,
)
from repro.core import run_protocol
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import RepetitionSimulator
from repro.tasks import InputSetTask

ID = "E7"
TITLE = "Section 1.2: correlated vs independent noise + A.1.2"

N = 8
EPSILON = 0.15
TRIALS = 40
FREQ_TRIALS = 6000


def _agreement_and_success(channel_factory, trials, seed):
    task = InputSetTask(N)
    agree = 0
    correct = 0
    for trial in range(trials):
        inputs = task.sample_inputs(random.Random(seed + trial))
        result = run_protocol(
            task.noiseless_protocol(), inputs, channel_factory(seed + trial)
        )
        agree += result.outputs_agree()
        correct += task.is_correct(inputs, result.outputs)
    return agree / trials, correct / trials


def _simulated_success(channel, trials, seed):
    task = InputSetTask(N)
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(channel, EPSILON),
        simulator=SimulatorSpec.of(RepetitionSimulator),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(10, round(TRIALS * scale))
    sim_trials = max(5, round(20 * scale))
    freq_trials = max(1000, round(FREQ_TRIALS * scale))

    corr_agree, corr_correct = _agreement_and_success(
        lambda s: CorrelatedNoiseChannel(EPSILON, rng=s), trials, seed
    )
    ind_agree, ind_correct = _agreement_and_success(
        lambda s: IndependentNoiseChannel(EPSILON, rng=s), trials, seed + 1
    )
    sim_corr = _simulated_success(
        CorrelatedNoiseChannel, sim_trials, seed=seed + 11
    )
    sim_ind = _simulated_success(
        IndependentNoiseChannel, sim_trials, seed=seed + 13
    )
    table = format_table(
        ["noise model", "raw agree", "raw correct", "repetition-sim correct"],
        [
            [
                "correlated",
                f"{corr_agree:.2f}",
                f"{corr_correct:.2f}",
                f"{sim_corr.success.value:.2f}",
            ],
            [
                "independent",
                f"{ind_agree:.2f}",
                f"{ind_correct:.2f}",
                f"{sim_ind.success.value:.2f}",
            ],
        ],
        title=(
            f"E7a  correlated vs independent noise, InputSet_{N}, "
            f"epsilon={EPSILON}"
        ),
    )

    reduction = SharedFlipReductionChannel(rng=seed + 1)
    direct = CorrelatedNoiseChannel(0.25, rng=seed + 2)
    freq_rows = []
    deltas = []
    for label, pattern in (("OR=0", (0,) * 4), ("OR=1", (1,) + (0,) * 3)):
        reduced = (
            sum(
                reduction.transmit(pattern).common
                for _ in range(freq_trials)
            )
            / freq_trials
        )
        direct_rate = (
            sum(direct.transmit(pattern).common for _ in range(freq_trials))
            / freq_trials
        )
        deltas.append(abs(reduced - direct_rate))
        freq_rows.append([label, f"{reduced:.3f}", f"{direct_rate:.3f}"])
    table += "\n\n" + format_table(
        ["condition", "reduction Pr[receive 1]", "direct eps=1/4"],
        freq_rows,
        title="E7b  A.1.2 reduction vs direct two-sided channel "
        f"({freq_trials} rounds/cell)",
    )

    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "corr_agree": corr_agree,
            "ind_agree": ind_agree,
            "sim_corr": sim_corr.success.value,
            "sim_ind": sim_ind.success.value,
            "reduction_deltas": deltas,
        },
    )
    result.check(
        "correlated noise keeps a shared transcript (agree = 1.0)",
        corr_agree == 1.0,
    )
    result.check(
        "independent noise breaks agreement (< 0.9)", ind_agree < 0.9
    )
    result.check(
        "repetition simulator works under both models (>= 0.85)",
        sim_corr.success.value >= 0.85
        and sim_ind.success.value >= 0.85,
    )
    result.check(
        "A.1.2 reduction matches the direct channel (deltas < 0.03)",
        all(delta < 0.03 for delta in deltas),
    )
    return result
