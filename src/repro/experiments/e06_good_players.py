"""E6 — Lemmas B.8 + C.5: good players abound for short protocols."""

from __future__ import annotations

import random

from repro.analysis import format_table
from repro.channels import OneSidedNoiseChannel
from repro.core import run_protocol
from repro.experiments.base import ExperimentResult, validate_scale
from repro.lowerbound.feasible import feasible_sizes
from repro.lowerbound.good_players import (
    large_feasible_players,
    lemma_b8_bound,
    sample_unique_counts,
    unique_input_players,
)
from repro.tasks import InputSetTask

ID = "E6"
TITLE = "Lemmas B.8+C.5: good players abound"

NS = (8, 16, 32)
EPSILON = 1.0 / 3.0
B8_TRIALS = 2000
EXEC_TRIALS = 40


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    b8_trials = max(200, round(B8_TRIALS * scale))
    exec_trials = max(10, round(EXEC_TRIALS * scale))

    b8_rows = []
    margins = []
    for n in NS:
        counts = sample_unique_counts(
            n, 2 * n, trials=b8_trials, rng=seed + n
        )
        tail = sum(1 for c in counts if c <= n / 3) / len(counts)
        bound = lemma_b8_bound(n, 2 * n)
        mean_unique = sum(counts) / len(counts) / n
        margins.append(bound - tail)
        b8_rows.append(
            [n, f"{mean_unique:.3f}", f"{tail:.4f}", f"{bound:.3f}"]
        )

    gp_rows = []
    good_rates = []
    for n in NS:
        task = InputSetTask(n)
        # The task's own protocol is formal: executions run it on its
        # beep schedule, and the feasible-set analysis reads its masks.
        formal = task.noiseless_protocol()
        good_event = 0
        mean_feasible = 0.0
        for trial in range(exec_trials):
            inputs = task.sample_inputs(random.Random(seed + 1000 + trial))
            channel = OneSidedNoiseChannel(
                EPSILON, rng=seed + 2000 + trial
            )
            result = run_protocol(formal, inputs, channel, record_sent=False)
            pi = result.transcript.common_view()
            sizes = feasible_sizes(formal, pi)
            mean_feasible += sum(sizes) / len(sizes)
            good = unique_input_players(inputs) & large_feasible_players(
                formal, pi
            )
            good_event += len(good) >= n / 4
        good_rates.append(good_event / exec_trials)
        gp_rows.append(
            [
                n,
                f"{mean_feasible / exec_trials:.1f}",
                2 * n,
                f"{good_event / exec_trials:.2f}",
            ]
        )

    table = format_table(
        ["n", "mean unique frac", "Pr[|I| <= n/3]", "B.8 bound"],
        b8_rows,
        title=f"E6a  Lemma B.8 Monte Carlo ({b8_trials} trials/point)",
    )
    table += "\n\n" + format_table(
        ["n", "mean |S^i(pi)|", "universe 2n", "Pr[|G| >= n/4]"],
        gp_rows,
        title=(
            "E6b  good players after noisy InputSet executions "
            f"(one-sided epsilon=1/3, {exec_trials} trials/point)"
        ),
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(NS),
            "b8_margins": margins,
            "good_rates": good_rates,
        },
    )
    result.check(
        "Lemma B.8 bound respected with margin",
        all(margin > 0 for margin in margins),
    )
    result.check(
        "good event far above Lemma C.5's 1/3 floor",
        all(rate >= 1 / 3 for rate in good_rates),
    )
    return result
