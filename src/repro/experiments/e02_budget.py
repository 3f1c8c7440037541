"""E2 — Theorem 1.1/C.1 shape: noisy ``InputSet_n`` needs ~n·log n rounds.

For each n, run the repetition-hardened ``InputSet`` protocol (with the
one-sided-optimal unanimous rule) over the one-sided ε = 1/3 channel —
Theorem C.1's exact model — and find the smallest repetition count r
(round budget T = 2n·r) reaching 75% success.  Predicted shape: the naive
2n-round protocol collapses; r* grows with n, tracking log₂(2n).
"""

from __future__ import annotations

import math
import random

from repro.analysis import format_table
from repro.channels import OneSidedNoiseChannel
from repro.core import run_protocol
from repro.experiments.base import ExperimentResult, validate_scale
from repro.tasks import InputSetTask
from repro.tasks.input_set import input_set_formal_protocol

ID = "E2"
TITLE = "Theorem 1.1 shape: noisy InputSet needs n*log n rounds"

NS = (4, 8, 16, 32)
EPSILON = 1.0 / 3.0
TRIALS = 60
TARGET = 0.75
MAX_REPS = 16


def _success_rate(
    n: int, repetitions: int, trials: int, seed: int
) -> float:
    task = InputSetTask(n)
    protocol = input_set_formal_protocol(
        n, repetitions=repetitions, decision="unanimous"
    )
    wins = 0
    for trial in range(trials):
        inputs = task.sample_inputs(random.Random(seed + trial))
        channel = OneSidedNoiseChannel(EPSILON, rng=seed + 7919 * trial)
        result = run_protocol(protocol, inputs, channel, record_sent=False)
        wins += task.is_correct(inputs, result.outputs)
    return wins / trials


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(10, round(TRIALS * scale))
    rows = []
    minimal_reps = []
    naive_success = []
    for n in NS:
        base = _success_rate(n, 1, trials, seed=seed + 17 * n)
        naive_success.append(base)
        needed = None
        for repetitions in range(1, MAX_REPS + 1):
            rate = _success_rate(
                n, repetitions, trials, seed=seed + 31 * n + repetitions
            )
            if rate >= TARGET:
                needed = repetitions
                break
        minimal_reps.append(needed if needed is not None else MAX_REPS + 1)
        rows.append(
            [
                n,
                2 * n,
                f"{base:.2f}",
                needed if needed is not None else f">{MAX_REPS}",
                2 * n * (needed or MAX_REPS + 1),
                f"{math.log2(2 * n):.1f}",
            ]
        )
    table = format_table(
        [
            "n",
            "noiseless T",
            "naive success",
            "min reps r*",
            "T_min = 2n*r*",
            "log2(2n)",
        ],
        rows,
        title=(
            "E2  minimal round budget for 75% success on InputSet_n, "
            f"one-sided epsilon=1/3 ({trials} trials/point)"
        ),
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(NS),
            "naive_success": naive_success,
            "minimal_reps": minimal_reps,
        },
    )
    result.check(
        "unprotected protocol collapses at the largest n (< 0.2)",
        naive_success[-1] < 0.2,
    )
    result.check(
        "unprotected success does not improve with n",
        naive_success[-1] <= naive_success[0] + 0.05,
    )
    result.check(
        "required repetition factor grows with n",
        minimal_reps[-1] > minimal_reps[0],
    )
    result.check(
        "required factor stays logarithmic (<= 4 log2(2n))",
        minimal_reps[-1] <= 4 * math.log2(2 * NS[-1]),
    )
    return result
