"""E4 — Theorem D.1: the finding-owners phase works w.h.p. at Θ(log n)
per-codeword cost, with ML no worse than min-distance decoding.

Every execution runs through :func:`~repro.vectorized.simulate_owners`,
the party-collapsed owners phase, which is bitwise the scalar
``run_protocol`` execution; the trials' inputs still come from one
shared ``random.Random`` per point.
"""

from __future__ import annotations

import math
import random

from repro.analysis import format_table
from repro.channels import CorrelatedNoiseChannel
from repro.coding import MinDistanceDecoder
from repro.core.formal import NoiseModel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.simulation.owners import OwnersProtocol, build_owners_code
from repro.vectorized import simulate_owners

ID = "E4"
TITLE = "Theorem D.1: finding-owners phase"

NS = (4, 8, 16)
EPSILON = 0.2
TRIALS = 25
RATE_CONSTANT = 16.0


def _perfect_rate(
    n: int, decoder_kind: str, trials: int, seed: int
) -> tuple[float, int]:
    rng = random.Random(seed)
    code = build_owners_code(n, rate_constant=RATE_CONSTANT)
    perfect = 0
    rounds = 0
    for trial in range(trials):
        bits = [
            tuple(rng.getrandbits(1) for _ in range(n)) for _ in range(n)
        ]
        pi = tuple(max(column) for column in zip(*bits))
        protocol = OwnersProtocol(
            n, pi, NoiseModel.two_sided(EPSILON), code=code
        )
        if decoder_kind == "min-distance":
            protocol.decoder = MinDistanceDecoder(code)  # type: ignore[assignment]
        channel = CorrelatedNoiseChannel(EPSILON, rng=seed + 101 * trial)
        result = simulate_owners(protocol, bits, channel)
        rounds = result.rounds
        reference = result.outputs[0].owners
        consistent = all(out.owners == reference for out in result.outputs)
        valid = all(
            bits[owner][pos] == 1 for pos, owner in reference.items()
        )
        covering = set(reference) == {m for m in range(n) if pi[m] == 1}
        perfect += consistent and valid and covering
    return perfect / trials, rounds


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(5, round(TRIALS * scale))
    rows = []
    ml_rates = []
    md_rates = []
    ratios = []
    for n in NS:
        ml_rate, rounds = _perfect_rate(n, "ml", trials, seed=seed + 11 * n)
        md_rate, _ = _perfect_rate(
            n, "min-distance", trials, seed=seed + 11 * n
        )
        code = build_owners_code(n, rate_constant=RATE_CONSTANT)
        ml_rates.append(ml_rate)
        md_rates.append(md_rate)
        ratio = code.codeword_length / math.log2(n + 2)
        ratios.append(ratio)
        rows.append(
            [
                n,
                code.codeword_length,
                f"{ratio:.1f}",
                rounds,
                f"{ml_rate:.2f}",
                f"{md_rate:.2f}",
            ]
        )
    table = format_table(
        [
            "n",
            "codeword L",
            "L / log2(n+2)",
            "rounds (last run)",
            "perfect (ML)",
            "perfect (min-dist)",
        ],
        rows,
        title=(
            f"E4  finding-owners phase, two-sided epsilon={EPSILON}, "
            f"c={RATE_CONSTANT} ({trials} trials/point)"
        ),
    )
    # E4b — code-family ablation at n = 8: the Θ(log n)-length greedy
    # random code vs the Hadamard code (distance 1/2 but length Θ(n)) vs
    # a bare repetition code at matched length.
    from repro.coding import HadamardCode, RepetitionCode
    from repro.simulation.owners import position_symbol

    ablation_rows = []
    ablation_rates = {}
    n = 8
    # Alphabet: n positions plus the SILENCE/NEXT sentinels.
    alphabet = position_symbol(n)
    random_code = build_owners_code(n, rate_constant=RATE_CONSTANT)
    codes = {
        "greedy random": random_code,
        "hadamard": HadamardCode(alphabet),
        "repetition": RepetitionCode(
            alphabet,
            repetitions=max(
                1, random_code.codeword_length // alphabet.bit_length()
            ),
        ),
    }
    rng = random.Random(seed + 999)
    for label, code in codes.items():
        perfect = 0
        for trial in range(trials):
            bits = [
                tuple(rng.getrandbits(1) for _ in range(n))
                for _ in range(n)
            ]
            pi = tuple(max(column) for column in zip(*bits))
            protocol = OwnersProtocol(
                n, pi, NoiseModel.two_sided(EPSILON), code=code
            )
            channel = CorrelatedNoiseChannel(
                EPSILON, rng=seed + 7001 + trial
            )
            execution = simulate_owners(protocol, bits, channel)
            reference = execution.outputs[0].owners
            ok = (
                all(
                    out.owners == reference
                    for out in execution.outputs
                )
                and all(
                    bits[owner][pos] == 1
                    for pos, owner in reference.items()
                )
                and set(reference)
                == {m for m in range(n) if pi[m] == 1}
            )
            perfect += ok
        ablation_rates[label] = perfect / trials
        ablation_rows.append(
            [
                label,
                code.codeword_length,
                code.min_distance(),
                f"{perfect / trials:.2f}",
            ]
        )
    table += "\n\n" + format_table(
        ["code family", "length L", "min distance", "perfect rate"],
        ablation_rows,
        title=f"E4b  owners-code family ablation (n={n}, "
        f"epsilon={EPSILON})",
    )

    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(NS),
            "ml_rates": ml_rates,
            "md_rates": md_rates,
            "code_ablation": ablation_rates,
        },
    )
    result.check(
        "the greedy random code matches or beats bare repetition",
        ablation_rates["greedy random"]
        >= ablation_rates["repetition"] - 0.1,
    )
    result.check(
        "perfect-run rate near 1 at every n (>= 0.8)",
        min(ml_rates) >= 0.8,
    )
    result.check(
        "ML decoding no worse than min-distance",
        all(ml >= md - 0.1 for ml, md in zip(ml_rates, md_rates)),
    )
    result.check(
        "codeword length is Theta(log n) (constant L/log ratio)",
        max(ratios) - min(ratios) < 4.0,
    )
    return result
