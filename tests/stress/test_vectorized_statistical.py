"""Statistical agreement between the vectorized and scalar backends.

The unit-level equivalence suite pins same-seed trials bitwise; these
RUN_SLOW tests make the stronger empirical claim at scale: *independent*
large samples from the two backends estimate the same success
distribution.  For chunk-commit and rewind at n ∈ {8, 32, 128}, and
repetition and hierarchical at n ∈ {8, 32}, the two backends run
disjoint seed ranges and must produce

* overlapping 95% Wilson confidence intervals on the success rate, and
* a chi-square test on the success/failure contingency table that does
  not reject homogeneity (p > 0.001).

Trial counts scale down with n (per-trial cost grows superlinearly —
chunked at n=128 runs ~43k scalar rounds per trial); the n=8 configs run
the full 10k trials per backend.  Run with ``RUN_SLOW=1``; the whole
suite takes a few minutes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channels import CorrelatedNoiseChannel, SuppressionNoiseChannel
from repro.parallel import (
    ChannelSpec,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import InputSetTask
from repro.vectorized import VectorizedRunner

# scheme -> (simulator spec, channel spec); the benchmark's pairings.
SCHEMES = {
    "chunked": (
        SimulatorSpec.of(ChunkCommitSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "rewind": (
        SimulatorSpec.of(RewindSimulator),
        ChannelSpec.of(SuppressionNoiseChannel, 0.1),
    ),
    "repetition": (
        SimulatorSpec.of(RepetitionSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "hierarchical": (
        SimulatorSpec.of(HierarchicalSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
}

#: (scheme, n) grid: chunk/rewind keep their historical n=128 point; the
#: newer repetition/hierarchical collapses stop at n=32 (hierarchical's
#: scalar reference alone runs minutes per backend at n=128).
CONFIGS = [
    (scheme, n)
    for scheme in sorted(SCHEMES)
    for n in ([8, 32, 128] if scheme in ("chunked", "rewind") else [8, 32])
]

#: Trials per backend.  ~10k at n=8; scaled by per-trial cost above.
TRIALS = {8: 10_000, 32: 1_500, 128: 150}

#: Disjoint master seeds so the two samples are independent draws.
SERIAL_SEED = 20_260_807
VECTORIZED_SEED = SERIAL_SEED + 104_729


def _wilson_interval(successes: int, trials: int, z: float = 1.96):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials**2))
        / denom
    )
    return center - margin, center + margin


def _successes(runner, executor, task, trials, seed):
    batch = runner.run_trials(task, executor, trials, seed=seed)
    return sum(record.success for record in batch.records)


@pytest.mark.slow
@pytest.mark.parametrize("scheme,n", CONFIGS)
def test_backends_statistically_agree(scheme, n):
    scipy_stats = pytest.importorskip("scipy.stats")
    simulator, channel = SCHEMES[scheme]
    task = InputSetTask(n)
    executor = SimulationExecutor(
        task=task, channel=channel, simulator=simulator
    )
    trials = TRIALS[n]

    serial_wins = _successes(
        SerialRunner(), executor, task, trials, SERIAL_SEED
    )
    vectorized_runner = VectorizedRunner()
    vectorized_wins = _successes(
        vectorized_runner, executor, task, trials, VECTORIZED_SEED
    )
    assert vectorized_runner.last_fallback_reason is None

    serial_ci = _wilson_interval(serial_wins, trials)
    vectorized_ci = _wilson_interval(vectorized_wins, trials)
    assert serial_ci[0] <= vectorized_ci[1] and vectorized_ci[0] <= serial_ci[1], (
        f"{scheme} n={n}: non-overlapping CIs "
        f"serial={serial_ci} vectorized={vectorized_ci}"
    )

    table = np.array(
        [
            [serial_wins, trials - serial_wins],
            [vectorized_wins, trials - vectorized_wins],
        ]
    )
    if (table.sum(axis=0) == 0).any():
        # A degenerate column (all-success or all-failure on both
        # backends) makes chi-square undefined; the distributions are
        # identical, which is agreement.
        assert serial_wins == vectorized_wins
        return
    result = scipy_stats.chi2_contingency(table)
    assert result.pvalue > 0.001, (
        f"{scheme} n={n}: chi-square rejects homogeneity "
        f"(p={result.pvalue:.2e}, table={table.tolist()})"
    )
