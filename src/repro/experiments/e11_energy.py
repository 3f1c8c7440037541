"""E11 — the energy (beeps per party) price of noise resilience."""

from __future__ import annotations

from repro.analysis import fit_log, format_table
from repro.channels import CorrelatedNoiseChannel, NoiselessChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import (
    ChannelSpec,
    ProtocolExecutor,
    SimulationExecutor,
    SimulatorSpec,
    get_default_runner,
)
from repro.simulation import ChunkCommitSimulator, RepetitionSimulator
from repro.tasks import InputSetTask

ID = "E11"
TITLE = "Energy (beeps/party) cost of noise resilience"

NS = (4, 8, 16, 32, 64)
EPSILON = 0.1
TRIALS = 3


def _mean_energy(n, simulator, trials, seed):
    """Mean beeps per party over ``trials`` runs on the active runner.

    Trial ``t`` samples its inputs from ``random.Random(seed + t)`` and
    seeds its channel with ``seed + 977·t``: E11's own seeding, passed to
    the runner as explicit seed pairs.  ``simulator`` is ``None`` for the
    noiseless baseline (the raw protocol over a noiseless channel).
    """
    task = InputSetTask(n)
    if simulator is None:
        executor = ProtocolExecutor(
            task, ChannelSpec.of(NoiselessChannel, seed_kwarg=None)
        )
    else:
        executor = SimulationExecutor(
            task,
            ChannelSpec.of(CorrelatedNoiseChannel, EPSILON),
            SimulatorSpec.of(simulator),
        )
    batch = get_default_runner().run_trials(
        task,
        executor,
        trials,
        trial_seeds=[(seed + t, seed + 977 * t) for t in range(trials)],
    )
    total = 0.0
    for record in batch.records:
        total += record.total_energy / n
    return total / trials


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(1, round(TRIALS * scale))
    ns = NS if scale >= 1.0 else NS[: max(2, int(len(NS) * scale) + 1)]

    rows = []
    repetition_energy = []
    chunk_energy = []
    for n in ns:
        baseline = _mean_energy(n, None, trials, seed=seed + n)
        repetition = _mean_energy(
            n, RepetitionSimulator, trials, seed=seed + 2 * n
        )
        chunked = _mean_energy(
            n, ChunkCommitSimulator, trials, seed=seed + 3 * n
        )
        repetition_energy.append(repetition)
        chunk_energy.append(chunked)
        rows.append(
            [n, f"{baseline:.1f}", f"{repetition:.1f}", f"{chunked:.1f}"]
        )
    repetition_fit = fit_log(list(ns), repetition_energy)
    chunk_fit = fit_log(list(ns), chunk_energy)
    table = format_table(
        [
            "n",
            "noiseless beeps/party",
            "repetition beeps/party",
            "chunk-commit beeps/party",
        ],
        rows,
        title=(
            f"E11  energy per party on InputSet_n "
            f"(epsilon={EPSILON}, {trials} trials/point)"
        ),
    )
    table += (
        f"\nrepetition energy log-slope: {repetition_fit.slope:.1f}"
        f"\nchunk       energy log-slope: {chunk_fit.slope:.1f}"
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "ns": list(ns),
            "repetition_energy": repetition_energy,
            "chunk_energy": chunk_energy,
        },
    )
    result.check(
        "repetition energy grows logarithmically (slope > 1)",
        repetition_fit.slope > 1.0,
    )
    result.check(
        "chunk energy grows logarithmically (slope > 1)",
        chunk_fit.slope > 1.0,
    )
    result.check(
        "chunk energy stays sublinear in n",
        chunk_energy[-1] < chunk_energy[0] * (ns[-1] / ns[0]),
    )
    result.check(
        "the owners phase makes the chunk scheme costlier",
        all(
            chunk >= repetition
            for chunk, repetition in zip(chunk_energy, repetition_energy)
        ),
    )
    return result
