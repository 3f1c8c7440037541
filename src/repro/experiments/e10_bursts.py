"""E10 — bursty "global interference" noise at matched average rate."""

from __future__ import annotations

from repro.analysis import SweepSpec, format_table, run_sweep_point
from repro.channels import BurstNoiseChannel, CorrelatedNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import ChunkCommitSimulator, RepetitionSimulator
from repro.tasks import InputSetTask

ID = "E10"
TITLE = "Bursty 'global interference' noise robustness"

N = 8
AVERAGE_EPSILON = 0.12
BURST_LENGTHS = (1, 4, 16, 64)
TRIALS = 12


def _channel(burst_length):
    if burst_length == 1:
        return ChannelSpec.of(CorrelatedNoiseChannel, AVERAGE_EPSILON)
    return ChannelSpec.of(
        BurstNoiseChannel.matched_to,
        AVERAGE_EPSILON,
        burst_length=burst_length,
    )


def _point(simulator, burst_length, trials, seed):
    task = InputSetTask(N)
    executor = SimulationExecutor(
        task=task,
        channel=_channel(burst_length),
        simulator=SimulatorSpec.of(simulator),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(4, round(TRIALS * scale))
    rows = []
    repetition_success = []
    chunk_success = []
    chunk_attempts = []
    for burst_length in BURST_LENGTHS:
        repetition = _point(
            RepetitionSimulator,
            burst_length,
            trials,
            seed=seed + 3 * burst_length,
        )
        chunked = _point(
            ChunkCommitSimulator,
            burst_length,
            trials,
            seed=seed + 5 * burst_length,
        )
        repetition_success.append(repetition.success.value)
        chunk_success.append(chunked.success.value)
        chunk_attempts.append(
            chunked.extras.get("mean_chunk_attempts", 0.0)
        )
        rows.append(
            [
                burst_length,
                f"{repetition.success.value:.2f}",
                f"{chunked.success.value:.2f}",
                f"{chunked.extras.get('mean_chunk_attempts', 0):.1f}",
            ]
        )
    table = format_table(
        [
            "burst length",
            "repetition success",
            "chunk-commit success",
            "chunk attempts",
        ],
        rows,
        title=(
            f"E10  bursty noise at equal average rate "
            f"(n={N}, avg epsilon={AVERAGE_EPSILON}, {trials} trials/point)"
        ),
    )
    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "burst_lengths": list(BURST_LENGTHS),
            "repetition_success": repetition_success,
            "chunk_success": chunk_success,
            "chunk_attempts": chunk_attempts,
        },
    )
    result.check(
        "burst length 1 reproduces the i.i.d. results (both >= 0.9)",
        repetition_success[0] >= 0.9 and chunk_success[0] >= 0.9,
    )
    result.check(
        "chunk scheme degrades no worse than repetition at long bursts",
        chunk_success[-1] >= repetition_success[-1],
    )
    result.check(
        "the chunk scheme's defence shows up as retries (or is unneeded)",
        any(attempts > 2.05 for attempts in chunk_attempts)
        or min(chunk_success) == 1.0,
    )
    return result
