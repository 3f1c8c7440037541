"""E8 — Theorem 1.2 amortisation: overhead flat in protocol length T,
plus the chunk-length ablation (paper: chunk = n)."""

from __future__ import annotations

from repro.analysis import SweepSpec, format_table, run_sweep_point
from repro.channels import CorrelatedNoiseChannel
from repro.experiments.base import ExperimentResult, validate_scale
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.simulation import ChunkCommitSimulator, SimulationParameters
from repro.tasks import MaxIdTask

ID = "E8"
TITLE = "Rewind amortisation over long protocols + chunk ablation"

N = 8
EPSILON = 0.15
LENGTHS = (8, 16, 32, 64)  # id_bits == protocol length T
TRIALS = 5


def _point(id_bits, params, trials, seed):
    task = MaxIdTask(N, id_bits=id_bits)
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, EPSILON),
        simulator=SimulatorSpec.of(ChunkCommitSimulator, params),
    )
    return run_sweep_point(task, executor, SweepSpec(trials, seed))


def run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    validate_scale(scale)
    trials = max(2, round(TRIALS * scale))

    rows = []
    overheads = []
    completion = []
    for id_bits in LENGTHS:
        point = _point(
            id_bits, SimulationParameters(), trials, seed=seed + 3 * id_bits
        )
        overheads.append(point.mean_overhead)
        completion.append(point.extras.get("completion_rate", 0.0))
        rows.append(
            [
                id_bits,
                f"{point.success.value:.2f}",
                f"{point.mean_overhead:.1f}",
                f"{point.extras.get('mean_chunk_attempts', 0):.1f}",
                f"{point.extras.get('completion_rate', 0):.2f}",
            ]
        )
    table = format_table(
        ["T", "success", "overhead", "mean attempts", "completed"],
        rows,
        title=(
            f"E8a  chunk-commit vs protocol length (n={N}, "
            f"epsilon={EPSILON}, {trials} trials/point)"
        ),
    )

    ablation_rows = []
    ablation_success = []
    for chunk in (N // 2, N, 2 * N):
        point = _point(
            32,
            SimulationParameters(chunk_length=chunk),
            trials,
            seed=seed + 7 * chunk,
        )
        ablation_success.append(point.success.value)
        ablation_rows.append(
            [
                chunk,
                f"{point.success.value:.2f}",
                f"{point.mean_overhead:.1f}",
                f"{point.extras.get('mean_chunk_attempts', 0):.1f}",
            ]
        )
    table += "\n\n" + format_table(
        ["chunk length", "success", "overhead", "mean attempts"],
        ablation_rows,
        title="E8b  chunk-length ablation at T=32 (paper: chunk = n)",
    )

    result = ExperimentResult(
        experiment_id=ID,
        title=TITLE,
        table=table,
        data={
            "lengths": list(LENGTHS),
            "overheads": overheads,
            "completion": completion,
            "ablation_success": ablation_success,
        },
    )
    result.check(
        "overhead flat in T (longest within 35% of shortest)",
        overheads[-1] <= overheads[0] * 1.35,
    )
    result.check(
        "completion near-certain at every length (>= 0.8)",
        all(rate >= 0.8 for rate in completion),
    )
    result.check(
        "every ablated chunk length still succeeds (>= 0.6)",
        all(success >= 0.6 for success in ablation_success),
    )
    return result
