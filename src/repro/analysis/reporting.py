"""Markdown report generation from the experiment suite.

``python -m repro report`` runs every experiment (optionally scaled down)
and writes one self-contained markdown document: claim, result table, and
check verdicts per experiment, plus a summary table — a regenerable
EXPERIMENTS.md companion for the exact machine/seed it ran on.
"""

from __future__ import annotations

import gc
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments import ExperimentResult

__all__ = ["generate_report"]


def generate_report(
    seed: int = 0,
    scale: float = 1.0,
    only: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    backend: str | None = "auto",
) -> str:
    """Run experiments and render one markdown report.

    Args:
        seed: Master seed forwarded to every experiment.
        scale: Trial multiplier forwarded to every experiment.
        only: Restrict to these experiment ids (default: all).  Every id,
            and ``scale``, is checked before any experiment runs, so an
            unknown id or a non-positive scale raises
            :class:`~repro.errors.ConfigurationError` up front.
        progress: Optional callback invoked with each experiment id as it
            starts (the CLI uses it for live feedback).
        workers: Trial-runner workers for the experiments' sweeps.
        backend: Trial-runner backend (see
            :func:`~repro.parallel.make_runner`); the default ``auto``
            planner runs each collapsible sweep batch vectorized.  Each experiment gets its own runner, closed when the
            experiment ends, so one experiment's pools and codebook
            caches never outlive it.  The report content is
            seed-determined and identical for every backend and worker
            count.

    Returns:
        The report as a markdown string.
    """
    # Imported lazily: repro.experiments itself imports repro.analysis
    # (the sweep/fit/table tooling), so a module-level import here would
    # be circular.
    from repro.experiments import REGISTRY, get_experiment, run_experiment
    from repro.experiments.base import validate_scale

    validate_scale(scale)
    if only is None:
        modules = list(REGISTRY.values())
    else:
        modules = [get_experiment(identifier) for identifier in only]
    modules.sort(key=lambda module: int(module.ID[1:]))
    results: list["ExperimentResult"] = []
    for module in modules:
        if progress is not None:
            progress(module.ID)
        results.append(
            run_experiment(
                module.ID, seed, scale, workers=workers, backend=backend
            )
        )
        # Free the finished experiment's garbage (batch state, closed
        # runner) before the next one allocates, so the report's peak
        # memory is one experiment's, not the sum of their leftovers.
        gc.collect()

    lines: list[str] = [
        "# Noisy Beeps — experiment report",
        "",
        f"Generated by `python -m repro report` (seed={seed}, "
        f"scale={scale}).  See EXPERIMENTS.md for the interpreted "
        "paper-vs-measured record.",
        "",
        "## Summary",
        "",
        "| id | claim | checks |",
        "|---|---|---|",
    ]
    for result in results:
        passed = sum(1 for check in result.checks if check.passed)
        verdict = f"{passed}/{len(result.checks)} passed"
        if not result.all_passed:
            verdict += " **(FAIL)**"
        lines.append(
            f"| {result.experiment_id} | {result.title} | {verdict} |"
        )
    lines.append("")

    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}")
        lines.append("")
        lines.append("```")
        lines.append(result.table)
        lines.append("```")
        lines.append("")
        for check in result.checks:
            mark = "x" if check.passed else " "
            lines.append(f"- [{mark}] {check.description}")
        lines.append("")
    return "\n".join(lines)
