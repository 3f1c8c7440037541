"""Measurement utilities: Monte-Carlo sweeps, statistics, fits, tables.

The benchmarks estimate success probabilities and overheads by repeated
simulation; this package supplies the shared tooling:

* :mod:`~repro.analysis.stats` — means, Wilson score intervals for
  proportions, summary aggregates;
* :mod:`~repro.analysis.fitting` — least-squares fits of ``a + b·log₂ n``
  (the overhead shape Theorems 1.1/1.2 predict) and goodness-of-fit;
* :mod:`~repro.analysis.sweep` — drive a (simulator, task, channel) triple
  over parameter grids, collecting success/overhead estimates;
* :mod:`~repro.analysis.tables` — the ASCII tables printed by the
  benchmark harness and recorded in EXPERIMENTS.md.
"""

from repro.analysis.stats import (
    ProportionEstimate,
    mean,
    sample_std,
    wilson_interval,
)
from repro.analysis.fitting import LogFit, fit_log, fit_linear
from repro.analysis.sweep import (
    SweepPoint,
    SweepSpec,
    run_sweep,
    run_sweep_point,
)
from repro.analysis.tables import format_table
from repro.analysis.plot import ascii_plot
from repro.analysis.reporting import generate_report

__all__ = [
    "ProportionEstimate",
    "mean",
    "sample_std",
    "wilson_interval",
    "LogFit",
    "fit_log",
    "fit_linear",
    "SweepPoint",
    "SweepSpec",
    "run_sweep_point",
    "run_sweep",
    "format_table",
    "ascii_plot",
    "generate_report",
]
