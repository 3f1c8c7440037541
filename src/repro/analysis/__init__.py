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

from repro._exports import lazy_exports

_EXPORTS = {
    "ProportionEstimate": "repro.analysis.stats",
    "mean": "repro.analysis.stats",
    "sample_std": "repro.analysis.stats",
    "wilson_interval": "repro.analysis.stats",
    "LogFit": "repro.analysis.fitting",
    "fit_log": "repro.analysis.fitting",
    "fit_linear": "repro.analysis.fitting",
    "SweepPoint": "repro.analysis.sweep",
    "SweepSpec": "repro.analysis.sweep",
    "run_sweep_point": "repro.analysis.sweep",
    "run_sweep": "repro.analysis.sweep",
    "format_table": "repro.analysis.tables",
    "ascii_plot": "repro.analysis.plot",
    "generate_report": "repro.analysis.reporting",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
