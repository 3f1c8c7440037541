"""E1–E13: the paper's experiments, one pytest-benchmark case each.

The measurement sweeps, their result tables and the paper-predicted
shape checks live in :mod:`repro.experiments` (DESIGN.md §3 maps each
experiment to its claim).  Each case runs its experiment once inside
``benchmark.pedantic`` (it is a Monte-Carlo harness, not a
microbenchmark), persists the table under ``benchmarks/results/`` (the
artifact EXPERIMENTS.md quotes) and asserts every shape check.  Cases
follow :data:`repro.experiments.REGISTRY` in numeric order, so a new
experiment is benchmarked without an edit here::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py \\
        --benchmark-only -k E3
"""

import pytest

from _harness import emit

from repro.experiments import REGISTRY, run_experiment


@pytest.mark.parametrize(
    "experiment_id", sorted(REGISTRY, key=lambda key: int(key[1:]))
)
def test_experiment(benchmark, experiment_id):
    result = benchmark.pedantic(
        lambda: run_experiment(experiment_id), rounds=1, iterations=1
    )
    emit(experiment_id, result.table)
    result.raise_on_failure()
