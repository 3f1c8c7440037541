"""Shared plumbing for the benchmark harness.

``bench_experiments.py`` runs each experiment Ek (see DESIGN.md §3) as
one pytest-benchmark case that

1. runs its measurement sweep inside ``benchmark.pedantic`` (one round —
   the sweeps are Monte-Carlo aggregates, not microbenchmarks);
2. calls :func:`emit` to print its rendered result table and persist it
   under ``benchmarks/results/<id>.txt`` — the artifacts EXPERIMENTS.md
   quotes;
3. asserts the paper-predicted *shape* (slopes, crossovers, who wins).

Layout of ``benchmarks/results/`` (everything lives flat in this one
directory; nothing here is read back by the package at runtime):

* ``eN.txt`` — one rendered result table per experiment, written by
  :func:`emit`; quoted verbatim in EXPERIMENTS.md.
* ``BENCH_<suite>.json`` — one payload per ``bench_micro.py --suite``
  throughput suite: ``engine`` (fast path vs the frozen seed loop),
  ``simulation`` (batch tokens vs the dense path), ``vectorized``
  (trial-batched backends vs the scalar token engine) and ``network``
  (sparse vs dense topology rounds and the batched kernel).
* ``BENCH_sweep_cache.json`` — cold/warm sweep-service rates, written by
  CI's benchmark-smoke job.

The ``BENCH_<suite>.json`` files share one schema convention: a
``results`` list of per-config entries, each carrying the guarded rate,
an anchor rate measured in the same process, and their ratio.  Regression
floors (``--compare``/``--tolerance``) are drift-normalized — scaled by
the anchor's measured/reference ratio, clamped to at most 1 — so a slow
CI machine lowers the floor but a change that slows only the guarded path
does not.
"""

from __future__ import annotations

import argparse
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(experiment_id: str, text: str) -> None:
    """Print a result block and persist it to ``benchmarks/results``."""
    banner = f"\n=== {experiment_id} ===\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment_id.lower().replace(' ', '_')}.txt"
    path.write_text(text + "\n", encoding="utf-8")


def workers_from_env() -> int:
    """Trial-runner workers for the benchmark session.

    ``REPRO_WORKERS=N`` fans every experiment's Monte-Carlo sweeps out
    over an N-worker process pool.  Results (and hence every persisted
    table) are bitwise identical to a serial run — the per-trial seeding
    contract in :mod:`repro.parallel` guarantees it — so this is purely a
    wall-clock knob.  A value that is not a positive integer raises
    :class:`~repro.errors.ConfigurationError`.
    """
    from repro.errors import ConfigurationError
    from repro.service.cli import positive_int

    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        # The --workers rule of both CLIs: a typo must not silently run
        # the whole benchmark session serially.
        raise ConfigurationError(
            f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
        ) from exc


def runner_from_env():
    """A :class:`repro.parallel.TrialRunner` honouring ``REPRO_WORKERS``."""
    from repro.parallel import make_runner

    return make_runner(workers_from_env())
