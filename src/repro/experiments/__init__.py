"""The experiment suite E1–E13, as importable functions.

Each module ``eNN_*`` exposes ``run(seed=0, scale=1.0) ->
ExperimentResult``: the measurement sweep, its rendered table, and the
paper-predicted shape checks.  ``scale`` multiplies trial counts (use
< 1.0 for quick looks, > 1.0 for tighter confidence intervals) — 1.0 is
the published configuration recorded in EXPERIMENTS.md.

Consumers:

* the pytest-benchmark harness (``benchmarks/bench_*.py``) runs each
  experiment once, persists its table under ``benchmarks/results/``, and
  asserts every check;
* the CLI (``python -m repro run-experiment E1``) runs one on demand;
* library users call :func:`run_experiment`, or import :data:`REGISTRY`
  and call ``run`` directly.

Every Monte-Carlo point of E1, E3, E7 (its simulated column), E8, E9,
E10 and E13 is one call to
``run_sweep_point(task, executor, SweepSpec(trials, seed), params=...)``
with the experiment's own seed formula, and the executor is a picklable
:class:`~repro.parallel.executors.SimulationExecutor` (task, channel
recipe, simulator recipe), so :func:`run_experiment`'s default ``auto``
planner can route each batch: collapsed onto the vectorized backend
whenever the simulator has a collapsed form, scalar otherwise.
E11 keeps its own per-trial seeds (``seed + t`` for inputs,
``seed + 977·t`` for the channel) and hands them to the active runner as
explicit seed pairs (``run_trials(..., trial_seeds=...)``), so its
noiseless baseline, repetition and chunk-commit points are planned like
any sweep.

The remaining loops stay hand-written because each reads something a
trial record does not carry:

* E2 runs ``input_set_formal_protocol`` over a range of repetition
  factors with the unanimous decision rule, a protocol family rather
  than its task's own protocol;
* E4 draws every execution's inputs from one shared ``random.Random``
  per point, and runs each owners phase through
  :func:`~repro.vectorized.simulate_owners` (bitwise the scalar
  ``run_protocol``);
* E5 is an exact enumeration of the ζ analysis;
* E6 reads transcripts;
* E7a reads per-party outputs;
* E12 reads the adversary's spent budget.

InputSet's own protocol is ``input_set_formal_protocol(n)``; E6 calls
it as ``task.noiseless_protocol()``.  E2, E5 and E6 run it (E2 and E5
also repetition-hardened) as ``Burst``/``Silence`` tokens, so the
engine's scheduler transmits each stretch in one block with the same
channel draws, and the exact ζ analysis reads beep masks off its
schedule.
"""

from __future__ import annotations

from types import ModuleType
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.runner import TrialRunner
from repro.experiments import (
    e01_overhead,
    e02_budget,
    e03_asymmetry,
    e04_owners,
    e05_zeta,
    e06_good_players,
    e07_noise_models,
    e08_long_protocols,
    e09_hierarchy,
    e10_bursts,
    e11_energy,
    e12_adversary,
    e13_independence,
)
from repro.experiments.base import Check, ExperimentResult

__all__ = [
    "Check",
    "ExperimentResult",
    "REGISTRY",
    "get_experiment",
    "run_experiment",
]

_MODULES: tuple[ModuleType, ...] = (
    e01_overhead,
    e02_budget,
    e03_asymmetry,
    e04_owners,
    e05_zeta,
    e06_good_players,
    e07_noise_models,
    e08_long_protocols,
    e09_hierarchy,
    e10_bursts,
    e11_energy,
    e12_adversary,
    e13_independence,
)

REGISTRY: dict[str, ModuleType] = {
    module.ID: module for module in _MODULES
}


def get_experiment(experiment_id: str) -> ModuleType:
    """The experiment module for ``experiment_id`` (case-insensitive)."""
    key = experiment_id.upper().strip()
    if key not in REGISTRY:
        known = ", ".join(sorted(REGISTRY, key=lambda e: int(e[1:])))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    return REGISTRY[key]


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    scale: float = 1.0,
    *,
    workers: int = 1,
    backend: str | None = "auto",
    runner: "TrialRunner | None" = None,
) -> ExperimentResult:
    """Run one experiment by id.

    The experiment's Monte-Carlo sweeps run on
    ``make_runner(workers, backend=backend)``: by default the calibrated
    ``auto`` planner, which collapses the batches it has a measured win
    for and runs the rest serially (or over a pool of ``workers``).
    ``runner`` passes an existing
    :class:`~repro.parallel.runner.TrialRunner` instead; the caller then
    owns its lifetime.  Results are bitwise identical either way — the
    per-trial seeding contract makes the backend invisible to the data.
    """
    from repro.parallel import make_runner, use_runner

    module = get_experiment(experiment_id)
    active = (
        runner if runner is not None else make_runner(workers, backend=backend)
    )
    try:
        with use_runner(active):
            return module.run(seed=seed, scale=scale)
    finally:
        if runner is None:
            active.close()
