"""Parallel Monte-Carlo trial running.

This package makes every sweep in :mod:`repro.analysis.sweep` pluggable
over a :class:`TrialRunner` backend:

* :class:`SerialRunner` — the historical in-process loop;
* ``VectorizedRunner`` (:mod:`repro.vectorized`) — party-collapsed
  numpy batches, in-process;
* :class:`ProcessPoolRunner` — contiguous trial stripes over a reusable
  process pool, each worker running an in-process ``inner`` runner
  (``SerialRunner`` for ``process``, ``VectorizedRunner`` for
  ``vectorized-process``) and reporting one ``worker_chunk`` trace event
  per stripe, with graceful in-process fallback;
* :class:`~repro.parallel.planner.AutoRunner` (``backend="auto"``) — a
  per-batch planner routing between all of the above on a measured
  crossover table (``repro bench calibrate``).

All backends produce **bitwise identical** results for the same master
seed (see :mod:`repro.parallel.runner` for the determinism contract), so
switching is purely a wall-clock decision: ``--workers N`` /
``--backend`` on the CLI, ``REPRO_WORKERS=N`` for the benchmark harness,
or :func:`use_runner` / :func:`set_default_runner` from code.

Closure executors run serially only: they cannot cross process
boundaries, and the planner cannot classify them.  The picklable specs
in :mod:`repro.parallel.executors` (:class:`ProtocolExecutor`,
:class:`SimulationExecutor`) run on every backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError
from repro.parallel.executors import (
    ChannelSpec,
    ProtocolExecutor,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.parallel.runner import (
    InProcessRunner,
    ProcessPoolRunner,
    SerialRunner,
    TrialBatch,
    TrialRecord,
    TrialRunner,
    run_trial,
)

__all__ = [
    "TrialRunner",
    "InProcessRunner",
    "SerialRunner",
    "ProcessPoolRunner",
    "TrialRecord",
    "TrialBatch",
    "run_trial",
    "ChannelSpec",
    "SimulatorSpec",
    "ProtocolExecutor",
    "SimulationExecutor",
    "make_runner",
    "RUNNER_BACKENDS",
    "get_default_runner",
    "set_default_runner",
    "use_runner",
]

_default_runner: TrialRunner = SerialRunner()


#: Backend names ``make_runner`` accepts (the CLI's ``--backend`` choices).
RUNNER_BACKENDS = (
    "auto",
    "serial",
    "process",
    "vectorized",
    "vectorized-process",
)


def make_runner(
    workers: int | None = 1, backend: str | None = None
) -> TrialRunner:
    """A runner from the backend registry.

    ``backend`` selects explicitly: ``"serial"``, ``"process"`` (a pool
    of ``workers``, each running serial stripes), ``"vectorized"`` (the
    trial-batched numpy backend of :mod:`repro.vectorized`; scalar
    fallback for batches it cannot collapse), or
    ``"vectorized-process"`` (the composed backend: the same pool, each
    worker running a vectorized stripe).  ``"auto"`` returns the
    calibrated per-batch planner
    (:class:`~repro.parallel.planner.AutoRunner`), which routes each
    batch on the measured crossover table.  ``None`` keeps the
    historical rule: serial when ``workers <= 1``, a process pool
    otherwise.  Every backend honours the determinism contract, so the
    choice is purely a wall-clock decision.

    Raises:
        ConfigurationError: ``workers`` is below 1 (for every backend;
            ``None`` is allowed), or ``backend`` is unknown.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if backend is None:
        backend = "serial" if workers is None or workers <= 1 else "process"
    if backend == "auto":
        # Imported lazily, like the vectorized backends it plans over.
        from repro.parallel.planner import AutoRunner

        return AutoRunner(workers=workers)
    if backend == "serial":
        return SerialRunner()
    if backend == "process":
        return ProcessPoolRunner(workers)
    if backend in ("vectorized", "vectorized-process"):
        # Imported lazily: the vectorized package needs numpy only at
        # construction, and serial/process users shouldn't pay for it.
        from repro.vectorized import VectorizedRunner

        if backend == "vectorized":
            return VectorizedRunner()
        return ProcessPoolRunner(workers, inner=VectorizedRunner)
    raise ConfigurationError(
        f"unknown runner backend {backend!r}; "
        f"expected one of {', '.join(RUNNER_BACKENDS)}"
    )


def get_default_runner() -> TrialRunner:
    """The runner sweeps use when no explicit ``runner=`` is passed."""
    return _default_runner


def set_default_runner(runner: TrialRunner | None) -> None:
    """Install the process-wide default runner (``None`` resets to serial).

    The caller keeps ownership: closing a previously installed pool is
    the caller's job (see :func:`use_runner` for scoped installs).
    """
    global _default_runner
    _default_runner = runner if runner is not None else SerialRunner()


@contextmanager
def use_runner(runner: TrialRunner | None) -> Iterator[TrialRunner]:
    """Scoped :func:`set_default_runner`: restores the previous default.

    Does not close ``runner`` on exit — reuse it across several scopes
    and close it once.
    """
    previous = get_default_runner()
    set_default_runner(runner)
    try:
        yield get_default_runner()
    finally:
        set_default_runner(previous)
