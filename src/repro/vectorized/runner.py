"""The trial-batched vectorized backend.

:class:`VectorizedRunner` is an in-process backend (an
:class:`~repro.parallel.runner.InProcessRunner`, like ``SerialRunner``);
``ProcessPoolRunner(inner=VectorizedRunner)`` stripes it across a pool.
It targets the scalar engine's worst cases — the chunk-commit scheme's
``n²`` inner-party replays and the rewind scheme's strictly sequential
alarm rounds — by running each trial through the party-collapsed
simulations of :mod:`repro.vectorized.schemes`, each drawing its shared
noise from a :class:`~repro.vectorized.noise.FlipStream` over a copy of
the trial channel's generator, with ML decoding batched over the
codebook (:meth:`~repro.coding.ml.MLDecoder.decode_batch`, one decoder
per parameter point and process).

The determinism contract of :mod:`repro.parallel.runner` is preserved
*bitwise*: a single-hop batch runs through the scalar trial loop itself
(``_scalar_records``), with an executor that builds each trial's channel
from ``executor.channel.make(executor seed)`` and calls the collapsed
scheme where :class:`~repro.parallel.executors.SimulationExecutor` calls
``simulate``; the collapsed schemes replay the scalar RNG draw order
flip for flip and return the same
:class:`~repro.core.result.ExecutionResult` fields.  Any trial a
vectorized sweep records can therefore be replayed on the scalar engine
from its seed pair alone, which is what the cross-backend equivalence
suite does.

Single-hop batches collapse over the channel families of
:data:`~repro.vectorized.schemes.CHANNEL_KINDS`: noiseless, correlated,
one-sided, suppression, burst (Gilbert–Elliott, its noise pulled from
each trial's channel) and independent noise (repetition only; the
shared-transcript schemes raise the scalar "requires a correlated
channel" error).  Which flip source a family uses is decided in one
place, :func:`~repro.vectorized.schemes.flip_source`.

Graph-topology batches route to the trial-batched CSR kernel of
:mod:`repro.vectorized.network` instead: the network protocol families
(neighbor-OR, broadcast, MIS) raw or under the local-broadcast
repetition wrapper, over a single-noise-kind ``NetworkBeepingChannel``;
that route runs every trial of the batch in one kernel, its noise
prefetched per trial by :class:`~repro.vectorized.noise.BatchFlips`.
Batches neither model collapses (simulators outside both registries,
adversarial and reduction channels, per-node epsilon vectors) run
through the scalar :func:`run_trial` loop —
same records, with ``timing["fallback"]`` set and the reason in
``last_fallback_reason``, mirroring the process-pool backend's downgrade
protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro._exports import lazy_exports, load
from repro.parallel.executors import SimulationExecutor
from repro.parallel.runner import (
    Executor,
    InProcessRunner,
    SeedPair,
    TrialRecord,
    _scalar_records,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result import ExecutionResult
    from repro.tasks.base import Task

__all__ = ["VectorizedRunner", "classify_batch"]


class _ExactTypeTable(dict):
    """Values keyed by the exact type's module and qualified name, so
    that building the table imports no type; indexed by the type itself.
    A value given as an import path is imported on its first lookup."""

    def __getitem__(self, kind: type) -> Any:
        key = (kind.__module__, kind.__qualname__)
        value = super().__getitem__(key)
        if isinstance(value, str):
            value = load(value)
            super().__setitem__(key, value)
        return value

    def __setitem__(self, kind: type, value: Any) -> None:
        super().__setitem__((kind.__module__, kind.__qualname__), value)


#: Simulator types with a party-collapsed form.  Exact types: a subclass
#: may override scheme steps the collapsed forms hard-code.  A form is
#: imported when its route is first taken.
_COLLAPSED_SCHEMES = _ExactTypeTable(
    {
        ("repro.simulation.chunked", "ChunkCommitSimulator"): (
            "repro.vectorized.schemes.simulate_chunked"
        ),
        ("repro.simulation.rewind", "RewindSimulator"): (
            "repro.vectorized.schemes.simulate_rewind"
        ),
        ("repro.simulation.repetition_sim", "RepetitionSimulator"): (
            "repro.vectorized.schemes_repetition.simulate_repetition"
        ),
        ("repro.simulation.hierarchical", "HierarchicalSimulator"): (
            "repro.vectorized.schemes_hierarchical.simulate_hierarchical"
        ),
    }
)

# The benchmark tracer (``benchmarks/e2e/tracing.py``) finds the
# simulator types it wraps here; they resolve on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ChunkCommitSimulator": "repro.simulation.chunked",
        "RewindSimulator": "repro.simulation.rewind",
    },
)


def classify_batch(
    executor: Executor, probe_seed: int
) -> tuple[Any, str | None, str | None]:
    """``(route, crossover key, reason)`` for a batch.

    Routes come in two shapes: a ``(simulator, collapsed)`` pair for the
    single-hop party-collapsed schemes, or a
    :class:`~repro.vectorized.network.NetworkRoute` for the batched graph
    kernel.  Both are tried; ``route`` is ``None`` only when neither
    applies, with both fallback reasons joined.  The crossover key names
    the batch's row of the planner's crossover table: the route's
    ``scheme`` for network routes (the task type name for raw protocol
    routes, the simulator name for the local-broadcast route), else the
    simulator class name, which no table row keys (single-hop routes
    always collapse).  ``probe_seed`` is the executor seed of the
    batch's first trial; the channel it builds is only inspected, never
    run.
    """
    route, scheme, reason = _single_hop_route(executor, probe_seed)
    if route is not None:
        return route, scheme, None
    from repro.vectorized.network import classify_network

    net_route, net_reason = classify_network(executor, probe_seed)
    if net_route is not None:
        return net_route, net_route.scheme, None
    return None, scheme, f"{reason}; {net_reason}"


def _single_hop_route(
    executor: Executor, probe_seed: int
) -> tuple[tuple | None, str | None, str | None]:
    """``(route, crossover key, reason)`` for a single-hop batch.

    ``route`` is the ``(simulator, collapsed)`` pair, or ``None`` with
    the fallback ``reason``.  The key is the simulator class name.
    """
    if not isinstance(executor, SimulationExecutor):
        return None, None, "executor is not a SimulationExecutor"
    simulator = executor.simulator.make()
    scheme = type(simulator).__name__
    try:
        collapsed = _COLLAPSED_SCHEMES[type(simulator)]
    except KeyError:
        return None, scheme, f"no collapsed form for {scheme}"
    from repro.vectorized.schemes import CHANNEL_KINDS

    probe = executor.channel.make(probe_seed)
    if type(probe) not in CHANNEL_KINDS:
        return None, scheme, (
            f"no collapsed replay for {type(probe).__name__}"
        )
    return (simulator, collapsed), scheme, None


class VectorizedRunner(InProcessRunner):
    """In-process backend running batches through collapsed simulations.

    ``last_fallback_reason`` says why the last batch fell back to the
    scalar loop (``None`` when it ran vectorized).
    """

    #: One stripe per pool worker: large stripes amortize each worker's
    #: codebooks and network kernel setup over many trials.
    STRIPES_PER_WORKER = 1

    def _records(
        self,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
        collect_times: bool,
    ) -> tuple[list[TrialRecord], list[float] | None, str | None]:
        """Dispatch the batch's route to its batched implementation, or
        run the scalar loop with the reason when it has none."""
        route, _, reason = classify_batch(executor, pairs[0][1])
        # A single-hop route is a (simulator, collapsed) pair; any other
        # route is a NetworkRoute, its kernel imported by classify_batch.
        if isinstance(route, tuple):
            executor = self._collapsed_executor(route, executor)
        elif route is not None:
            from repro.vectorized.network import network_records

            records, times = network_records(
                route,
                task,
                executor,
                indices,
                pairs,
                collect_times=collect_times,
            )
            return records, times, None
        records, times = _scalar_records(
            task, executor, indices, pairs, collect_times
        )
        return records, times, reason

    def _collapsed_executor(
        self, route: tuple, executor: SimulationExecutor
    ) -> Executor:
        """``executor`` with ``simulate`` replaced by the route's collapsed
        scheme: same per-trial channel, same result fields."""
        from repro.vectorized.schemes import flip_source

        simulator, collapsed = route

        def run(inputs: Any, executor_seed: int) -> ExecutionResult:
            channel = executor.channel.make(executor_seed)
            return collapsed(
                simulator,
                executor.task.noiseless_protocol(),
                inputs,
                channel,
                flips=flip_source(channel, copy_rng=True),
            )

        return run
