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

from typing import Any

from repro.core.result import ExecutionResult
from repro.parallel.executors import SimulationExecutor
from repro.parallel.runner import (
    Executor,
    InProcessRunner,
    SeedPair,
    TrialRecord,
    _scalar_records,
)
from repro.simulation.chunked import ChunkCommitSimulator
from repro.simulation.hierarchical import HierarchicalSimulator
from repro.simulation.repetition_sim import RepetitionSimulator
from repro.simulation.rewind import RewindSimulator
from repro.tasks.base import Task
from repro.vectorized.network import (
    NetworkRoute,
    classify_network,
    network_records,
)
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    flip_source,
    simulate_chunked,
    simulate_rewind,
)
from repro.vectorized.schemes_hierarchical import simulate_hierarchical
from repro.vectorized.schemes_repetition import simulate_repetition

__all__ = ["VectorizedRunner", "classify_batch"]

#: Simulator types with a party-collapsed form.  Exact types: a subclass
#: may override scheme steps the collapsed forms hard-code.
_COLLAPSED_SCHEMES = {
    ChunkCommitSimulator: simulate_chunked,
    RewindSimulator: simulate_rewind,
    RepetitionSimulator: simulate_repetition,
    HierarchicalSimulator: simulate_hierarchical,
}


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
    collapsed = _COLLAPSED_SCHEMES.get(type(simulator))
    if collapsed is None:
        return None, scheme, f"no collapsed form for {scheme}"
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
        if isinstance(route, NetworkRoute):
            records, times = network_records(
                route,
                task,
                executor,
                indices,
                pairs,
                collect_times=collect_times,
            )
            return records, times, None
        if route is not None:
            executor = self._collapsed_executor(route, executor)
        records, times = _scalar_records(
            task, executor, indices, pairs, collect_times
        )
        return records, times, reason

    def _collapsed_executor(
        self, route: tuple, executor: SimulationExecutor
    ) -> Executor:
        """``executor`` with ``simulate`` replaced by the route's collapsed
        scheme: same per-trial channel, same result fields."""
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
