"""The trial-batched vectorized backend.

:class:`VectorizedRunner` is an in-process backend (an
:class:`~repro.parallel.runner.InProcessRunner`, like ``SerialRunner``);
``ProcessPoolRunner(inner=VectorizedRunner)`` stripes it across a pool.
It targets the scalar engine's worst cases — the chunk-commit scheme's
``n²`` inner-party replays and the rewind scheme's strictly sequential
alarm rounds — by running each trial through the party-collapsed
simulations of :mod:`repro.vectorized.schemes`, with the whole batch's
shared-noise draws prefetched as rows of one packed numpy bit-matrix
(:class:`~repro.vectorized.noise.BatchFlips`) and ML decoding vectorized
over the codebook (:class:`~repro.vectorized.decoder.VectorizedMLDecoder`,
shared — memo included — across the batch).

The determinism contract of :mod:`repro.parallel.runner` is preserved
*bitwise*: each trial's inputs come from ``random.Random(input seed)``
and its channel from ``executor.channel.make(executor seed)`` — the
exact calls :func:`~repro.parallel.runner.run_trial` makes on the same
seed pair — and the collapsed schemes replay the scalar RNG draw order
flip for flip.  Any trial a vectorized sweep records can therefore be
replayed on the scalar engine from its seed pair alone, which is what
the cross-backend equivalence suite does.

Single-hop batches collapse over the channel families of
:data:`~repro.vectorized.schemes.CHANNEL_KINDS`: noiseless, correlated,
one-sided, suppression, burst (Gilbert–Elliott, its noise pulled from
each trial's channel) and independent noise (repetition only; the
shared-transcript schemes raise the scalar "requires a correlated
channel" error).  The i.i.d. ``u < ε`` families are prefetched; which
flip source a family uses is decided in one place,
:func:`~repro.vectorized.schemes.flip_sources`.

Graph-topology batches route to the trial-batched CSR kernel of
:mod:`repro.vectorized.network` instead: the network protocol families
(neighbor-OR, broadcast, MIS) raw or under the local-broadcast
repetition wrapper, over a single-noise-kind ``NetworkBeepingChannel``.
Batches neither model collapses (simulators outside both registries,
adversarial and reduction channels, per-node epsilon vectors) run
through the scalar :func:`run_trial` loop —
same records, with ``timing["fallback"]`` set and the reason in
``last_fallback_reason``, mirroring the process-pool backend's downgrade
protocol.
"""

from __future__ import annotations

import random
import time
from typing import Any

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
    flip_sources,
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
    single-hop key of :func:`_single_hop_route`.  ``probe_seed`` is the
    executor seed of the batch's first trial; the channel it builds is
    only inspected, never run.
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
    the fallback ``reason``.  The key is the simulator class name,
    suffixed ``@independent`` under per-party noise, whose replay costs
    differ.
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
    if not probe.correlated:
        scheme += "@independent"
    return (simulator, collapsed), scheme, None


class VectorizedRunner(InProcessRunner):
    """In-process backend running batches through collapsed simulations.

    Args:
        prefetch: Shared-noise flip indicators prefetched per trial into
            the batch bit-matrix; draws beyond it continue seamlessly
            from each trial's transferred generator state.  Purely an
            amortization knob — results are identical for any value.

    ``last_fallback_reason`` says why the last batch fell back to the
    scalar loop (``None`` when it ran vectorized).
    """

    #: One stripe per pool worker: large stripes amortize each worker's
    #: batched noise prefetch and codebook memo over many trials.
    STRIPES_PER_WORKER = 1

    def __init__(self, prefetch: int = 4096) -> None:
        self.prefetch = prefetch
        # (chunk_length, rate_constant, code_seed, up, down) ->
        # (code, VectorizedMLDecoder); shared across batches so the
        # decode memo warms once per parameter point, not once per trial.
        self._codebooks: dict[tuple, tuple] = {}

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
        if route is None:
            records, times = _scalar_records(
                task, executor, indices, pairs, collect_times
            )
            return records, times, reason
        if isinstance(route, NetworkRoute):
            records, times = network_records(
                route,
                task,
                executor,
                indices,
                pairs,
                prefetch=self.prefetch,
                collect_times=collect_times,
            )
        else:
            records, times = self._collapsed_records(
                route, task, executor, indices, pairs, collect_times
            )
        return records, times, None

    def _collapsed_records(
        self,
        route: tuple,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        """Run the given global trial indices through a collapsed scheme.

        ``pairs[k]`` is the seed pair of trial ``indices[k]``, so a stripe
        of a larger batch produces exactly the records a whole-batch run
        would for those indices — the composed process backend's
        correctness hinges on this.
        """
        simulator, collapsed = route
        # The exact per-trial channel constructions run_trial's executor
        # would make, batched up front so their noise streams can be
        # prefetched as one packed trial x draw bit-matrix.
        channels = [
            executor.channel.make(executor_seed) for _, executor_seed in pairs
        ]
        flips = flip_sources(channels, prefetch=self.prefetch)

        records: list[TrialRecord] = []
        times: list[float] | None = [] if collect_times else None
        last = time.perf_counter()
        for row, index in enumerate(indices):
            inputs = task.sample_inputs(random.Random(pairs[row][0]))
            outcome = collapsed(
                simulator,
                task.noiseless_protocol(),
                inputs,
                channels[row],
                flips=flips[row],
                codebook_cache=self._codebooks,
            )
            report = outcome.report
            stats = outcome.channel_stats
            records.append(
                TrialRecord(
                    index=index,
                    success=bool(task.is_correct(inputs, outcome.outputs)),
                    rounds=float(outcome.rounds),
                    chunk_attempts=float(report.chunk_attempts),
                    completed=bool(report.completed),
                    channel_rounds=stats.rounds,
                    beeps_sent=stats.beeps_sent,
                    or_ones=stats.or_ones,
                    flips_up=stats.flips_up,
                    flips_down=stats.flips_down,
                    total_energy=outcome.total_energy,
                )
            )
            if times is not None:
                now = time.perf_counter()
                times.append(now - last)
                last = now
        return records, times
