"""The trial-batched vectorized backend.

:class:`VectorizedRunner` is the third :class:`~repro.parallel.runner.
TrialRunner` backend, next to ``SerialRunner`` and ``ProcessPoolRunner``.
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

Graph-topology batches route to the trial-batched CSR kernel of
:mod:`repro.vectorized.network` instead: the network protocol families
(neighbor-OR, broadcast, MIS) raw or under the local-broadcast
repetition wrapper, over a single-noise-kind ``NetworkBeepingChannel``.
Batches neither model collapses (simulators outside both registries,
channel families outside the correlated shared-bit or network models,
per-node epsilon vectors) run through the scalar :func:`run_trial` loop —
same records, with ``timing["fallback"]`` set and the reason in
``last_fallback_reason``, mirroring the process-pool backend's downgrade
protocol.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.parallel.executors import SimulationExecutor
from repro.parallel.runner import (
    Executor,
    SeedPair,
    TrialBatch,
    TrialRecord,
    TrialRunner,
    _emit_batch_events,
    _run_chunk,
    _serial_records,
    _timing,
    resolve_trial_seeds,
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
from repro.vectorized.noise import BatchFlips
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    simulate_chunked,
    simulate_rewind,
)
from repro.vectorized.schemes_hierarchical import simulate_hierarchical
from repro.vectorized.schemes_repetition import simulate_repetition

__all__ = ["VectorizedRunner"]

#: Simulator types with a party-collapsed form.  Exact types: a subclass
#: may override scheme steps the collapsed forms hard-code.
_COLLAPSED_SCHEMES = {
    ChunkCommitSimulator: simulate_chunked,
    RewindSimulator: simulate_rewind,
    RepetitionSimulator: simulate_repetition,
    HierarchicalSimulator: simulate_hierarchical,
}


class VectorizedRunner(TrialRunner):
    """In-process backend running batches through collapsed simulations.

    Args:
        prefetch: Shared-noise flip indicators prefetched per trial into
            the batch bit-matrix; draws beyond it continue seamlessly
            from each trial's transferred generator state.  Purely an
            amortization knob — results are identical for any value.
    """

    def __init__(self, prefetch: int = 4096) -> None:
        self.prefetch = prefetch
        #: Why the last batch fell back to the scalar loop (``None`` when
        #: it ran vectorized), mirroring ``ProcessPoolRunner``.
        self.last_fallback_reason: str | None = None
        # (chunk_length, rate_constant, code_seed, up, down) ->
        # (code, VectorizedMLDecoder); shared across batches so the
        # decode memo warms once per parameter point, not once per trial.
        self._codebooks: dict[tuple, tuple] = {}

    @property
    def workers(self) -> int:
        return 1

    def _classify(self, executor: Executor, probe_seed: int):
        """The collapsed scheme for this batch, or a fallback reason.

        ``probe_seed`` is the executor seed of the batch's first trial;
        the channel it builds is only inspected, never run.

        Routes come in two shapes: a ``(simulator, collapsed)`` pair for
        the single-hop party-collapsed schemes, or a
        :class:`~repro.vectorized.network.NetworkRoute` for the batched
        graph kernel.  Both are tried; a batch falls back to the scalar
        loop only when neither applies, with the reasons joined.
        """
        route, reason = self._classify_single_hop(executor, probe_seed)
        if route is not None:
            return route, None
        net_route, net_reason = classify_network(executor, probe_seed)
        if net_route is not None:
            return net_route, None
        return None, f"{reason}; {net_reason}"

    def _classify_single_hop(self, executor: Executor, probe_seed: int):
        if not isinstance(executor, SimulationExecutor):
            return None, "executor is not a SimulationExecutor"
        simulator = executor.simulator.make()
        collapsed = _COLLAPSED_SCHEMES.get(type(simulator))
        if collapsed is None:
            return None, (
                f"no collapsed form for {type(simulator).__name__}"
            )
        probe = executor.channel.make(probe_seed)
        if type(probe) not in CHANNEL_KINDS:
            return None, (
                f"no collapsed replay for {type(probe).__name__}"
            )
        return (simulator, collapsed), None

    def _serial_fallback(
        self,
        task: Task,
        executor: Executor,
        pairs: list[SeedPair],
        reason: str,
        observe: "Observer | None",
    ) -> TrialBatch:
        self.last_fallback_reason = reason
        tracing = observe is not None and observe.enabled
        records, elapsed, times = _serial_records(
            task, executor, pairs, collect_times=tracing
        )
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=len(pairs),
                workers=1,
                chunks=1,
                busy=elapsed,
                parallel=False,
                fallback=True,
            ),
        )
        if tracing:
            _emit_batch_events(observe, batch, trial_times=times)
        return batch

    def _route_records(
        self,
        route: Any,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
        collect_times: bool = False,
    ) -> tuple[list[TrialRecord], list[float] | None]:
        """Dispatch a classified route to its batched implementation;
        ``pairs[k]`` seeds trial ``indices[k]``."""
        if isinstance(route, NetworkRoute):
            return network_records(
                route,
                task,
                executor,
                indices,
                pairs,
                prefetch=self.prefetch,
                collect_times=collect_times,
            )
        return self._collapsed_records(
            route, task, executor, indices, pairs, collect_times
        )

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
        epsilon = getattr(channels[0], "epsilon", 0.0)
        flip_rows: BatchFlips | None = None
        if epsilon > 0.0:
            flip_rows = BatchFlips(
                [channel._rng for channel in channels],
                epsilon,
                columns=self.prefetch,
            )

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
                flips=(
                    flip_rows.stream(row)
                    if flip_rows is not None
                    else None
                ),
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

    def run_indices(
        self,
        task: Task,
        executor: Executor,
        indices: list[int],
        pairs: list[SeedPair],
    ) -> tuple[list[TrialRecord], float]:
        """Run an arbitrary list of global trial indices, ``pairs[k]``
        seeding trial ``indices[k]`` — the composed process backend's
        stripe unit.

        Returns ``(records, busy_seconds)``.  Batches that cannot
        collapse run the scalar :func:`run_trial` loop over the same
        trials (``last_fallback_reason`` records why), so a stripe is
        always bitwise-identical to the corresponding slice of any other
        backend's batch.
        """
        start = time.perf_counter()
        indices = list(indices)
        pairs = list(pairs)
        route, reason = self._classify(executor, pairs[0][1])
        if route is None:
            self.last_fallback_reason = reason
            return _run_chunk(task, executor, indices, pairs)
        self.last_fallback_reason = None
        records, _ = self._route_records(
            route, task, executor, indices, pairs
        )
        return records, time.perf_counter() - start

    def run_trials(
        self,
        task: Task,
        executor: Executor,
        trials: int,
        *,
        seed: int = 0,
        observe: "Observer | None" = None,
        trial_seeds: Sequence[SeedPair] | None = None,
    ) -> TrialBatch:
        pairs = resolve_trial_seeds(seed, trials, trial_seeds)
        route, reason = self._classify(executor, pairs[0][1])
        if route is None:
            return self._serial_fallback(
                task, executor, pairs, reason, observe
            )
        self.last_fallback_reason = None
        tracing = observe is not None and observe.enabled

        start = time.perf_counter()
        records, times = self._route_records(
            route,
            task,
            executor,
            list(range(trials)),
            pairs,
            collect_times=tracing,
        )
        elapsed = time.perf_counter() - start
        batch = TrialBatch(
            records=records,
            timing=_timing(
                elapsed=elapsed,
                trials=trials,
                workers=1,
                chunks=1,
                busy=elapsed,
                parallel=False,
                fallback=False,
            ),
        )
        if tracing:
            _emit_batch_events(observe, batch, trial_times=times)
        return batch
