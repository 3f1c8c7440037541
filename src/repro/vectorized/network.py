"""Trial-batched network rounds: the CSR neighborhood-OR kernel.

The scalar :class:`~repro.network.channel.NetworkBeepingChannel` walks
the beeping nodes' out-neighborhoods in pure Python — O(Σ out-degree)
*interpreter* steps per round per trial.  This module batches a whole
Monte-Carlo batch into one matrix: a round's beeps are a
``(n_nodes, trials)`` uint8 matrix ``B`` (node-major, so CSR gathers and
scatters touch contiguous ``trials``-wide rows — measured ~3× faster
than the trial-major layout at 10^5 nodes) and one call computes every
trial's neighborhood OR at once:

1. a sparse beeping set (its deliveries, ``Σ out-degree``, at most a
   share of all edges: :data:`_DENSE_PLAN_SHARE`, widened with the row
   width) lists every (target, source) delivery: it gathers its
   out-neighborhoods through the numpy CSR
   (:meth:`~repro.network.graph.Topology.csr_arrays`) and groups them
   by target with one stable argsort.  This plan depends only on *which*
   nodes beep, not on the per-trial bits, so it is cached and reused
   while the beeping set is unchanged;
2. OR each group with one ``np.bitwise_or.reduceat``, reading each
   row of 0/1 bytes as the widest unsigned words that tile it (a
   4-trial row is one ``uint32``): the OR of words is the bytewise OR,
   and gathering and reducing fewer, wider elements measured 5–7×
   faster than ``np.maximum.reduceat`` over the bytes at 4 and 64
   trials on a 10^5-node graph;
3. scatter the per-target ORs into a reusable ``heard`` buffer (only
   previously-written rows are cleared, so silent stretches cost
   nothing).

A dense set gets no plan: the in-CSR rows already are the grouping, so
the step ORs every node's in-row over a masked copy of ``B`` (the
beeping rows kept, every other row zeroed), one block of rows at a
time (:data:`_OR_BLOCK_BYTES`).  Besides the graph, such a step holds
that copy, ``n·trials`` bytes, and one block; no edge-sized buffer.

The local-broadcast wrapper repeats every inner round ``k`` times and
each node majority-decodes its ``k`` copies; ``k`` is read from
:meth:`LocalBroadcastSimulator.plan
<repro.network.local_broadcast.LocalBroadcastSimulator.plan>`, the plan
the scalar scheme runs on.  The batched drivers run
such a burst as one *virtual round*: one kernel step (``B``, hence the
clean reception, is fixed for the burst) plus, under per-node noise, one
``k·n`` flip draw per trial, which is exactly the scalar draw order (the
argument is on ``_BatchNetworkChannel``).  Per-edge erasure draws follow
each trial's own beeping set, so that model runs its bursts round by
round.

Noise replays the scalar channel's exact draw order through
:class:`~repro.vectorized.noise.FlipStream`/:class:`~repro.vectorized.
noise.BatchFlips`, and the batched drivers re-run the party state
machines of the network tasks (neighbor-OR, flooding broadcast, MIS
election) over whole-batch matrices.  Every trial of a batch is bitwise
identical — records, noise accounting, draw counts — to the scalar
engine's :func:`~repro.parallel.runner.run_trial` on the same seed
pair, which is what ``tests/unit/
test_network_vectorized_equivalence.py`` pins.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as _np

from repro.network.channel import NetworkBeepingChannel
from repro.network.local_broadcast import LocalBroadcastSimulator
from repro.network.mis import _MISProtocol
from repro.network.tasks import _BroadcastProtocol, _NeighborORProtocol
from repro.network.graph import Topology
from repro.parallel.executors import ProtocolExecutor, SimulationExecutor
from repro.parallel.runner import SeedPair, TrialRecord
from repro.vectorized.noise import BatchFlips

__all__ = [
    "NetworkBatchKernel",
    "NetworkRoute",
    "classify_network",
    "network_records",
]


#: The delivery share of all edges above which :meth:`NetworkBatchKernel.
#: step` ORs every in-CSR row blockwise instead of planning the beeping
#: set's deliveries, for rows of at most a few bytes; the share grows by
#: itself every :data:`_DENSE_ROW_BYTES` of row width, because a dense
#: step gathers a row per edge and a plan only one per delivery.
#: Measured crossovers on 10^3- and 10^5-node geometric graphs (mean
#: degree ~8): 5–6 % / 5 % of the edges at 4 trials, 7 % / 9 % at 16 and
#: 15 % / 19 % at 64; the rule gives 5, 8 and 20 %.
_DENSE_PLAN_SHARE = 0.04
_DENSE_ROW_BYTES = 16

#: Bytes per block of a dense step (the block's in-edges times the row
#: width plus an index): the only scratch of a dense step beyond its
#: masked copy of the beeping rows.
_OR_BLOCK_BYTES = 1 << 20


def _groups(targets: "_np.ndarray") -> tuple["_np.ndarray", "_np.ndarray"]:
    """``(seg_starts, uniq)`` of the grouped ``targets``: where each run
    of equal values starts, and its value."""
    boundary = _np.empty(targets.size, dtype=bool)
    if targets.size:
        boundary[0] = True
        _np.not_equal(targets[1:], targets[:-1], out=boundary[1:])
    seg_starts = _np.flatnonzero(boundary)
    return seg_starts, targets[seg_starts]


class NetworkBatchKernel:
    """One neighborhood-OR round for a whole trial batch.

    Matrices are node-major ``(n_nodes, trials)`` uint8 holding 0/1
    bits.  :meth:`step` computes the *clean* (noise-free) reception of
    every trial at once; noise is layered on top by the batched channel
    below, per trial, so the kernel itself stays reusable for benchmarks
    and future schemes.

    Args:
        topology: The graph (its numpy CSR is gathered).
        trials: Batch width (columns of every matrix).
        hear_self: Whether a beeping node hears its own beep.
    """

    def __init__(
        self, topology: Topology, trials: int, hear_self: bool = False
    ) -> None:
        in_ptr, in_idx, out_ptr, out_idx = topology.csr_arrays()
        self.n = topology.n
        self.trials = trials
        self.hear_self = hear_self
        self._in_ptr = in_ptr
        self._in_idx = in_idx
        self._out_ptr = out_ptr
        self._out_idx = out_idx
        self._dense_from = (
            _DENSE_PLAN_SHARE * (1 + trials / _DENSE_ROW_BYTES) * in_idx.size
        )
        self._heard = _np.zeros((self.n, trials), dtype=_np.uint8)
        # The widest unsigned word that tiles a row of ``trials`` bytes.
        self._word = next(
            word
            for word in (_np.uint64, _np.uint32, _np.uint16, _np.uint8)
            if trials % _np.dtype(word).itemsize == 0
        )
        # Rows (or in-edges) per block: a gathered row of ``trials``
        # bytes plus its index, which numpy widens to intp to gather.
        # Each dense-step row block ends at the last row starting at or
        # before a multiple of that, so a block holds at most that many
        # in-edges plus one row's.
        self._per_block = per_block = max(1, _OR_BLOCK_BYTES // (trials + 8))
        ends = _np.searchsorted(
            in_ptr, _np.arange(per_block, in_idx.size, per_block), "right"
        )
        bounds = [0, *(ends - 1).tolist(), self.n]
        self._blocks = [
            (low, high) for low, high in zip(bounds, bounds[1:]) if low < high
        ]
        # Rows written since the last clear; ``None``: any row.
        self._dirty: Any = _np.zeros(0, dtype=_np.int64)
        self._plan_key: bytes | None = None
        self._plan: tuple | None = None

    def plan(self, act: "_np.ndarray") -> tuple | None:
        """The delivery plan for beeping-node set ``act`` (ascending), or
        ``None`` for a dense set.

        Returns ``(sources, seg_starts, uniq_targets)``: the source of
        every delivery, grouped by target (ascending) with sources
        ascending inside a group; the group boundaries; and the distinct
        reached nodes.  The out-neighborhoods are expanded and grouped
        by one stable argsort, O(deliveries · log).  A set whose
        deliveries, ``Σ out-degree(act)`` (read off the out-CSR pointers
        in O(|act|)), exceed a share of the edge count
        (:data:`_DENSE_PLAN_SHARE`, widened with the row width) gets no
        plan: :meth:`step` ORs the whole in-CSR for it instead.

        Cached while the beeping set is unchanged.
        """
        key = act.tobytes()
        if key == self._plan_key:
            return self._plan
        starts = self._out_ptr[act]
        counts = self._out_ptr[act + 1] - starts
        total = int(counts.sum())
        if total > self._dense_from:
            plan = None
        else:
            targets = self._gather(starts, counts, total)
            order = _np.argsort(targets, kind="stable")
            plan = (_np.repeat(act, counts)[order], *_groups(targets[order]))
        self._plan_key = key
        self._plan = plan
        return plan

    def _gather(self, starts, counts, total: int) -> "_np.ndarray":
        """The out-CSR rows at ``starts``/``counts``, concatenated."""
        offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
        positions = (
            _np.arange(total, dtype=_np.int64)
            - offsets
            + _np.repeat(starts, counts)
        )
        return self._out_idx[positions]

    def expansion(self, act: "_np.ndarray") -> "_np.ndarray":
        """The delivery targets of beeping set ``act`` in the scalar
        channel's walk order (ascending beeper, CSR out-list order) —
        one entry per erasure draw of the per-edge noise model."""
        starts = self._out_ptr[act]
        counts = self._out_ptr[act + 1] - starts
        return self._gather(starts, counts, int(counts.sum()))

    def _or_in_rows(self, B: "_np.ndarray", act: "_np.ndarray") -> None:
        """Write every node's OR over its in-CSR row into ``heard``,
        reading only the ``act`` rows of ``B``.

        The rows outside ``act`` are zeroed in a masked copy of ``B``
        (the drivers may leave stale bits there), then each row block's
        in-edges gather their source words and one
        ``np.bitwise_or.reduceat`` per block ORs its non-empty rows.
        Under ``hear_self`` the masked copy is ORed in whole.
        """
        beeping = _np.zeros(self.n, dtype=_np.uint8)
        beeping[act] = 1
        masked = _np.empty((self.n, self.trials), dtype=_np.uint8)
        words = _np.multiply(B, beeping[:, None], out=masked).view(self._word)
        heard = self._heard.view(self._word)
        in_ptr, in_idx = self._in_ptr, self._in_idx
        for low, high in self._blocks:
            ptr = in_ptr[low : high + 1]
            rows = _np.flatnonzero(ptr[1:] > ptr[:-1])
            if rows.size:
                gathered = _np.take(words, in_idx[ptr[0] : ptr[-1]], axis=0)
                heard[low + rows] = _np.bitwise_or.reduceat(
                    gathered, ptr[rows] - ptr[0], axis=0
                )
        if self.hear_self:
            _np.bitwise_or(heard, words, out=heard)

    def _beeping_rows(
        self, B: "_np.ndarray", active: "_np.ndarray"
    ) -> "_np.ndarray":
        """The rows of ``active`` that beep in some trial, read a block
        of rows at a time."""
        rows = self._per_block
        if active.size <= rows:
            return active[B[active].any(axis=1)]
        return active[
            _np.concatenate(
                [
                    B[active[start : start + rows]].any(axis=1)
                    for start in range(0, active.size, rows)
                ]
            )
        ]

    def step(
        self, B: "_np.ndarray", active: "_np.ndarray"
    ) -> tuple["_np.ndarray", "_np.ndarray | None"]:
        """All trials' clean neighborhood OR of beep matrix ``B``.

        ``active`` is the ascending superset of rows that may contain a
        beep (the drivers track it; rows outside are ignored, whatever
        they hold, which is what keeps a sparse round's cost off
        O(n·trials)).  Returns ``(heard, touched)`` — ``heard`` is a
        reusable buffer valid until the next call, zero outside the
        ``touched`` rows; ``touched`` is ``None`` after a dense round,
        which writes every row with in-neighbors.
        """
        heard = self._heard
        if self._dirty is None:
            heard.fill(0)
        elif self._dirty.size:
            heard[self._dirty] = 0
        act = self._beeping_rows(B, active)
        plan = self.plan(act)
        if plan is None:
            self._or_in_rows(B, act)
            touched = None
        else:
            sources, seg_starts, touched = plan
            if touched.size:
                words = _np.ascontiguousarray(B).view(self._word)
                heard.view(self._word)[touched] = _np.bitwise_or.reduceat(
                    _np.take(words, sources, axis=0), seg_starts, axis=0
                )
            if self.hear_self and act.size:
                heard[act] |= B[act]
                touched = _np.union1d(touched, act)
        self._dirty = touched
        return heard, touched


class _BatchNetworkChannel:
    """Batched stand-in for ``trials`` per-trial network channels.

    Wraps the kernel with the scalar channel's noise semantics and
    bookkeeping: per-trial beep/OR/flip counters (``ChannelStats``
    deltas) and noise draws pulled from each trial's
    :class:`~repro.vectorized.noise.FlipStream` in the scalar draw order.
    One :meth:`virtual_round` is one inner-protocol round: a burst of
    ``k`` physical rounds of the same beeps, decoded per node by strict
    majority (``k = 1`` outside the local-broadcast wrapper).

    Under per-node noise a burst is fused into one kernel step and one
    draw per trial.  ``B`` and the active rows are fixed for the burst,
    so every copy has the same clean reception.  The scalar channel
    draws ``n`` uniforms per physical round in node order, one round
    after another, so ``take(k·n).reshape(k, n)`` holds exactly the
    flips of round ``r``, node ``i`` at ``[r, i]``.  With ``F`` the
    per-node flip count, a node hears ``k - F`` ones where its clean bit
    is 1 and ``F`` ones elsewhere, and decodes 1 iff twice that exceeds
    ``k``; its flips are down-flips where clean is 1, up-flips elsewhere.

    Per-edge erasure runs the burst round by round: its draw count
    follows each trial's own beeping set (:meth:`_edge_round`).

    ``virtual_round`` returns ``(received, touched)`` where ``touched``
    lists the possibly-nonzero rows (or ``None`` when any row may be
    set, e.g. under per-node noise); ``received`` is only valid until
    the next call.
    """

    def __init__(
        self,
        topology: Topology,
        trials: int,
        *,
        hear_self: bool,
        epsilon: float,
        edge_epsilon: float,
        streams: "list | None",
        repetitions: int = 1,
    ) -> None:
        self.kernel = NetworkBatchKernel(topology, trials, hear_self)
        self.n = topology.n
        self.trials = trials
        self.hear_self = hear_self
        self.epsilon = epsilon
        self.edge_epsilon = edge_epsilon
        self.streams = streams
        self.k = repetitions
        self.rounds = 0
        self.beeps = _np.zeros(trials, dtype=_np.int64)
        self.or_ones = _np.zeros(trials, dtype=_np.int64)
        self.flips_up = _np.zeros(trials, dtype=_np.int64)
        self.flips_down = _np.zeros(trials, dtype=_np.int64)
        if epsilon > 0.0 or edge_epsilon > 0.0:
            self._received = _np.zeros((self.n, trials), dtype=_np.uint8)
        self._recv_dirty: Any = None
        # Per-trial expansion cache for the per-edge draws (beeping sets
        # are per-trial there; bursts reuse one expansion k times).
        self._trial_plans: list = [(None, None)] * trials

    def _count_round(self, B, active) -> None:
        beeps = (
            B[active].sum(axis=0, dtype=_np.int64)
            if active.size
            else _np.zeros(self.trials, dtype=_np.int64)
        )
        k = self.k
        self.beeps += beeps * k
        self.or_ones += (beeps > 0).astype(_np.int64) * k
        self.rounds += k

    def _node_noise(self, heard):
        """One burst of per-node flips over the clean reception
        ``heard``: ``k·n`` draws per trial, majority-decoded."""
        received = self._received
        k, n = self.k, self.n
        for trial, stream in enumerate(self.streams):
            flips = stream.take(k * n).reshape(k, n).sum(
                axis=0, dtype=_np.int32
            )
            clean = heard[:, trial]
            ones = _np.where(clean, k - flips, flips)
            _np.greater(2 * ones, k, out=received[:, trial])
            down = int(flips[clean == 1].sum())
            self.flips_down[trial] += down
            self.flips_up[trial] += int(flips.sum()) - down
        return received

    def _edge_round(self, B, active):
        """Per-delivery erasure draws in the scalar walk order.

        Draw counts depend on each trial's own beeping set, so the
        expansion is per trial here; the per-trial plan cache keeps
        local-broadcast bursts (same beepers k rounds running) at one
        expansion per burst.
        """
        received = self._received
        if self._recv_dirty is not None and self._recv_dirty.size:
            received[self._recv_dirty] = 0
        sub = B[active] if active.size else None
        touched_parts = []
        for trial, stream in enumerate(self.streams):
            act = (
                active[sub[:, trial] > 0]
                if sub is not None
                else active
            )
            key = act.tobytes()
            cached_key, targets = self._trial_plans[trial]
            if key != cached_key:
                targets = self.kernel.expansion(act)
                self._trial_plans[trial] = (key, targets)
            erased = stream.take(targets.size)
            delivered = targets[erased == 0]
            clean_nodes = _np.unique(targets)
            heard_nodes = _np.unique(delivered)
            if self.hear_self and act.size:
                clean_nodes = _np.union1d(clean_nodes, act)
                heard_nodes = _np.union1d(heard_nodes, act)
            self.flips_down[trial] += clean_nodes.size - heard_nodes.size
            if heard_nodes.size:
                received[heard_nodes, trial] = 1
                touched_parts.append(heard_nodes)
        if touched_parts:
            touched = _np.unique(_np.concatenate(touched_parts))
        else:
            touched = _np.zeros(0, dtype=_np.int64)
        self._recv_dirty = touched
        return received, touched

    def _edge_burst(self, B, active):
        """``k`` erasure rounds of ``B``, majority-decoded per node."""
        k = self.k
        if k == 1:
            return self._edge_round(B, active)
        counts = _np.zeros((self.n, self.trials), dtype=_np.int32)
        for _ in range(k):
            received, touched = self._edge_round(B, active)
            if touched.size:
                counts[touched] += received[touched]
        return (2 * counts > k).astype(_np.uint8), None

    def virtual_round(self, B, active):
        """One inner-protocol round: a ``k``-round burst of ``B`` with
        per-node strict-majority decode (``k = 1``: the round itself)."""
        self._count_round(B, active)
        if self.edge_epsilon > 0.0:
            return self._edge_burst(B, active)
        heard, touched = self.kernel.step(B, active)
        if self.epsilon > 0.0:
            return self._node_noise(heard), None
        # Noiseless: the majority of k identical copies is the copy.
        return heard, touched


# ---------------------------------------------------------------------
# Batched drivers: the party state machines over whole-batch matrices
# ---------------------------------------------------------------------


def _run_neighbor_or(protocol, inputs, vchan):
    """``_NeighborORParty``: beep your bit once, output what you heard."""
    B = _np.ascontiguousarray(
        _np.asarray(inputs, dtype=_np.uint8).T
    )
    active = _np.nonzero(B.any(axis=1))[0]
    received, _ = vchan.virtual_round(B, active)
    return received.T.tolist()


def _run_broadcast(protocol, inputs, vchan):
    """``_BroadcastParty``: node 0 floods its bit; a listener beeps from
    the round *after* it first hears, and outputs 1 iff informed."""
    n, trials = vchan.n, vchan.trials
    bits = _np.asarray([row[0] for row in inputs], dtype=_np.uint8)
    informed = _np.zeros((n, trials), dtype=_np.uint8)
    B = _np.zeros((n, trials), dtype=_np.uint8)
    B[0] = bits
    active_mask = _np.zeros(n, dtype=_np.uint8)
    active_mask[0] = 1
    active = _np.nonzero(active_mask)[0]
    for _ in range(protocol.rounds):
        received, touched = vchan.virtual_round(B, active)
        if touched is None:
            updated = _np.nonzero(received.any(axis=1))[0]
        elif touched.size:
            updated = touched[received[touched].any(axis=1)]
        else:
            updated = touched
        updated = updated[updated != 0]  # the source never listens
        if updated.size:
            informed[updated] |= received[updated]
            B[updated] = informed[updated]
            active_mask[updated] = 1
            active = _np.nonzero(active_mask)[0]
    outputs = informed.T.tolist()
    for trial in range(trials):
        outputs[trial][0] = int(bits[trial])
    return outputs


def _run_mis(protocol, inputs, vchan):
    """``_MISParty``: candidate round, winner round, decide; decided
    nodes stay silent through the protocol's fixed 2·phases rounds."""
    n, trials = vchan.n, vchan.trials
    tapes = _np.asarray(inputs, dtype=_np.uint8)  # (trials, n, phases)
    undecided = _np.ones((n, trials), dtype=_np.uint8)
    in_mis = _np.zeros((n, trials), dtype=_np.uint8)
    cand = _np.zeros((n, trials), dtype=_np.uint8)
    wins = _np.zeros((n, trials), dtype=_np.uint8)
    rows = _np.arange(n)
    empty = _np.zeros(0, dtype=_np.int64)
    for phase in range(protocol.phases):
        if rows.size:
            coins = tapes[:, rows, phase].T
            cand[rows] = coins & undecided[rows]
            active = rows[cand[rows].any(axis=1)]
        else:
            active = empty
        recv_cand, _ = vchan.virtual_round(cand, active)
        if rows.size:
            wins[rows] = 0
        if active.size:
            wins[active] = cand[active] & (recv_cand[active] == 0)
            active2 = active[wins[active].any(axis=1)]
        else:
            active2 = empty
        recv_wins, _ = vchan.virtual_round(wins, active2)
        if rows.size:
            won = wins[rows]
            dominated = undecided[rows] & (1 - won) & recv_wins[rows]
            in_mis[rows] |= won
            undecided[rows] &= 1 - (won | dominated)
            rows = rows[undecided[rows].any(axis=1)]
    member = in_mis.T.tolist()
    open_ = undecided.T.tolist()
    return [
        [
            True if m else (None if u else False)
            for m, u in zip(member[trial], open_[trial])
        ]
        for trial in range(trials)
    ]


_DRIVERS: dict[type, Callable] = {
    _NeighborORProtocol: _run_neighbor_or,
    _BroadcastProtocol: _run_broadcast,
    _MISProtocol: _run_mis,
}


# ---------------------------------------------------------------------
# Classification + record assembly
# ---------------------------------------------------------------------


@dataclass
class NetworkRoute:
    """A batch the network kernel can run: which driver, over what."""

    #: Crossover-table key: the task type name for raw protocol routes,
    #: the simulator type name for the local-broadcast route.
    scheme: str
    driver: Callable
    protocol: Any
    #: Probe channel — static parameters only (topology, epsilons,
    #: hear_self); per-trial channels are built fresh for their draws.
    channel: NetworkBeepingChannel
    simulator: LocalBroadcastSimulator | None


def classify_network(executor, probe_seed: int):
    """The batched network route for this executor, or a fallback reason.

    ``probe_seed`` is the executor seed of the batch's first trial; the
    probe channel it builds supplies the route's static parameters only.

    Collapses: the three network protocol families above, raw
    (``ProtocolExecutor``) or under the local-broadcast repetition
    wrapper, over a :class:`~repro.network.channel.NetworkBeepingChannel`
    with at most one noise kind active (per-node ``epsilon`` *or*
    per-edge ``edge_epsilon`` — the registry never mixes them, and the
    flip streams replay a single threshold).  Everything else (size
    estimation's data-dependent phases, per-node epsilon vectors,
    other simulators) stays on the scalar engine.
    """
    simulator = None
    if isinstance(executor, SimulationExecutor):
        simulator = executor.simulator.make()
        if type(simulator) is not LocalBroadcastSimulator:
            return None, (
                f"no batched network form for {type(simulator).__name__}"
            )
    elif not isinstance(executor, ProtocolExecutor):
        return None, (
            f"no batched form for {type(executor).__name__} executors"
        )
    protocol = executor.task.noiseless_protocol()
    driver = _DRIVERS.get(type(protocol))
    if driver is None:
        return None, (
            f"no batched network driver for {type(protocol).__name__}"
        )
    probe = executor.channel.make(probe_seed)
    if type(probe) is not NetworkBeepingChannel:
        return None, (
            f"no batched network replay for {type(probe).__name__}"
        )
    if probe.node_epsilons is not None:
        return None, (
            "per-node epsilon vectors have no batched replay"
        )
    if probe.epsilon > 0.0 and probe.edge_epsilon > 0.0:
        return None, (
            "combined per-node and per-edge noise has no batched replay"
        )
    scheme = (
        type(simulator).__name__
        if simulator is not None
        else type(executor.task).__name__
    )
    return NetworkRoute(scheme, driver, protocol, probe, simulator), None


def network_records(
    route: NetworkRoute,
    task,
    executor,
    indices: Sequence[int],
    pairs: Sequence[SeedPair],
    *,
    collect_times: bool = False,
) -> tuple[list[TrialRecord], list[float] | None]:
    """Run the given global trial indices through the batched kernel.

    ``pairs[k]`` is the ``(input seed, executor seed)`` pair of trial
    ``indices[k]``, used exactly as :func:`~repro.parallel.runner.run_trial`
    uses it, so a stripe of a larger batch (the composed process
    backend's unit) is bitwise identical to the corresponding slice of a
    whole-batch run.
    """
    indices = list(indices)
    trials = len(indices)
    inputs_list = [
        task.sample_inputs(random.Random(input_seed))
        for input_seed, _ in pairs
    ]
    probe = route.channel
    repetitions = 1
    if route.simulator is not None:
        report, _ = route.simulator.plan(route.protocol, probe)
        repetitions = report.extra["repetitions"]
    epsilon = probe.epsilon
    edge_epsilon = probe.edge_epsilon
    streams = None
    if epsilon > 0.0 or edge_epsilon > 0.0:
        # The exact per-trial channel constructions run_trial's executor
        # would make; only their generators are consumed (the batched
        # rounds never touch the scalar round buffers).
        channels = [
            executor.channel.make(executor_seed) for _, executor_seed in pairs
        ]
        threshold = epsilon if epsilon > 0.0 else edge_epsilon
        batch_flips = BatchFlips(
            [channel._rng for channel in channels], threshold
        )
        streams = [batch_flips.stream(row) for row in range(trials)]
    vchan = _BatchNetworkChannel(
        probe.topology,
        trials,
        hear_self=probe.hear_self,
        epsilon=epsilon,
        edge_epsilon=edge_epsilon,
        streams=streams,
        repetitions=repetitions,
    )
    outputs_list = route.driver(route.protocol, inputs_list, vchan)

    total_rounds = vchan.rounds
    if route.simulator is not None:
        chunk_attempts: float | None = 0.0
        completed: bool | None = True
    else:
        chunk_attempts = None
        completed = None
    records: list[TrialRecord] = []
    times: list[float] | None = [] if collect_times else None
    last = time.perf_counter()
    for row, index in enumerate(indices):
        records.append(
            TrialRecord(
                index=index,
                success=bool(
                    task.is_correct(inputs_list[row], outputs_list[row])
                ),
                rounds=float(total_rounds),
                chunk_attempts=chunk_attempts,
                completed=completed,
                channel_rounds=total_rounds,
                beeps_sent=int(vchan.beeps[row]),
                or_ones=int(vchan.or_ones[row]),
                flips_up=int(vchan.flips_up[row]),
                flips_down=int(vchan.flips_down[row]),
                total_energy=int(vchan.beeps[row]),
            )
        )
        if times is not None:
            now = time.perf_counter()
            times.append(now - last)
            last = now
    return records, times
