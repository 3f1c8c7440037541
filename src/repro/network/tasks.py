"""Multi-hop network tasks: flooding broadcast, neighborhood OR, and
network-size estimation over an arbitrary topology.

These are the graph-model counterparts of the single-hop task suite:

* :class:`BroadcastTask` — the canonical multi-hop primitive: node 0
  floods one bit; a node beeps forever once informed, so the beep front
  advances one hop per round and node ``i`` learns the bit after
  ``dist(0, i)`` rounds.  This is the local-broadcast building block
  whose noisy-version cost is the subject of Davies (2023).
* :class:`NeighborORTask` — one round: every node beeps its input bit
  and outputs what it heard (its clean neighborhood OR).  The cheapest
  possible network task, used as the inner protocol for overhead
  benchmarking of the local-broadcast scheme.
* :class:`NetworkSizeEstimateTask` — the multi-hop port of
  :class:`~repro.tasks.counting.SizeEstimateTask` ([BKK⁺16]): in phase
  ``k`` each node holds a ``Bernoulli(2^{-k})`` coin, and the phase's OR
  is *flooded* for a fixed window so that every node (not just the
  beeper's neighbors) learns whether the phase was silent.  The first
  silent phase ``k*`` gives the estimate ``2^{k*} ≈ n``.

All three model private randomness the package's standard way — any coins
are part of the task-sampled *input*, keeping protocols deterministic —
and all use the classic ``hear_self=False`` network convention, built via
:meth:`channel` on each task.  Parties yield
:class:`~repro.core.party.Burst`/:class:`~repro.core.party.Silence`
tokens for their structured stretches (informed flooders, silent
listeners), so executions run on the engine's scheduler and the
per-round cost tracks the contended frontier rather than n.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.party import Burst, Party
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, TaskError
from repro.network.channel import NetworkBeepingChannel
from repro.network.topology import Topology
from repro.tasks.base import Task
from repro.tasks.counting import SizeEstimateTask

__all__ = ["BroadcastTask", "NeighborORTask", "NetworkSizeEstimateTask"]

#: Draws per block of :meth:`NeighborORTask.sample_inputs` and of
#: :meth:`~repro.network.mis.MISTask.sample_inputs`: bounds one block's
#: scratch arrays (bits, words, doubles) without changing the draws.
_COIN_BLOCK = 1 << 13


#: Nodes per block of the output checks (:func:`_in_or_blocks`,
#: :func:`_equal_in_blocks`): bounds their scratch, whatever n is.
_CHECK_BLOCK = 1 << 13


def _in_or_blocks(
    topology: Topology, beeping: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, heard)`` per block of :data:`_CHECK_BLOCK` nodes from
    ``start``: ``heard[k]`` is the OR of the bool mask ``beeping`` over
    node ``start + k``'s in-neighbors (False for none).

    One ``logical_or.reduceat`` over the block's non-empty in-CSR rows;
    empty rows are left out, because reduceat would hand them the next
    row's first element.
    """
    in_ptr, in_idx, _, _ = topology.csr_arrays()
    for start in range(0, topology.n, _CHECK_BLOCK):
        ptr = in_ptr[start : start + _CHECK_BLOCK + 1]
        heard = np.zeros(len(ptr) - 1, dtype=bool)
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        if rows.size:
            beeped = np.take(beeping, in_idx[ptr[0] : ptr[-1]])
            heard[rows] = np.logical_or.reduceat(beeped, ptr[rows] - ptr[0])
        yield start, heard


def _equal_in_blocks(
    expected: Iterable[np.ndarray], outputs: Iterable
) -> bool:
    """Whether ``outputs`` equals the concatenated ``expected`` blocks.

    Each block compares as one Python list with the next outputs, which
    applies ``==`` pair by pair, so any output type gets the verdict a
    plain per-node loop would give.
    """
    remaining = iter(outputs)
    for block in expected:
        if block.tolist() != list(islice(remaining, block.size)):
            return False
    return True


def _as_topology(topology: Topology | Sequence[Sequence[int]]) -> Topology:
    if isinstance(topology, Topology):
        return topology
    return Topology.from_adjacency(topology)


class _NetworkTask(Task):
    """Shared base: topology storage + the matching network channel."""

    def __init__(self, topology: Topology | Sequence[Sequence[int]]) -> None:
        topology = _as_topology(topology)
        super().__init__(topology.n)
        self.topology = topology

    def channel(
        self,
        epsilon: float = 0.0,
        rng: random.Random | int | None = None,
        *,
        edge_epsilon: float = 0.0,
    ) -> NetworkBeepingChannel:
        """The matching network channel (classic no-self-hearing model)."""
        return NetworkBeepingChannel(
            self.topology,
            epsilon=epsilon,
            hear_self=False,
            rng=rng,
            edge_epsilon=edge_epsilon,
        )


# ----------------------------------------------------------------------
# Flooding broadcast
# ----------------------------------------------------------------------


class _BroadcastParty(Party):
    def __init__(self, is_source: bool, bit: int, rounds: int) -> None:
        self.is_source = is_source
        self.bit = bit
        self.rounds = rounds

    def run(self):
        if self.is_source:
            # The source knows its bit; it floods or stays silent and
            # never needs to listen.
            yield Burst(self.bit, self.rounds)
            return self.bit
        elapsed = 0
        while elapsed < self.rounds:
            heard = yield 0
            elapsed += 1
            if heard:
                remaining = self.rounds - elapsed
                if remaining:
                    yield Burst(1, remaining)
                return 1
        return 0


class _BroadcastProtocol(Protocol):
    def __init__(self, n_nodes: int, rounds: int) -> None:
        super().__init__(n_nodes)
        self.rounds = rounds

    def length(self) -> int:
        return self.rounds

    def create_parties(self, inputs, shared_seed: int | None = None):
        self._check_inputs(inputs)
        return [
            _BroadcastParty(index == 0, inputs[index], self.rounds)
            for index in range(self.n_parties)
        ]


class BroadcastTask(_NetworkTask):
    """Flood node 0's bit through the network.

    Once a node hears a beep it beeps for the rest of the execution, so
    beeps spread one hop per round: after ``r`` rounds exactly the nodes
    within distance ``r`` of the source are informed (noiselessly).

    Args:
        topology: The graph; reachability is judged along the *out*
            edges of the beep relation (whose beeps reach whom), so
            directed topologies work.
        rounds: Flooding rounds (``None``: the source's eccentricity —
            just enough for every reachable node, the noiseless optimum).

    Success (:meth:`is_correct`): node ``i`` outputs the bit when it is
    within ``rounds`` hops of the source, and 0 otherwise.  Under noise a
    phantom beep can inform the whole network of a bit nobody sent —
    which is exactly the event the repetition-coded local-broadcast
    scheme suppresses.
    """

    def __init__(
        self,
        topology: Topology | Sequence[Sequence[int]],
        rounds: int | None = None,
    ) -> None:
        super().__init__(topology)
        self.distances = self.topology.bfs_distances(0)
        if rounds is None:
            rounds = max(1, max(self.distances))
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        distances = np.array(self.distances)
        # The nodes within ``rounds`` hops of the source.
        self._reached = (distances >= 0) & (distances <= rounds)

    def sample_inputs(self, rng: random.Random) -> list[int]:
        """Node 0 gets a uniform bit; everyone else gets 0."""
        return [rng.randint(0, 1)] + [0] * (self.n_parties - 1)

    def reference_output(self, inputs: Sequence[int]) -> int:
        """The source bit (what every *reachable* node should output)."""
        return int(inputs[0])

    def is_correct(
        self, inputs: Sequence[int], outputs: Sequence[int]
    ) -> bool:
        """Reachable-in-time nodes hold the bit; the rest hold 0."""
        if len(outputs) != self.n_parties:
            return False
        bit = int(inputs[0])
        expected = (
            np.where(self._reached[start : start + _CHECK_BLOCK], bit, 0)
            for start in range(0, self.n_parties, _CHECK_BLOCK)
        )
        return _equal_in_blocks(expected, outputs)

    def noiseless_protocol(self) -> Protocol:
        return _BroadcastProtocol(self.n_parties, self.rounds)


# ----------------------------------------------------------------------
# One-round neighborhood OR
# ----------------------------------------------------------------------


class _NeighborORParty(Party):
    def __init__(self, bit: int) -> None:
        self.bit = bit

    def run(self):
        heard = yield self.bit
        return heard


class _NeighborORProtocol(Protocol):
    def length(self) -> int:
        return 1

    def create_parties(self, inputs, shared_seed: int | None = None):
        self._check_inputs(inputs)
        return [_NeighborORParty(bit) for bit in inputs]


class NeighborORTask(_NetworkTask):
    """One round: beep your bit, output your neighborhood's OR.

    The minimal network task — its noiseless length is 1, which makes it
    the natural *inner* protocol for measuring the multiplicative
    overhead of the local-broadcast simulation (every simulated round's
    cost is the whole measurement).

    Args:
        topology: The graph.
        density: Probability that a node's input bit is 1.
    """

    def __init__(
        self,
        topology: Topology | Sequence[Sequence[int]],
        density: float = 0.5,
    ) -> None:
        super().__init__(topology)
        if not 0.0 <= density <= 1.0:
            raise ConfigurationError(
                f"density must be in [0, 1], got {density}"
            )
        self.density = density

    def sample_inputs(self, rng: random.Random) -> list[int]:
        """One ``rng.random() < density`` bit per node, in node order.

        The draws come in blocks through
        :func:`~repro.vectorized.noise.random_block`, bitwise the
        per-node calls, leaving ``rng`` where they would.
        """
        # Imported here: repro.vectorized imports this module.
        from repro.vectorized.noise import random_block

        bits: list[int] = []
        for start in range(0, self.n_parties, _COIN_BLOCK):
            count = min(_COIN_BLOCK, self.n_parties - start)
            uniforms = random_block(rng, count)
            bits.extend((uniforms < self.density).view(np.uint8).tolist())
        return bits

    def reference_output(self, inputs) -> None:
        """Outputs are per-node (each node's own neighborhood OR).

        Raises :class:`TaskError`; use :meth:`is_correct`.
        """
        raise TaskError(
            "neighbor-or outputs are per-node; use is_correct"
        )

    def is_correct(
        self, inputs: Sequence[int], outputs: Sequence[int]
    ) -> bool:
        """Each node output the OR of its in-neighbors' bits.

        Checked in node blocks (:func:`_in_or_blocks`,
        :func:`_equal_in_blocks`), so the check holds no edge- or
        n-sized list.
        """
        if len(outputs) != self.n_parties:
            return False
        beeping = np.fromiter(inputs, dtype=bool, count=len(inputs))
        expected = (
            heard.view(np.uint8)
            for _, heard in _in_or_blocks(self.topology, beeping)
        )
        return _equal_in_blocks(expected, outputs)

    def noiseless_protocol(self) -> Protocol:
        return _NeighborORProtocol(self.n_parties)


# ----------------------------------------------------------------------
# Flooded network-size estimation
# ----------------------------------------------------------------------


class _NetSizeParty(Party):
    def __init__(self, tape: Sequence[int], window: int) -> None:
        self.tape = tuple(tape)
        self.window = window

    def run(self):
        window = self.window
        estimate = None
        for phase, coin in enumerate(self.tape):
            informed = coin == 1
            elapsed = 0
            if informed:
                yield Burst(1, window)
            else:
                while elapsed < window:
                    heard = yield 0
                    elapsed += 1
                    if heard:
                        informed = True
                        remaining = window - elapsed
                        if remaining:
                            yield Burst(1, remaining)
                        break
            if not informed and estimate is None:
                estimate = 1 << phase
            # Later phases still run in full (coin holders keep beeping),
            # mirroring the single-hop protocol's fixed round structure.
        return estimate if estimate is not None else 1 << len(self.tape)


class _NetSizeProtocol(Protocol):
    def __init__(self, n_nodes: int, phases: int, window: int) -> None:
        super().__init__(n_nodes)
        self.phases = phases
        self.window = window

    def length(self) -> int:
        return self.phases * self.window

    def create_parties(self, inputs, shared_seed: int | None = None):
        self._check_inputs(inputs)
        return [_NetSizeParty(tape, self.window) for tape in inputs]


class NetworkSizeEstimateTask(_NetworkTask):
    """Estimate the network size over a multi-hop topology ([BKK⁺16]).

    Phase ``k``: each node holds a ``Bernoulli(2^{-k})`` coin; coin
    holders beep, and the beep is *flooded* for a window of ``2·ecc(0)``
    rounds (an upper bound on the diameter of a connected symmetric
    graph), after which every node knows the phase's global OR.  The
    estimate is ``2^{k*}`` for the first silent phase ``k*``, exactly as
    in the single-hop :class:`~repro.tasks.counting.SizeEstimateTask` —
    same tapes, same reference output, same tolerance check; only the
    dissemination is multi-hop.

    Args:
        topology: The graph; must be symmetric and connected (flooding
            must be able to reach everyone).
        tolerance: Success needs every node's (identical) estimate
            within this multiplicative factor of n.
        extra_phases: Phases beyond ``log₂ n`` (silence headroom).
    """

    def __init__(
        self,
        topology: Topology | Sequence[Sequence[int]],
        tolerance: float = 32.0,
        extra_phases: int = 6,
    ) -> None:
        super().__init__(topology)
        if not self.topology.symmetric:
            raise ConfigurationError(
                "size estimation floods phase ORs; the topology must be "
                "symmetric"
            )
        distances = self.topology.bfs_distances(0)
        if min(distances) < 0:
            raise ConfigurationError(
                "size estimation floods phase ORs; the topology must be "
                "connected"
            )
        # Single-hop twin supplies phase count, tapes and checking
        # semantics, so the two tasks stay in lockstep by construction.
        self._single_hop = SizeEstimateTask(
            self.n_parties, tolerance=tolerance, extra_phases=extra_phases
        )
        self.tolerance = tolerance
        self.phases = self._single_hop.phases
        self.window = max(1, 2 * max(distances))

    def sample_inputs(self, rng: random.Random) -> list[tuple[int, ...]]:
        return self._single_hop.sample_inputs(rng)

    def reference_output(self, inputs: Sequence[Sequence[int]]) -> int:
        return self._single_hop.reference_output(inputs)

    def is_correct(
        self, inputs: Sequence[Sequence[int]], outputs: Sequence[int]
    ) -> bool:
        return self._single_hop.is_correct(inputs, outputs)

    def noiseless_protocol(self) -> Protocol:
        return _NetSizeProtocol(self.n_parties, self.phases, self.window)
