"""The graph-structured beeping channel.

Each round, node ``i`` receives the OR of the bits beeped by its
*neighbors* (and, with ``hear_self=True``, its own bit).  Two noise
models compose:

* **per-node** noise — node ``i``'s reception is flipped with
  probability ``epsilon`` (or ``node_epsilons[i]``), the multi-hop
  analogue of §1.2's independent model;
* **per-edge** noise — each delivery from a beeping node to one of its
  hearers is independently *erased* with probability ``edge_epsilon``
  (a lossy-link model; a node still hears a beep if any one delivery
  survives; self-hearing is never erased).

The single-hop channels of :mod:`repro.channels` are the complete-graph
special case: ``NetworkBeepingChannel(complete(n), hear_self=True)`` is
outcome-identical to :class:`~repro.channels.noiseless.NoiselessChannel`,
and with ``epsilon > 0`` it is **bitwise identical** to
:class:`~repro.channels.independent.IndependentNoiseChannel` for the
same seed: per-node noise consumes one block-buffered uniform draw per
node, in node order, flipping when the draw lands below ε — the
independent channel's exact draw sequence (pinned by the equivalence
test suite).

Sparse evaluation: rounds are computed by walking the **out**-neighborhoods
of the beeping nodes only (CSR arrays from :class:`~repro.network.topology.
Topology`), so per-round work is O(n_beepers + Σ out-degree(beepers)) plus
O(n) only when per-node noise draws are active — not O(edges) and never
O(n²).  :meth:`NetworkBeepingChannel.step` exposes that sparse form
directly (beeping-node list in, hearing-node list out) for schedulers and
benchmarks that never materialize per-node words; :meth:`transmit` wraps
the same core, consuming identical RNG draws.

Noise accounting: the channel reports *genuine* noise — receptions that
differ from the node's clean (noise-free) neighborhood OR — via
``RoundOutcome.flips`` and ``channel.stats``, never the topology-induced
divergence of per-node views from the global OR.  The engine threads the
per-round flip counts into the transcript, so
:meth:`~repro.channels.stats.ChannelStats.observed_from_transcript`
re-derives the channel's counters exactly on network transcripts.

Graph format: a :class:`~repro.network.topology.Topology` or any
sequence of neighbor collections (``adjacency[i]`` = the nodes whose
beeps node ``i`` hears).  Helpers :func:`ring`, :func:`grid` and
:func:`complete` return the adjacency lists (neighbors ascending) of the
generator registry's builders in :mod:`repro.network.topology`, which
builds ``Topology`` objects (random geometric, scale-free, ...).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.channels.base import Channel, RoundOutcome
from repro.errors import ChannelError, ConfigurationError
from repro.network.topology import Topology, _complete, _grid, _ring
from repro.util.bits import BitWord

__all__ = ["NetworkBeepingChannel", "ring", "grid", "complete"]


def ring(n_nodes: int) -> list[tuple[int, ...]]:
    """Cycle topology: node i hears i±1 (mod n)."""
    return _ring(n=n_nodes).adjacency_lists()


def grid(rows: int, columns: int) -> list[tuple[int, ...]]:
    """4-neighbor grid topology, nodes numbered row-major."""
    return _grid(rows=rows, cols=columns).adjacency_lists()


def complete(n_nodes: int) -> list[tuple[int, ...]]:
    """Complete topology: everyone hears everyone else."""
    return _complete(n=n_nodes).adjacency_lists()


class NetworkBeepingChannel(Channel):
    """Beeping over a graph, with per-node and per-edge noise.

    Args:
        topology: A :class:`~repro.network.topology.Topology`, or
            adjacency lists (``adjacency[i]`` = nodes whose beeps node
            ``i`` hears; need not be symmetric — directed interference
            is allowed).
        epsilon: Per-node reception flip probability (0 = noiseless).
        hear_self: Whether a beeping node hears its own beep.  The
            classic beeping-network model says no (a transmitting radio
            cannot listen); ``True`` recovers the paper's single-hop
            channel on the complete graph.
        rng: Noise source.
        edge_epsilon: Per-delivery erasure probability (0 = reliable
            links).  Erasure draws are consumed per round in (ascending
            beeping node, out-neighbor order) *before* any per-node
            flip draws, so executions are reproducible from the seed.
        node_epsilons: Optional per-node flip probabilities overriding
            the scalar ``epsilon`` (one entry per node).  When any node
            noise is active, one uniform draw is consumed per node per
            round, in node order — the uniform discipline that makes
            the complete-graph case bitwise-match the independent
            channel.

    ``RoundOutcome.or_value`` remains the *global* OR of the sent bits
    while each node's reception reflects its neighborhood, so outcome
    equality with single-hop channels only holds on the complete graph.
    ``RoundOutcome.flips`` carries the round's genuine per-node noise
    counts (receptions differing from the clean neighborhood OR), which
    is also what ``channel.stats`` accumulates — topology-induced view
    divergence is never counted as noise.
    """

    correlated = False

    def __init__(
        self,
        topology: Topology | Sequence[Iterable[int]],
        epsilon: float = 0.0,
        hear_self: bool = False,
        rng: random.Random | int | None = None,
        *,
        edge_epsilon: float = 0.0,
        node_epsilons: Sequence[float] | None = None,
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {epsilon}"
            )
        if not 0.0 <= edge_epsilon < 1.0:
            raise ConfigurationError(
                f"edge_epsilon must be in [0, 1), got {edge_epsilon}"
            )
        super().__init__(rng)
        if not isinstance(topology, Topology):
            topology = Topology.from_adjacency(topology)
        self.topology = topology
        self.n_nodes = topology.n
        self.epsilon = epsilon
        self.edge_epsilon = edge_epsilon
        self.hear_self = hear_self
        if node_epsilons is not None:
            node_epsilons = tuple(float(e) for e in node_epsilons)
            if len(node_epsilons) != self.n_nodes:
                raise ConfigurationError(
                    f"node_epsilons has {len(node_epsilons)} entries, "
                    f"expected {self.n_nodes}"
                )
            for node, value in enumerate(node_epsilons):
                if not 0.0 <= value < 1.0:
                    raise ConfigurationError(
                        f"node_epsilons[{node}] must be in [0, 1), "
                        f"got {value}"
                    )
            if not any(node_epsilons):
                node_epsilons = None  # all-zero vector: no node noise
        self.node_epsilons = node_epsilons
        self._node_noise = epsilon > 0.0 or node_epsilons is not None
        # Reusable round buffers: mark-and-clear with touched lists, so a
        # round costs O(nodes actually reached), not O(n) resets.
        self._heard = bytearray(self.n_nodes)
        self._clean = (
            bytearray(self.n_nodes) if edge_epsilon > 0.0 else self._heard
        )

    @property
    def max_epsilon(self) -> float:
        """The largest per-node flip probability (decoder calibration)."""
        if self.node_epsilons is not None:
            return max(self.node_epsilons)
        return self.epsilon

    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        raise NotImplementedError  # transmit() is overridden entirely

    def _round_ones(
        self, beepers: Sequence[int]
    ) -> tuple[list[int], int, int]:
        """One round's sparse core: which nodes receive 1, plus the
        genuine noise flip counts ``(up, down)`` against each reached
        node's clean neighborhood OR.

        ``beepers`` must be the beeping node ids in ascending order (the
        draw-order contract).  Work: O(Σ out-degree(beepers)) for the
        neighborhood walk, plus O(n) only when per-node noise draws run.
        """
        _, _, out_ptr, out_idx = self.topology.scalar_csr()
        heard = self._heard
        clean = self._clean
        touched: list[int] = []
        mark = touched.append
        edge_eps = self.edge_epsilon
        if edge_eps > 0.0:
            clean_touched: list[int] = []
            cmark = clean_touched.append
            next_float = self._next_noise_float
            for j in beepers:
                for i in out_idx[out_ptr[j] : out_ptr[j + 1]]:
                    if not clean[i]:
                        clean[i] = 1
                        cmark(i)
                    if next_float() >= edge_eps and not heard[i]:
                        heard[i] = 1
                        mark(i)
            if self.hear_self:
                # A node's own beep is heard reliably (no air gap).
                for j in beepers:
                    if not clean[j]:
                        clean[j] = 1
                        cmark(j)
                    if not heard[j]:
                        heard[j] = 1
                        mark(j)
        else:
            for j in beepers:
                for i in out_idx[out_ptr[j] : out_ptr[j + 1]]:
                    if not heard[i]:
                        heard[i] = 1
                        mark(i)
            if self.hear_self:
                for j in beepers:
                    if not heard[j]:
                        heard[j] = 1
                        mark(j)
            clean_touched = touched

        flips_up = 0
        flips_down = 0
        if self._node_noise:
            next_float = self._next_noise_float
            epsilons = self.node_epsilons
            eps = self.epsilon
            ones: list[int] = []
            keep = ones.append
            for i in range(self.n_nodes):
                draw = next_float()
                bit = heard[i]
                if draw < (eps if epsilons is None else epsilons[i]):
                    bit ^= 1
                if bit:
                    keep(i)
                if bit != clean[i]:
                    if clean[i]:
                        flips_down += 1
                    else:
                        flips_up += 1
        elif edge_eps > 0.0:
            for i in clean_touched:
                if not heard[i]:
                    flips_down += 1
            touched.sort()
            ones = touched
        else:
            touched.sort()
            ones = touched

        # Clear the round buffers (touched entries only).
        if clean is heard:
            for i in touched:
                heard[i] = 0
        else:
            for i in touched:
                heard[i] = 0
            for i in clean_touched:
                clean[i] = 0
        return ones, flips_up, flips_down

    def transmit(self, bits: Sequence[int]) -> RoundOutcome:
        from repro.util.bits import validate_bits

        word = validate_bits(bits)
        if len(word) != self.n_nodes:
            raise ChannelError(
                f"expected {self.n_nodes} bits (one per node), got "
                f"{len(word)}"
            )
        beepers = [i for i, bit in enumerate(word) if bit]
        ones, flips_up, flips_down = self._round_ones(beepers)
        received = [0] * self.n_nodes
        for i in ones:
            received[i] = 1
        or_value = 1 if beepers else 0
        self.stats.record(
            beeps=len(beepers),
            or_value=or_value,
            flips_up=flips_up,
            flips_down=flips_down,
        )
        return RoundOutcome(
            or_value=or_value,
            received=tuple(received),
            flips=(flips_up, flips_down),
        )

    def step(self, beepers: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """One round in sparse form: beeping nodes in, hearing nodes out.

        ``beepers`` are the ids of the nodes beeping 1 this round, in
        strictly ascending order (unchecked — the draw-order contract).
        Returns ``(or_value, ones)`` with ``ones`` the sorted ids of the
        nodes that received a 1.  Statistics and RNG draws are exactly
        those of :meth:`transmit` on the equivalent full word, without
        ever materializing an n-length word — with no per-node noise
        active, the round costs O(beepers' out-neighborhoods) total.
        """
        ones, flips_up, flips_down = self._round_ones(beepers)
        or_value = 1 if beepers else 0
        self.stats.record(
            beeps=len(beepers),
            or_value=or_value,
            flips_up=flips_up,
            flips_down=flips_down,
        )
        return or_value, tuple(ones)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkBeepingChannel(nodes={self.n_nodes}, "
            f"epsilon={self.epsilon}, edge_epsilon={self.edge_epsilon}, "
            f"hear_self={self.hear_self})"
        )
