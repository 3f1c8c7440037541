"""Maximal independent set by beeps (Luby-style, after [AAB⁺13]).

"Beeping a maximal independent set" is the flagship application of the
beeping network model (cited in the paper's first paragraph).  This module
implements the classic randomized two-rounds-per-phase protocol:

* **Candidate round** — every still-*undecided* node beeps with the
  phase's candidate probability (its private coin for the phase).  The
  probabilities cycle through ``1/2, 1/4, ..., 2^{-levels}`` so that for
  *every* local density some phase has a good chance of producing an
  isolated candidate — the density-sweeping idea of [AAB⁺13] (a fixed
  ``1/2`` stalls on dense graphs: in a clique the chance that exactly one
  of k nodes beeps at p = 1/2 is k/2^k);
* **Winner round** — a node that beeped as a candidate and heard **no**
  neighbor beep in the candidate round joins the MIS and beeps a victory
  signal; an undecided node hearing a victory beep from a neighbor becomes
  *dominated* (decides out).

Decided nodes stay silent forever, so the process is monotone; after
O(log² n) phases every node has decided w.h.p., and the decided-in set is
independent (two neighbors cannot both win a phase: each would have heard
the other's candidate beep — note this uses ``hear_self=False``, the
classic convention) and maximal (a node only decides out when a neighbor
decided in).

A decided node yields one :class:`~repro.core.party.Silence` token for all
its remaining rounds, so the engine's scheduler skips it entirely —
on large graphs most nodes decide in the first few phases and the per-round
work collapses toward the still-contended neighborhoods (tokens are bitwise
sugar: the execution is identical to yielding 0 every round).

Private randomness is modelled the package's standard way: each node's
input is its coin tape for all phases, sampled by
:meth:`MISTask.sample_inputs`, keeping the protocol object deterministic.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from repro.core.party import Party, Silence
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, TaskError
from repro.network.channel import NetworkBeepingChannel
from repro.network.tasks import _COIN_BLOCK, _in_or_blocks
from repro.network.topology import Topology
from repro.tasks.base import Task

__all__ = ["MISTask", "mis_protocol"]


class _MISParty(Party):
    """One node of the MIS election."""

    def __init__(self, coin_tape: Sequence[int], phases: int) -> None:
        self.coin_tape = tuple(coin_tape)
        self.phases = phases

    def run(self):
        # state: None = undecided, True = in MIS, False = dominated.
        decided: bool | None = None
        for phase in range(self.phases):
            # Candidate round.
            candidate = self.coin_tape[phase] == 1
            heard_candidates = yield (1 if candidate else 0)
            # Winner round.
            wins = candidate and heard_candidates == 0
            heard_winners = yield (1 if wins else 0)
            if wins:
                decided = True
            elif heard_winners == 1:
                decided = False
            if decided is not None:
                remaining = 2 * (self.phases - phase - 1)
                if remaining:
                    yield Silence(remaining)
                return decided
        # Undecided nodes after all phases report None (a failure the
        # task's checker rejects); w.h.p. this does not happen.
        return decided


class _MISProtocol(Protocol):
    def __init__(self, n_nodes: int, phases: int) -> None:
        super().__init__(n_nodes)
        self.phases = phases

    def length(self) -> int:
        return 2 * self.phases

    def create_parties(self, inputs, shared_seed: int | None = None):
        self._check_inputs(inputs)
        return [
            _MISParty(tape, self.phases) for tape in inputs
        ]


def mis_protocol(n_nodes: int, phases: int) -> Protocol:
    """The MIS election protocol (``2 * phases`` rounds)."""
    if phases < 1:
        raise ConfigurationError(f"phases must be >= 1, got {phases}")
    return _MISProtocol(n_nodes, phases)


class MISTask(Task):
    """Elect a maximal independent set of a graph by beeping.

    Args:
        topology: The graph — a :class:`~repro.network.topology.Topology`
            or adjacency lists (see
            :class:`~repro.network.channel.NetworkBeepingChannel`); must
            be symmetric for MIS to be meaningful.
        cycles: How many times the probability schedule
            ``1/2, 1/4, ..., 2^{-levels}`` is swept (``None``: a
            log-n-derived default).  Total phases =
            ``cycles · levels = O(log² n)``, the classic bound.

    Success: every node decided, the in-set is independent, and it is
    maximal (every out-node has an in-neighbor).
    """

    def __init__(
        self,
        topology: Topology | Sequence[Sequence[int]],
        cycles: int | None = None,
    ) -> None:
        if not isinstance(topology, Topology):
            topology = Topology.from_adjacency(topology)
        if not topology.symmetric:
            raise ConfigurationError(
                "adjacency must be symmetric: MIS needs an undirected graph"
            )
        n_nodes = topology.n
        super().__init__(n_nodes)
        self.topology = topology
        self.levels = max(1, math.ceil(math.log2(max(n_nodes, 2)))) + 1
        if cycles is None:
            cycles = math.ceil(math.log2(max(n_nodes, 2))) + 6
        if cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
        self.cycles = cycles
        self.phases = self.cycles * self.levels

    def candidate_probability(self, phase: int) -> float:
        """The beep probability of ``phase`` (the cycling schedule)."""
        return 2.0 ** -((phase % self.levels) + 1)

    def sample_inputs(self, rng: random.Random) -> list[tuple[int, ...]]:
        """Per-node candidate coins: ``coin[k] ~ Bernoulli(p_k)`` with
        ``p_k`` from the cycling schedule.

        Node-major, one ``rng.random() < p_k`` per coin; the draws come
        in blocks of whole nodes through
        :func:`~repro.vectorized.noise.random_block`, bitwise the
        per-coin calls, leaving ``rng`` where they would.
        """
        # Imported here: repro.vectorized imports this module.
        from repro.vectorized.noise import random_block

        phases = self.phases
        probabilities = np.array(
            [self.candidate_probability(phase) for phase in range(phases)]
        )
        rows = max(1, _COIN_BLOCK // phases)
        tapes: list[tuple[int, ...]] = []
        for start in range(0, self.n_parties, rows):
            count = min(rows, self.n_parties - start)
            uniforms = random_block(rng, count * phases).reshape(count, phases)
            coins = (uniforms < probabilities).view(np.uint8)
            tapes.extend(map(tuple, coins.tolist()))
        return tapes

    def reference_output(self, inputs) -> None:
        """MIS has no unique reference output — validity is structural.

        Raises :class:`TaskError`; use :meth:`is_correct`.
        """
        raise TaskError(
            "MIS outputs are validated structurally; use is_correct"
        )

    def is_correct(self, inputs, outputs: Sequence[bool | None]) -> bool:
        """Everyone decided + independence + maximality.

        A node is in the set iff its output ``is True``; any other
        non-``None`` output (``False``, or a truthy non-``True`` value)
        counts as out of it.  Each node block checks that no member has
        a member neighbor and every non-member has one, over the in-CSR
        (:func:`~repro.network.tasks._in_or_blocks`).
        """
        if len(outputs) != self.n_parties:
            return False
        if any(decision is None for decision in outputs):
            return False
        member = np.fromiter(
            (decision is True for decision in outputs),
            dtype=bool,
            count=self.n_parties,
        )
        for start, dominated in _in_or_blocks(self.topology, member):
            inside = member[start : start + dominated.size]
            if (inside & dominated).any():
                return False  # not independent
            if not (inside | dominated).all():
                return False  # not maximal
        return True

    def noiseless_protocol(self) -> Protocol:
        return mis_protocol(self.n_parties, self.phases)

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
