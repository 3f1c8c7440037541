"""Shared chunk-simulation machinery (Algorithm 1, both phases).

Both rewind-style simulators — the iterative
:class:`~repro.simulation.chunked.ChunkCommitSimulator` and the faithful
Appendix-D.2 :class:`~repro.simulation.hierarchical.HierarchicalSimulator`
— simulate one chunk the same way: repetition-harden every virtual round
(phase 1), then run the finding-owners phase (phase 2).  This module holds
that common sub-coroutine plus the inner-party replay helper and the
per-party consistency check used by every verification flavour.

Everything here runs inside the engine's per-round hot loop (each virtual
round expands to ``repetitions`` channel rounds), so the building blocks
avoid per-round allocation: :func:`~repro.simulation.primitives.repeated_bit`
keeps a running vote count, and the chunk lists below grow by one entry per
*virtual* round, not per channel round.  Since the primitives emit batch
tokens (``Burst``/``Silence``), each virtual round is also a *single*
engine yield per party — the engine's scheduler delivers all
``repetitions`` heard bits at once, so generator resumes scale with
virtual rounds too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from repro.coding.code import BlockCode
from repro.coding.ml import MLDecoder
from repro.core.party import Party
from repro.errors import ProtocolError
from repro.simulation.owners import OwnersResult, owners_phase
from repro.simulation.primitives import repeated_bit

__all__ = [
    "InnerReplay",
    "SimulatedChunk",
    "simulate_chunk_with_owners",
    "chunk_error_flag",
]


class InnerReplay:
    """Drives a fresh inner-party coroutine over a given received prefix.

    Wraps the awkward generator priming/termination protocol so simulator
    code reads linearly.  ``advance`` delivers one received bit;
    ``next_bit`` is the party's next beep or ``None`` once the inner
    protocol finished (its output is then available as ``output``).
    """

    def __init__(
        self, make_inner: Callable[[], Party], prefix: Sequence[int]
    ) -> None:
        self._program = make_inner().run()
        self._output: Any = None
        self._finished = False
        self._next_bit: int | None = None
        try:
            self._next_bit = next(self._program)
        except StopIteration as stop:
            self._finish(stop.value)
        for received in prefix:
            self.advance(received)

    def _finish(self, output: Any) -> None:
        self._finished = True
        self._output = output
        self._next_bit = None

    @property
    def next_bit(self) -> int | None:
        """The bit the inner party beeps next, or ``None`` if finished."""
        return self._next_bit

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def output(self) -> Any:
        if not self._finished:
            raise ProtocolError("inner party has not finished")
        return self._output

    def advance(self, received: int) -> None:
        """Deliver one received bit to the inner party."""
        if self._finished:
            raise ProtocolError(
                "inner party finished before its declared length"
            )
        try:
            self._next_bit = self._program.send(received)
        except StopIteration as stop:
            self._finish(stop.value)


@dataclass
class SimulatedChunk:
    """One simulated chunk, as seen by one party.

    ``pi`` and ``owners`` are shared-consistent across parties under
    correlated noise (they are functions of commonly received bits);
    ``my_beeps`` and ``claimed_by_me`` are party-local.
    """

    pi: tuple[int, ...]
    my_beeps: tuple[int, ...]
    owners: OwnersResult

    def party_flag(self, party_index: int) -> int:
        """This party's inconsistency flag for the chunk (§2.1)."""
        return chunk_error_flag(
            party_index, self.pi, self.my_beeps, self.owners
        )


def simulate_chunk_with_owners(
    party_index: int,
    n_parties: int,
    replay: InnerReplay,
    chunk_rounds: int,
    repetitions: int,
    code: BlockCode,
    decoder: MLDecoder,
) -> Generator[int, int, SimulatedChunk]:
    """Algorithm 1 for one chunk, as a party sub-coroutine.

    Phase 1: each of ``chunk_rounds`` virtual rounds is beeped
    ``repetitions`` times and majority-decoded into the chunk transcript
    (advancing ``replay`` as it goes).  Phase 2: the finding-owners phase
    attaches an owner to every 1.
    """
    my_beeps: list[int] = []
    chunk_pi: list[int] = []
    for _ in range(chunk_rounds):
        bit = replay.next_bit
        if bit is None:
            raise ProtocolError(
                "inner protocol shorter than its declared length"
            )
        my_beeps.append(bit)
        decoded = yield from repeated_bit(bit, repetitions)
        chunk_pi.append(decoded)
        replay.advance(decoded)
    owners = yield from owners_phase(
        party_index, n_parties, my_beeps, chunk_pi, code, decoder
    )
    return SimulatedChunk(
        pi=tuple(chunk_pi), my_beeps=tuple(my_beeps), owners=owners
    )


def chunk_error_flag(
    party_index: int,
    chunk_pi: Sequence[int],
    my_beeps: Sequence[int],
    owners: OwnersResult,
) -> int:
    """1 iff this party detects an inconsistency in a simulated chunk.

    * ``π_p = 0`` but I beeped 1 — my beep was suppressed.
    * ``π_p = 1`` with no owner — a phantom 1 nobody vouches for
      (deterministic from shared state: every party raises it).
    * I own a round I never (successfully) claimed — a decoding error
      corrupted the owner table.
    """
    for position, value in enumerate(chunk_pi):
        if value == 0:
            if my_beeps[position] == 1:
                return 1
        else:
            owner = owners.owners.get(position)
            if owner is None:
                return 1
            if (
                owner == party_index
                and position not in owners.claimed_by_me
            ):
                return 1
    return 0
