"""Shared chunk-simulation machinery (Algorithm 1, both phases).

Both rewind-style simulators — the iterative
:class:`~repro.simulation.chunked.ChunkCommitSimulator` and the faithful
Appendix-D.2 :class:`~repro.simulation.hierarchical.HierarchicalSimulator`
— simulate one chunk the same way: repetition-harden every virtual round
(phase 1), then run the finding-owners phase (phase 2).  This module holds
that common sub-coroutine (stepping the inner party with
:class:`~repro.core.party.InnerReplay`), the per-party consistency check
used by every verification flavour, the round counts both schemes plan
on (:func:`plan_chunks`) and the party state they share
(:class:`ChunkSchemeParty`).

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

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel
from repro.coding.code import BlockCode
from repro.coding.ml import MLDecoder
from repro.core.formal import NoiseModel
from repro.core.party import InnerReplay, Party
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.simulation.base import (
    ReplayingProtocol,
    SimulationReport,
    Simulator,
)
from repro.simulation.owners import (
    OwnersResult,
    build_owners_code,
    owners_code_length,
    owners_phase,
)
from repro.simulation.primitives import repeated_bit

__all__ = [
    "ChunkSchemeParty",
    "SimulatedChunk",
    "emit_owners_phase",
    "plan_chunks",
    "simulate_chunk_with_owners",
    "chunk_error_flag",
]


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


def plan_chunks(
    simulator: Simulator,
    protocol: Protocol,
    channel: Channel,
    rejection: str,
) -> tuple[SimulationReport, NoiseModel, int]:
    """The round counts both chunk schemes share.

    Raises :class:`ConfigurationError` with the message ``rejection`` for
    an uncorrelated channel.  Returns a fresh report whose ``extra`` holds
    ``repetitions``, ``verification_repetitions``, ``chunk_length`` and
    ``codeword_length``, the noise model the owners decoder assumes, and
    the number of chunks.
    """
    if not channel.correlated:
        raise ConfigurationError(rejection)
    inner_length = simulator._require_fixed_length(protocol)
    noise = simulator._resolve_noise_model(channel)
    epsilon = max(noise.up, noise.down)
    params = simulator.params
    n_parties = protocol.n_parties
    chunk_length = params.resolve_chunk_length(n_parties)
    report = simulator._report(
        inner_length,
        repetitions=params.resolve_repetitions(n_parties, epsilon),
        verification_repetitions=params.resolve_verification_repetitions(
            n_parties, epsilon
        ),
        chunk_length=chunk_length,
        codeword_length=owners_code_length(
            chunk_length, params.code_rate_constant
        ),
    )
    return report, noise, max(1, math.ceil(inner_length / chunk_length))


class ChunkSchemeParty(Party):
    """State the parties of both chunk schemes share.

    The plan's counts are read from ``report.extra``; ``make_inner``
    re-creates this party's inner party for each replay.  Party 0 alone
    keeps the ``trace`` log (observability opt-in): appending is pure
    bookkeeping over already-shared state, consumes no RNG draws and
    never alters the round structure.
    """

    def __init__(
        self,
        party_index: int,
        make_inner: Callable[[], Party],
        *,
        n_parties: int,
        report: SimulationReport,
        code: BlockCode,
        decoder: MLDecoder,
        trace: list | None,
    ) -> None:
        self.party_index = party_index
        self.make_inner = make_inner
        self.n_parties = n_parties
        self.report = report
        self.inner_length = report.inner_length
        self.chunk_length = report.extra["chunk_length"]
        self.repetitions = report.extra["repetitions"]
        self.verification_repetitions = report.extra[
            "verification_repetitions"
        ]
        self.code = code
        self.decoder = decoder
        self.trace = trace if party_index == 0 else None

    @classmethod
    def outer_protocol(
        cls,
        inner: Protocol,
        simulator: Simulator,
        report: SimulationReport,
        noise: NoiseModel,
        trace: list | None,
        **fields: Any,
    ) -> ReplayingProtocol:
        """The outer protocol of ``cls`` parties over ``inner``, sharing
        one owners code and an ML decoder matched to ``noise``; ``fields``
        go to every party's constructor."""
        params = simulator.params
        code = build_owners_code(
            report.extra["chunk_length"],
            rate_constant=params.code_rate_constant,
            seed=params.code_seed,
        )
        return ReplayingProtocol(
            inner,
            partial(
                cls,
                n_parties=inner.n_parties,
                report=report,
                code=code,
                decoder=MLDecoder(code, noise),
                trace=trace,
                **fields,
            ),
        )

    def simulate_chunk(
        self, prefix: Sequence[int], chunk_rounds: int
    ) -> Generator[int, int, SimulatedChunk]:
        """Phases 1 + 2 of Algorithm 1 after replaying ``prefix``."""
        return simulate_chunk_with_owners(
            self.party_index,
            self.n_parties,
            InnerReplay(self.make_inner(), prefix),
            chunk_rounds,
            self.repetitions,
            self.code,
            self.decoder,
        )

    def chunk_trace(
        self, chunk: SimulatedChunk, attempt: int, committed_rounds: int
    ) -> dict[str, Any]:
        """The trace fields of one simulated chunk."""
        owners = chunk.owners
        return {
            "attempt": attempt,
            "committed_rounds": committed_rounds,
            "chunk_rounds": len(chunk.pi),
            "sim_rounds": len(chunk.pi) * self.repetitions,
            "owner_iterations": owners.iterations,
            "owner_rounds": owners.iterations * self.code.codeword_length,
            "ones": sum(chunk.pi),
            "owners_assigned": len(owners.owners),
            "unowned_ones": sum(
                1
                for position, value in enumerate(chunk.pi)
                if value and position not in owners.owners
            ),
            "flag": chunk.party_flag(self.party_index),
        }

    def output_over(self, committed: Sequence[int]) -> Any:
        """The inner party's output over the committed transcript,
        zero-padded when the budget ran out (a detectable failure the
        report records)."""
        padded = list(committed) + [0] * (self.inner_length - len(committed))
        replay = InnerReplay(self.make_inner(), padded)
        if not replay.finished:
            raise ProtocolError(
                "inner protocol did not finish at its declared length"
            )
        return replay.output


def emit_owners_phase(observe: "Observer", entry: dict[str, Any]) -> None:
    """The ``owners_phase`` event of one :meth:`ChunkSchemeParty.chunk_trace`
    entry."""
    observe.emit(
        "owners_phase",
        attempt=entry["attempt"],
        iterations=entry["owner_iterations"],
        owner_rounds=entry["owner_rounds"],
        ones=entry["ones"],
        owners_assigned=entry["owners_assigned"],
        unowned_ones=entry["unowned_ones"],
        disagreement=bool(entry["flag"]),
    )
