"""The *finding owners* phase — Algorithm 1 of the paper.

After a chunk has been simulated into a shared transcript ``π``, the parties
must attach an **owner** to every 1 in ``π``: a party that actually beeped 1
in that round.  Owners are what make 0→1 noise flips verifiable (§2.1): in
the later verification phase, the owner of round ``m`` vouches for
``π_m = 1``, and a 1 that finds no owner exposes itself as a noise artifact.

The protocol follows Algorithm 1 (itself in the spirit of [BO15]): parties
speak in turn order.  The current speaker repeatedly beeps the codeword
``C(j)`` of the smallest still-unclaimed position ``j`` it can own
(``b_j = 1``), or ``C(Next)`` when it has none left, passing the turn.  All
parties decode every codeword against the channel's noise law and update the
shared bookkeeping (claimed set ``T``, current ``turn``, owner table).

Differences from the paper's pseudocode, by necessity of actually running:

* **Silence is a symbol.**  Once ``turn`` exceeds the last party, nobody
  beeps and the channel emits pure noise; the paper's analysis ignores these
  iterations.  We reserve the all-zero codeword for an explicit ``SILENCE``
  symbol, so the ML decoder maps noise-only iterations to a no-op with high
  probability instead of corrupting the bookkeeping.
* **Iteration count.**  The paper uses ``2n`` iterations for a chunk of
  length ``n``; every iteration either claims a 1 or advances the turn, so
  ``|J| + n`` iterations suffice in general and that is what we run.

Per iteration, exactly one party (the current speaker) transmits a
codeword while everyone else listens; via
:func:`~repro.simulation.primitives.transmit_word` the speaker yields one
batch token per constant run of the codeword and each listener yields a
single ``Silence`` spanning the whole word, so the engine sleeps all
``n - 1`` listeners for the iteration instead of resuming them every
round.
* **Claims are restricted to positions with ``π_j = 1``** — claiming a
  position the shared transcript shows as 0 could not help verification.

The phase's correctness leans on every party decoding the *same* received
word, which is exactly the correlated model's guarantee; at the execution
layer this is the engine's shared-bit fast path
(:meth:`~repro.channels.base.Channel.transmit_shared`), so the common
decoded symbol is common by construction, not by comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Generator, Sequence

from repro.coding.code import BlockCode
from repro.coding.ml import MLDecoder
from repro.coding.random_code import GreedyRandomCode, default_code_length
from repro.core.formal import NoiseModel
from repro.core.party import Party
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.simulation.primitives import transmit_word

__all__ = [
    "SILENCE",
    "NEXT",
    "position_symbol",
    "symbol_position",
    "build_owners_code",
    "owners_code_length",
    "owners_decoder",
    "check_owners_inputs",
    "owners_phase",
    "OwnersResult",
    "OwnersProtocol",
]

# Symbol layout of the owners-phase codebook.
SILENCE = 0
NEXT = 1
_POSITION_BASE = 2


def position_symbol(position: int) -> int:
    """The code symbol claiming transcript position ``position``."""
    return _POSITION_BASE + position


def symbol_position(symbol: int) -> int | None:
    """The position a symbol claims, or ``None`` for SILENCE/NEXT."""
    if symbol < _POSITION_BASE:
        return None
    return symbol - _POSITION_BASE


def build_owners_code(
    max_positions: int,
    rate_constant: float = 12.0,
    seed: int = 0x5EED,
) -> GreedyRandomCode:
    """The shared codebook ``C : {Silence, Next} ∪ [max_positions] → {0,1}^L``.

    ``L = rate_constant · log₂(alphabet)``, the paper's ``c·log n``.  Symbol
    0 (SILENCE) is the all-zero word; all other codewords keep a weight and
    pairwise-distance floor so they remain decodable against silence-plus-
    noise as well as against each other.
    """
    return GreedyRandomCode(
        max_positions + _POSITION_BASE,
        owners_code_length(max_positions, rate_constant),
        include_zero_word=True,
        seed=seed,
    )


def owners_code_length(max_positions: int, rate_constant: float = 12.0) -> int:
    """The codeword length of :func:`build_owners_code`, without building
    the code."""
    return default_code_length(max_positions + _POSITION_BASE, rate_constant)


@lru_cache(maxsize=32)
def owners_decoder(
    max_positions: int, rate_constant: float, seed: int, noise: NoiseModel
) -> MLDecoder:
    """The ML decoder of :func:`build_owners_code`'s codebook under
    ``noise``, built once per parameter point per process.

    Every owners phase of a chunk scheme, scalar or collapsed, at one
    parameter point decodes with this one decoder, so its codebook and
    its decode memo are shared by every trial.  Decoding is a pure
    function of the received word, so a warm decoder changes no result.
    The memo keeps the 32 most recent points.
    """
    return MLDecoder(
        build_owners_code(max_positions, rate_constant, seed), noise
    )


def check_owners_inputs(
    my_bits: Sequence[int], pi: Sequence[int], code: BlockCode
) -> None:
    """Raise :class:`ProtocolError` unless one party's beep vector and the
    codebook fit the transcript ``pi``."""
    if len(my_bits) != len(pi):
        raise ProtocolError(
            f"my_bits has {len(my_bits)} entries, pi has {len(pi)}"
        )
    if code.num_symbols < _POSITION_BASE + len(pi):
        raise ProtocolError(
            f"codebook covers {code.num_symbols - _POSITION_BASE} "
            f"positions, chunk has {len(pi)}"
        )


@dataclass
class OwnersResult:
    """Shared bookkeeping produced by one owners phase.

    Attributes:
        owners: ``position -> party`` for every successfully claimed 1.
        claimed_by_me: Positions this party knows *it* claimed (and saw its
            claim decoded correctly).  ``owners[p] == me`` without
            ``p ∈ claimed_by_me`` signals a decoding error that assigned
            this party a round it never claimed — a verification flag.
        iterations: Iterations executed.
    """

    owners: dict[int, int] = field(default_factory=dict)
    claimed_by_me: set[int] = field(default_factory=set)
    iterations: int = 0


def owners_phase(
    party_index: int,
    n_parties: int,
    my_bits: Sequence[int],
    pi: Sequence[int],
    code: BlockCode,
    decoder: MLDecoder,
) -> Generator[int, int, OwnersResult]:
    """Run Algorithm 1's finding-owners phase for one party (sub-coroutine).

    Args:
        party_index: This party's index (turn order is index order).
        n_parties: Number of parties.
        my_bits: The bits this party beeped in the chunk (``b^i`` in the
            paper), one per transcript position.
        pi: The shared chunk transcript; ``pi[j] = 1`` positions need owners.
        code: The shared codebook from :func:`build_owners_code`; must cover
            ``len(pi)`` positions.
        decoder: ML decoder matched to the channel.

    Returns:
        This party's :class:`OwnersResult`.  Under correlated noise all
        parties return identical ``owners`` tables because every update is
        driven by the commonly-decoded symbol.
    """
    check_owners_inputs(my_bits, pi, code)

    ones = [j for j, bit in enumerate(pi) if bit == 1]
    iterations = len(ones) + n_parties
    claimed: set[int] = set()  # the shared set T of claimed positions
    turn = 0
    result = OwnersResult(iterations=iterations)

    for _ in range(iterations):
        sent_symbol = SILENCE
        if turn == party_index:
            candidate = next(
                (
                    j
                    for j in ones
                    if my_bits[j] == 1 and j not in claimed
                ),
                None,
            )
            sent_symbol = (
                NEXT if candidate is None else position_symbol(candidate)
            )
        received = yield from transmit_word(code.encode(sent_symbol))
        decoded = decoder.decode(received)

        if decoded == NEXT:
            turn += 1
        else:
            position = symbol_position(decoded)
            if position is not None and position < len(pi):
                claimed.add(position)
                if 0 <= turn < n_parties:
                    result.owners[position] = turn
                if (
                    turn == party_index
                    and decoded == sent_symbol
                ):
                    result.claimed_by_me.add(position)
        # SILENCE (and out-of-range positions) are no-ops.

    return result


class _OwnersParty(Party):
    """Standalone party wrapper around :func:`owners_phase`."""

    def __init__(
        self,
        party_index: int,
        n_parties: int,
        my_bits: Sequence[int],
        pi: Sequence[int],
        code: BlockCode,
        decoder: MLDecoder,
    ) -> None:
        self.party_index = party_index
        self.n_parties = n_parties
        self.my_bits = tuple(my_bits)
        self.pi = tuple(pi)
        self.code = code
        self.decoder = decoder

    def run(self):
        result = yield from owners_phase(
            self.party_index,
            self.n_parties,
            self.my_bits,
            self.pi,
            self.code,
            self.decoder,
        )
        return result


class OwnersProtocol(Protocol):
    """Algorithm 1's finding-owners phase as a standalone protocol.

    This is the protocol Theorem D.1 analyses: party ``i``'s input is its
    beep vector ``b^i``; the transcript ``π`` with ``π_m = ⋁_i b^i_m`` is
    common knowledge (passed at construction).  Each party outputs its
    :class:`OwnersResult`; Theorem D.1 asserts that, except with probability
    polynomially small, all parties output the same owner table and every
    owner actually beeped 1 in the round it owns.

    Args:
        n_parties: Number of parties.
        pi: The shared transcript whose 1s need owners.
        noise_model: The channel's noise law (drives ML decoding).
        code: Shared codebook; defaults to :func:`build_owners_code` over
            ``len(pi)`` positions.
    """

    def __init__(
        self,
        n_parties: int,
        pi: Sequence[int],
        noise_model: NoiseModel,
        code: BlockCode | None = None,
    ) -> None:
        super().__init__(n_parties)
        self.pi = tuple(pi)
        self.noise_model = noise_model
        self.code = (
            code if code is not None else build_owners_code(len(self.pi))
        )
        if self.code.num_symbols < _POSITION_BASE + len(self.pi):
            raise ConfigurationError(
                "codebook too small for the transcript length"
            )
        self.decoder = MLDecoder(self.code, noise_model)

    def length(self) -> int:
        ones = sum(self.pi)
        return (ones + self.n_parties) * self.code.codeword_length

    def create_parties(self, inputs, shared_seed: int | None = None):
        self._check_inputs(inputs)
        return [
            _OwnersParty(
                party_index=index,
                n_parties=self.n_parties,
                my_bits=inputs[index],
                pi=self.pi,
                code=self.code,
                decoder=self.decoder,
            )
            for index in range(self.n_parties)
        ]
