"""The paper's formal protocol model, executable and exactly analysable.

Appendix A.1.1 defines a deterministic protocol as a tuple
``(T, {f_m^i}, {g^i})`` where ``f_m^i : X^i × {0,1}^{m-1} → {0,1}`` is party
``i``'s broadcast function for round ``m`` and ``g^i`` its output function.
:class:`FormalProtocol` represents exactly this object and exposes the
quantities the lower-bound proof manipulates:

* the beep sets ``B_m(x, π)`` — who beeped 1 in round ``m``;
* the round partition ``A_0, A'_0, A_i, A_{n+1}`` of Theorem C.2;
* the exact transcript probability ``Pr(π | x)`` under the one-sided or
  two-sided noise model (the product formula used throughout Appendix C);
* exhaustive enumeration of positive-probability transcripts, with pruning
  (under one-sided noise, rounds with a beeper force ``π_m = 1``).

All per-transcript quantities read the beep bits from one :class:`BeepTable`
per transcript: ``f_m^i(y, π_{<m})`` for every party ``i`` and candidate
input ``y``, as an int bitmask over rounds, filled lazily and reused by every
neighbour ``x^{i=y}`` the Appendix C sums visit.

Everything here is exact rational-free floating point arithmetic over small
instances; the Monte-Carlo layer in :mod:`repro.analysis` covers large ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.core.party import (
    Burst,
    FunctionalParty,
    Party,
    PartyProgram,
    Silence,
)
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.util.bits import BitWord

__all__ = [
    "BeepTable",
    "FormalProtocol",
    "RoundPartition",
    "NoiseModel",
    "formalize_protocol",
]

# f(i, x_i, received_prefix) -> bit
SharedBroadcast = Callable[[int, Any, Sequence[int]], int]
# Transcript-determined output (the paper's WLOG for player 1).
TranscriptOutput = Callable[[Sequence[int]], Any]
# s(i, x_i) -> int whose bit m is f_m^i(x_i, π_<m) for every π.
BeepSchedule = Callable[[int, Any], int]


@dataclass(frozen=True)
class NoiseModel:
    """Per-round flip probabilities of a correlated noisy beeping channel.

    Attributes:
        up: Pr[receive 1 | OR = 0]  (a 0→1 flip).
        down: Pr[receive 0 | OR = 1]  (a 1→0 flip).
    """

    up: float
    down: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.up < 1.0 and 0.0 <= self.down < 1.0):
            raise ConfigurationError(
                f"flip probabilities must be in [0, 1): {self}"
            )

    @classmethod
    def one_sided(cls, epsilon: float) -> "NoiseModel":
        """The lower bound's model: noise flips 0→1 only."""
        return cls(up=epsilon, down=0.0)

    @classmethod
    def two_sided(cls, epsilon: float) -> "NoiseModel":
        """The symmetric ε-noisy model of Theorem 1.1."""
        return cls(up=epsilon, down=epsilon)

    @classmethod
    def suppression(cls, epsilon: float) -> "NoiseModel":
        """The mirror model: noise flips 1→0 only."""
        return cls(up=0.0, down=epsilon)

    def round_probability(self, or_value: int, received: int) -> float:
        """Pr[π_m = received | OR of the round = or_value]."""
        if or_value == 1:
            return self.down if received == 0 else 1.0 - self.down
        return self.up if received == 1 else 1.0 - self.up


def _as_bit(value: Any, party: int) -> int:
    """A broadcast value as a bit; anything but 0/1 is a protocol bug."""
    if value == 1:
        return 1
    if value == 0:
        return 0
    raise ProtocolError(
        f"party {party} broadcast {value!r}; a beep must be 0 or 1"
    )


class BeepTable:
    """The beep bits of every candidate input along one transcript ``π``.

    ``mask(i, y)`` is an int whose bit ``m`` is ``f_m^i(y, π_{<m})``.  With
    a beep ``schedule`` (a non-adaptive protocol) that is the schedule's
    mask cut to ``len(π)`` bits, with no broadcast call at all.  Otherwise
    the prefixes ``π_{<m}`` are built once, and each ``(i, y)`` is
    evaluated at most once per round: zero-round bits are filled first and
    stop at the first beep, which is all feasibility (§C.2) needs; the
    remaining bits are filled only when a full mask is asked for.

    Args:
        broadcast: The protocol's ``f(i, x_i, prefix)``.
        pi: The transcript, or a prefix of one.
        schedule: The protocol's π-independent beep schedule, if it has
            one (see :class:`FormalProtocol`).
    """

    def __init__(
        self,
        broadcast: SharedBroadcast,
        pi: BitWord,
        schedule: BeepSchedule | None = None,
    ) -> None:
        self.broadcast = broadcast
        self.schedule = schedule
        self.pi = pi
        self._length_mask = (1 << len(pi)) - 1
        self._zero_rounds = [m for m, bit in enumerate(pi) if bit == 0]
        #: Bit ``m`` set iff ``π_m = 0`` (the set ``J`` of §C.2).
        self.zero_mask = sum(1 << m for m in self._zero_rounds)
        if schedule is None:
            self._prefixes = [pi[:m] for m in range(len(pi))]
            self._one_rounds = [m for m, bit in enumerate(pi) if bit != 0]
        # (i, y) -> first zero-round beep bit, or 0 when silent on them all.
        self._zero_hits: dict[tuple[int, Any], int] = {}
        self._masks: dict[tuple[int, Any], int] = {}
        self._factors: dict[NoiseModel, list[tuple[float, float]]] = {}

    def _fill(
        self, party: int, value: Any, rounds: Sequence[int], first_only: bool
    ) -> int:
        broadcast = self.broadcast
        prefixes = self._prefixes
        mask = 0
        for m in rounds:
            bit = broadcast(party, value, prefixes[m])
            # Silence is the common case; every other value goes through
            # _as_bit, so a non-bit raises.
            if bit != 0 and _as_bit(bit, party):
                mask |= 1 << m
                if first_only:
                    break
        return mask

    def feasible(self, party: int, value: Any) -> bool:
        """Whether ``value`` beeps in no 0-round: ``value ∈ S^party(π)``."""
        if self.schedule is not None:
            return not self.schedule(party, value) & self.zero_mask
        key = (party, value)
        hit = self._zero_hits.get(key)
        if hit is None:
            mask = self._masks.get(key)
            if mask is not None:
                hit = mask & self.zero_mask
            else:
                hit = self._fill(party, value, self._zero_rounds, True)
            self._zero_hits[key] = hit
        return hit == 0

    def mask(self, party: int, value: Any) -> int:
        """All beep bits of ``party`` holding ``value``, round ``m`` at bit
        ``m``."""
        if self.schedule is not None:
            return self.schedule(party, value) & self._length_mask
        key = (party, value)
        mask = self._masks.get(key)
        if mask is None:
            if self._zero_hits.get(key) == 0:
                rounds: Sequence[int] = self._one_rounds
            else:
                rounds = range(len(self.pi))
            mask = self._masks[key] = self._fill(party, value, rounds, False)
        return mask

    def probability(self, or_mask: int, noise: NoiseModel) -> float:
        """``Pr(π | x)`` for any ``x`` whose beeps OR to ``or_mask``.

        The same left-to-right product over rounds as the chain rule of
        §C.3.1, returning 0 as soon as a factor makes it 0.
        """
        factors = self._factors.get(noise)
        if factors is None:
            factors = self._factors[noise] = [
                (
                    noise.round_probability(0, received),
                    noise.round_probability(1, received),
                )
                for received in self.pi
            ]
        probability = 1.0
        for m, pair in enumerate(factors):
            probability *= pair[(or_mask >> m) & 1]
            if probability == 0.0:
                return 0.0
        return probability


def _mask_tokens(mask: int, length: int) -> list[Burst]:
    """The runs of ``mask``'s low ``length`` bits as batch tokens, round 0
    first."""
    tokens: list[Burst] = []
    position = 0
    while position < length:
        rest = mask >> position
        if rest & 1:
            # Trailing ones: the lowest clear bit of rest.
            count = (~rest & (rest + 1)).bit_length() - 1
            tokens.append(Burst(1, count))
        else:
            # Trailing zeros, or the rest of the rounds when silent.
            count = (
                (rest & -rest).bit_length() - 1 if rest else length - position
            )
            tokens.append(Silence(count))
        position += count
    return tokens


class _ScheduledParty(Party):
    """A party of a scheduled :class:`FormalProtocol`: yields its beep
    schedule as batch tokens, then outputs ``g`` of what it heard.

    ``outputs`` is shared by the parties of one execution and maps each
    received transcript to its output, so ``g`` runs once per distinct
    transcript.
    """

    def __init__(
        self,
        tokens: list[Burst],
        output: TranscriptOutput,
        outputs: dict[bytes, Any],
    ) -> None:
        self.tokens = tokens
        self.output = output
        self.outputs = outputs

    def run(self) -> PartyProgram:
        # On wake-up from a token the engine sends the covered rounds'
        # received bits as one bytes object.
        pieces = []
        for token in self.tokens:
            pieces.append((yield token))
        received = b"".join(pieces)
        outputs = self.outputs
        if received not in outputs:
            # The list a FunctionalParty would hand the same output.
            outputs[received] = self.output(list(received))
        return outputs[received]


@dataclass
class RoundPartition:
    """The disjoint round classes of Theorem C.2 for a fixed ``(x, π)``.

    Attributes:
        zeros: ``A_0`` — rounds with ``π_m = 0``.
        phantom_ones: ``A'_0`` — rounds with ``π_m = 1`` but nobody beeped
            (the 1 was created by noise).
        lonely: ``A_i`` — for each party ``i``, the rounds in which ``i`` was
            the *only* beeper.
        crowded: ``A_{n+1}`` — the rest (two or more beepers).
    """

    zeros: list[int] = field(default_factory=list)
    phantom_ones: list[int] = field(default_factory=list)
    lonely: dict[int, list[int]] = field(default_factory=dict)
    crowded: list[int] = field(default_factory=list)

    def lonely_count(self, party: int) -> int:
        """|A_i| for one party."""
        return len(self.lonely.get(party, []))


class FormalProtocol(Protocol):
    """A deterministic protocol as a ``(T, {f_m^i}, {g^i})`` tuple.

    Args:
        n_parties: Number of parties ``n``.
        length: Number of rounds ``T``.
        input_spaces: Per-party input domains (sequences of admissible input
            values), used by the exact enumeration helpers.
        broadcast: Shared broadcast function ``f(i, x_i, prefix) -> bit``.
        output: Output determined by the transcript alone
            (``g(π) -> value``), matching the paper's WLOG normalisation of
            player 1's output.  All parties use it.
        schedule: Optional beep schedule of a *non-adaptive* protocol:
            ``schedule(i, y)`` is an int whose bit ``m`` is
            ``f_m^i(y, π_{<m})`` for every ``π``.  It must agree with
            ``broadcast``; it is bound to the ``broadcast`` current when it
            is set, so reassigning ``broadcast`` switches it off.  With a
            schedule, executions run each party as
            :class:`~repro.core.party.Burst`/:class:`~repro.core.party.Silence`
            tokens over the mask's runs (the engine's sparse scheduler then
            transmits each stretch in one block, with the same channel
            draws), and :class:`BeepTable` reads masks off the schedule
            instead of calling ``broadcast`` once per round.
    """

    def __init__(
        self,
        n_parties: int,
        length: int,
        input_spaces: Sequence[Sequence[Any]],
        broadcast: SharedBroadcast,
        output: TranscriptOutput,
        schedule: BeepSchedule | None = None,
    ) -> None:
        super().__init__(n_parties)
        if length < 0:
            raise ConfigurationError(f"length must be >= 0, got {length}")
        if len(input_spaces) != n_parties:
            raise ConfigurationError(
                f"need {n_parties} input spaces, got {len(input_spaces)}"
            )
        for index, space in enumerate(input_spaces):
            if len(space) == 0:
                raise ConfigurationError(
                    f"input space of party {index} is empty"
                )
        self._length = length
        self.input_spaces = [tuple(space) for space in input_spaces]
        self.broadcast = broadcast
        self.schedule = schedule
        self.output = output
        # Only the most recent transcript's table: the Appendix C sums
        # visit one π at a time, and a larger cache only grows memory.
        self._table: BeepTable | None = None
        # Scheduled mask -> its batch tokens.  Tokens are read-only to the
        # engine, so every party with that mask reuses one list.
        self._tokens: dict[int, list[Burst]] = {}

    @property
    def schedule(self) -> BeepSchedule | None:
        """The beep schedule, or ``None`` when there is none or
        ``broadcast`` was reassigned after it was set."""
        if self.broadcast is not self._scheduled_broadcast:
            return None
        return self._schedule

    @schedule.setter
    def schedule(self, schedule: BeepSchedule | None) -> None:
        self._schedule = schedule
        self._scheduled_broadcast = self.broadcast

    # ------------------------------------------------------------------
    # Executable interface (engine compatibility)
    # ------------------------------------------------------------------

    def length(self) -> int:
        return self._length

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        schedule = self.schedule
        if schedule is not None:
            # One output cache per execution: parties that heard the same
            # transcript (all of them, on a correlated channel) share one
            # output() call.
            outputs: dict[bytes, Any] = {}
            full = (1 << self._length) - 1
            tokens = self._tokens
            parties: list[Party] = []
            for index in range(self.n_parties):
                mask = schedule(index, inputs[index]) & full
                runs = tokens.get(mask)
                if runs is None:
                    runs = tokens[mask] = _mask_tokens(mask, self._length)
                parties.append(_ScheduledParty(runs, self.output, outputs))
            return parties
        parties = []
        for index in range(self.n_parties):

            def bound_broadcast(
                x: Any, prefix: Sequence[int], _i: int = index
            ) -> int:
                return self.broadcast(_i, x, prefix)

            def bound_output(x: Any, received: Sequence[int]) -> Any:
                return self.output(received)

            parties.append(
                FunctionalParty(
                    input_value=inputs[index],
                    length=self._length,
                    broadcast=bound_broadcast,
                    output=bound_output,
                )
            )
        return parties

    # ------------------------------------------------------------------
    # Exact analysis
    # ------------------------------------------------------------------

    def beep_table(self, pi: Sequence[int]) -> BeepTable:
        """The :class:`BeepTable` of ``pi`` (any prefix of a transcript).

        The table of the most recent ``pi`` is kept and reused.
        """
        pi = tuple(pi)
        if len(pi) > self._length:
            raise ProtocolError(
                f"transcript length {len(pi)} exceeds protocol length "
                f"{self._length}"
            )
        table = self._table
        schedule = self.schedule
        if (
            table is None
            or table.pi != pi
            or table.broadcast is not self.broadcast
            or table.schedule is not schedule
        ):
            table = self._table = BeepTable(self.broadcast, pi, schedule)
        return table

    def beep_masks(self, x: Sequence[Any], pi: Sequence[int]) -> list[int]:
        """Per party ``i``, the bitmask of ``f_m^i(x^i, π_{<m})`` over rounds.

        ``pi`` may be any candidate transcript of length ``length()``; it
        need not have positive probability under any noise model.
        """
        self._check_inputs(x)
        if len(pi) != self._length:
            raise ProtocolError(
                f"transcript length {len(pi)} != protocol length "
                f"{self._length}"
            )
        table = self.beep_table(pi)
        return [table.mask(i, value) for i, value in enumerate(x)]

    def beeps(self, x: Sequence[Any], pi: Sequence[int]) -> list[BitWord]:
        """The matrix of beeped bits for input ``x`` along transcript ``pi``.

        Entry ``[m][i]`` is ``f_{m+1}^i(x^i, π_{<m+1})``.
        """
        masks = self.beep_masks(x, pi)
        return [
            tuple((mask >> m) & 1 for mask in masks)
            for m in range(self._length)
        ]

    def beep_set(
        self, x: Sequence[Any], pi: Sequence[int], round_index: int
    ) -> frozenset[int]:
        """``B_m(x, π)``: the set of parties beeping 1 in round ``m``."""
        self._check_inputs(x)
        if not 0 <= round_index < len(pi):
            raise ProtocolError(
                f"round {round_index} outside transcript of length {len(pi)}"
            )
        table = self.beep_table(pi)
        return frozenset(
            i
            for i, value in enumerate(x)
            if (table.mask(i, value) >> round_index) & 1
        )

    def round_partition(
        self, x: Sequence[Any], pi: Sequence[int]
    ) -> RoundPartition:
        """Partition the rounds into ``A_0, A'_0, A_i, A_{n+1}`` (§C.3.1)."""
        partition = RoundPartition()
        masks = self.beep_masks(x, pi)
        for m in range(self._length):
            beepers = [i for i, mask in enumerate(masks) if (mask >> m) & 1]
            if pi[m] == 0:
                partition.zeros.append(m)
            elif not beepers:
                partition.phantom_ones.append(m)
            elif len(beepers) == 1:
                partition.lonely.setdefault(beepers[0], []).append(m)
            else:
                partition.crowded.append(m)
        return partition

    def transcript_probability(
        self, x: Sequence[Any], pi: Sequence[int], noise: NoiseModel
    ) -> float:
        """Exact ``Pr(Π = π | X = x)`` under correlated noise ``noise``.

        The chain rule of §C.3.1: each round contributes
        ``Pr(π_m | OR of the beeps at round m)`` independently.
        """
        or_mask = 0
        for mask in self.beep_masks(x, pi):
            or_mask |= mask
        return self.beep_table(pi).probability(or_mask, noise)

    def enumerate_transcripts(
        self, x: Sequence[Any], noise: NoiseModel
    ) -> Iterator[tuple[BitWord, float]]:
        """Yield every transcript with ``Pr(π | x) > 0`` and its probability.

        Walks the binary transcript tree depth-first, pruning zero
        probability branches (e.g. under one-sided noise a round with a
        beeper can only produce 1, halving the tree at that node).
        """
        self._check_inputs(x)
        schedule = self.schedule
        or_mask = None
        if schedule is not None:
            # Non-adaptive: every round's OR is known before any π.
            or_mask = 0
            for i in range(self.n_parties):
                or_mask |= schedule(i, x[i])
        yield from self._extend_transcripts(x, noise, [], 1.0, or_mask)

    def _extend_transcripts(
        self,
        x: Sequence[Any],
        noise: NoiseModel,
        prefix: list[int],
        probability: float,
        or_mask: int | None,
    ) -> Iterator[tuple[BitWord, float]]:
        """The subtree of :meth:`enumerate_transcripts` below ``prefix``.

        ``or_mask`` is the OR of the parties' scheduled masks, or ``None``
        to ask ``broadcast`` round by round.  A method rather than a
        recursive nested generator, which would form a reference cycle
        (function → closure cell → function) keeping ``self`` alive until
        a gen-2 collection.
        """
        m = len(prefix)
        if m == self._length:
            yield tuple(prefix), probability
            return
        if or_mask is not None:
            beep_or = (or_mask >> m) & 1
        else:
            beep_or = (
                1
                if any(
                    _as_bit(self.broadcast(i, x[i], prefix), i)
                    for i in range(self.n_parties)
                )
                else 0
            )
        for received in (0, 1):
            round_probability = noise.round_probability(beep_or, received)
            if round_probability == 0.0:
                continue
            prefix.append(received)
            yield from self._extend_transcripts(
                x, noise, prefix, probability * round_probability, or_mask
            )
            prefix.pop()

    def enumerate_inputs(self) -> Iterator[tuple[Any, ...]]:
        """Every input vector in the product of the input spaces."""
        yield from itertools.product(*self.input_spaces)

    def input_probability(self) -> float:
        """Probability of each input vector under the uniform distribution."""
        total = 1
        for space in self.input_spaces:
            total *= len(space)
        return 1.0 / total


def formalize_protocol(
    protocol: Protocol,
    input_spaces: Sequence[Sequence[Any]],
    output: TranscriptOutput | None = None,
) -> FormalProtocol:
    """Lift any fixed-length executable protocol into a
    :class:`FormalProtocol`.

    The broadcast functions are recovered *operationally*: to evaluate
    ``f_m^i(x, π_{<m})`` a fresh party is created with input ``x`` and
    replayed over the prefix, and its next beep is read off.  This costs
    O(m) per query, and the :class:`BeepTable` runs each ``(i, y, m)``
    query at most once per transcript — perfectly fine for the small
    instances the exact lower-bound machinery enumerates — and works for
    every deterministic protocol, not just those written as explicit
    function tables.

    Args:
        protocol: The protocol to lift; ``protocol.length()`` must be
            known, and the protocol must be deterministic (no shared
            seed is passed during replay).
        input_spaces: Admissible inputs per party (the lift cannot infer
            them from the executable form).
        output: Transcript-determined output ``g(π)``; when ``None``,
            the lifted output is party 0's output computed by replaying
            its coroutine over the transcript **with input
            ``input_spaces[0][0]``** — only correct when party 0's output
            genuinely depends on the transcript alone (e.g. after the
            :func:`~repro.core.compose.announce_input` normalisation, or
            for tasks like ``InputSet``/parity whose outputs read the
            transcript).  Pass an explicit ``output`` otherwise.
    """
    length = protocol.length()
    if length is None:
        raise ConfigurationError(
            "formalize_protocol needs a fixed-length protocol"
        )
    n_parties = protocol.n_parties
    if len(input_spaces) != n_parties:
        raise ConfigurationError(
            f"need {n_parties} input spaces, got {len(input_spaces)}"
        )
    spaces = [tuple(space) for space in input_spaces]

    def replay_next_beep(
        party_index: int, input_value: Any, prefix: Sequence[int]
    ) -> int:
        inputs = [space[0] for space in spaces]
        inputs[party_index] = input_value
        party = protocol.create_parties(inputs)[party_index]
        program = party.run()
        try:
            bit = next(program)
            for received in prefix:
                bit = program.send(received)
        except StopIteration:
            raise ProtocolError(
                "protocol ended before its declared length during "
                "formal replay"
            ) from None
        return bit

    def replay_output(pi: Sequence[int]) -> Any:
        inputs = [space[0] for space in spaces]
        party = protocol.create_parties(inputs)[0]
        program = party.run()
        try:
            next(program)
            for received in pi:
                program.send(received)
        except StopIteration as stop:
            return stop.value
        raise ProtocolError(
            "protocol did not finish at its declared length during "
            "formal replay"
        )

    return FormalProtocol(
        n_parties=n_parties,
        length=length,
        input_spaces=spaces,
        broadcast=replay_next_beep,
        output=output if output is not None else replay_output,
    )
