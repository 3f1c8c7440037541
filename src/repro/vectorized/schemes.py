"""Party-collapsed, trial-batchable forms of the simulation schemes.

The scalar engine runs a simulation scheme as ``n`` coroutine parties
exchanging one bit per round through a channel object.  Under correlated
noise every party of these schemes walks through *identical shared state*
(that is the point of the correlated model), so the per-party work is
``n``-fold redundant: each chunk attempt re-creates ``n²`` inner parties,
all ``n`` parties decode the same received word, and every phase's round
window is a function of a handful of shared quantities.  The collapsed
forms below compute each shared quantity once, take the inner parties'
sent bits from a single source — the ``(T × n)`` column matrix of the
protocol's declared beep schedule
(:attr:`~repro.core.formal.FormalProtocol.schedule`), built once per trial,
or else one set of ``n`` inner parties, each stepped by an
:class:`~repro.core.party.InnerReplay` as the scalar schemes step theirs
(batch tokens included) — and replace
per-round channel calls with windowed draws from a flip source
(:class:`~repro.vectorized.noise.FlipStream` or
:class:`~repro.vectorized.noise.ChannelFlips`) —
while reproducing the scalar execution *bitwise*: same RNG draw order,
same decoded symbols (the scalar parties'
:class:`~repro.coding.ml.MLDecoder`, a whole segment per
``decode_batch``), same rounds,
channel statistics, per-party energy, outputs and report fields.  The
cross-backend equivalence suite (``tests/unit/test_vectorized_equivalence``)
enforces this against the scalar engine trial by trial.  Each collapsed
form starts from the simulator's
:meth:`~repro.simulation.base.Simulator.plan` — the report whose
``extra`` carries the chunk length, repetition and vote counts, attempt
cap or iteration budget — the same plan the scalar ``simulate`` runs on,
so the two forms never derive a count twice.  Each form returns the
scalar :class:`~repro.core.result.ExecutionResult` with
``transcript=None`` (no sweep reads it) and the report in
``metadata["report"]``, so one record builder reads both forms.

:data:`CHANNEL_KINDS` lists the channel classes that replay, each with
its flip source.  The draw rule is the channel's own declared ``flips``
pair (:class:`~repro.channels.base.ThresholdNoiseChannel`): a round whose
true OR draws is XOR-ed with the next flip indicator, any other round is
delivered unchanged — noiseless (no draws), correlated and burst (every
round), one-sided (silent rounds), suppression (beeping rounds).
Correlated noise is an i.i.d. ``u < ε`` stream; burst noise
(Gilbert–Elliott) is pulled from the channel's own delivery, which
advances its Markov state.  Independent noise draws one ``u < ε`` per
party per round, in party order.  Only the repetition scheme replays it
(each party majority-votes its own receptions); the shared-transcript
schemes raise the scalar "requires a correlated channel" error.

:func:`simulate_owners` runs Algorithm 1's finding-owners phase
(:class:`~repro.simulation.owners.OwnersProtocol`) on the same collapsed
owners bookkeeping the chunk schemes use, which decodes speculatively:
one batched decode per run of iterations whose words all decode to what
was sent (:func:`_owners_phase`).

Determinism assumption: inner parties are deterministic functions of
``(inputs, received prefix)``.  The scalar schemes already rely on exactly
this (they step a fresh :class:`~repro.core.party.InnerReplay` on every
attempt; rewind replays after pops), so the collapsed party replay adds
no new assumption.  A declared schedule is the stronger, stated form of
it — the sent bits do not depend on the received prefix at all — so the
schedule-backed replay (:class:`_ScheduledPrograms`) never runs a party:
a rejected chunk or a rewind pop only resets the received prefix, rewind
reads column ``p`` directly, and outputs come from the protocol's
transcript-only ``output``, called once per distinct received transcript.
:func:`_inner_programs` picks the source; the scheme bodies do not branch
on it, and the result is bitwise the same either way.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

import numpy as _np

from repro.channels.base import Channel
from repro.channels.burst import BurstNoiseChannel
from repro.channels.correlated import CorrelatedNoiseChannel
from repro.channels.independent import IndependentNoiseChannel
from repro.channels.noiseless import NoiselessChannel
from repro.channels.one_sided import (
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.channels.stats import ChannelStats
from repro.coding.code import BlockCode
from repro.coding.ml import MLDecoder
from repro.core.formal import FormalProtocol
from repro.core.party import InnerReplay
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError, ProtocolError
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.chunked import ChunkCommitSimulator
from repro.simulation.owners import (
    NEXT,
    SILENCE,
    OwnersProtocol,
    OwnersResult,
    check_owners_inputs,
    owners_decoder,
    position_symbol,
    symbol_position,
)
from repro.simulation.rewind import RewindSimulator
from repro.vectorized.noise import ChannelFlips, FlipSource, FlipStream

__all__ = [
    "CHANNEL_KINDS",
    "flip_source",
    "simulate_chunked",
    "simulate_owners",
    "simulate_rewind",
]

# NOTE: the collapsed repetition and hierarchical forms live in
# repro.vectorized.schemes_repetition / schemes_hierarchical; they build
# on the shared machinery here (_SharedChannel, _inner_programs,
# _chunk_phase12, _chunk_flags).

#: Scores (words × codewords) per ``decode_batch`` call of the owners
#: phase: 512 KiB per float64 temporary, so a segment of a large-``n``
#: phase decodes in cache-sized blocks instead of one matrix quadratic
#: in ``n``.
_DECODE_CELLS = 1 << 16


#: Channel classes the collapsed schemes can replay bitwise, each mapped
#: to the flip source :func:`flip_source` builds for it: ``"none"``
#: (never drawn), ``"epsilon"`` (i.i.d. ``u < channel.epsilon`` draws) or
#: ``"channel"`` (pulled from ``channel._deliver_shared_run(0, k)``).
#: Exact types: a subclass may override delivery and must take the
#: scalar path.
CHANNEL_KINDS: dict[type, str | None] = {
    NoiselessChannel: "none",
    CorrelatedNoiseChannel: "epsilon",
    OneSidedNoiseChannel: "epsilon",
    SuppressionNoiseChannel: "epsilon",
    BurstNoiseChannel: "channel",
    IndependentNoiseChannel: "epsilon",
}


class _SharedChannel:
    """Windowed, stats-exact replay of a registered channel's delivery.

    Reproduces, draw for draw, what the scalar channel would deliver for
    the access shapes the collapsed schemes need: a constant-OR window
    (phase-1/verification votes), a segment of codewords (owners phase:
    peeked by :meth:`words`, a prefix committed by :meth:`accept`), a
    single round (rewind) and, under per-party noise, a per-party vote
    window (repetition).  Statistics accrue exactly as
    ``transmit_shared``/``transmit_shared_run`` (resp. ``transmit``)
    record them.  ``noisy`` is the channel's ``flips`` pair: a round of
    true OR ``b`` takes the next indicator from ``flips`` iff
    ``noisy[b]`` and is XOR-ed with it.  A ``per_party`` channel has no
    shared received bit and serves :meth:`votes` only.
    """

    __slots__ = ("noisy", "flips", "per_party", "stats")

    def __init__(
        self,
        noisy: tuple[bool, bool],
        flips: FlipSource | None,
        per_party: bool,
    ) -> None:
        self.noisy = noisy
        self.flips = flips
        self.per_party = per_party
        self.stats = ChannelStats()

    def _no_shared_bit(self) -> ConfigurationError:
        return ConfigurationError("per-party noise has no shared received bit")

    def window(self, or_value: int, beeps: int, rounds: int) -> int:
        """Transmit ``rounds`` rounds of constant OR; return received ones."""
        if self.per_party:
            raise self._no_shared_bit()
        stats = self.stats
        stats.rounds += rounds
        stats.beeps_sent += beeps * rounds
        stats.or_ones += or_value * rounds
        if not self.noisy[or_value]:
            return or_value * rounds
        flipped = self.flips.count(rounds)
        if or_value:
            stats.flips_down += flipped
            return rounds - flipped
        stats.flips_up += flipped
        return flipped

    def votes(self, bits: Sequence[int], rounds: int) -> "_np.ndarray":
        """Per-party received ones over ``rounds`` rounds of constant sent
        ``bits`` under per-party noise.

        A scalar round draws one indicator per party, in party order, so
        the window is one ``rounds × n`` block of the flip stream, summed
        per party.  Flips count per party reception, as ``transmit`` does.
        """
        n_parties = len(bits)
        beeps = sum(bits)
        or_value = 1 if beeps else 0
        stats = self.stats
        stats.rounds += rounds
        stats.beeps_sent += beeps * rounds
        stats.or_ones += or_value * rounds
        flipped = (
            self.flips.take(rounds * n_parties)
            .reshape(rounds, n_parties)
            .sum(axis=0)
        )
        total = int(flipped.sum())
        if or_value:
            stats.flips_down += total
            return rounds - flipped
        stats.flips_up += total
        return flipped

    def words(self, sent: "_np.ndarray") -> "_np.ndarray":
        """The received words if the rows of ``sent`` (codewords, each
        row a word's round-wise true OR: only its speaker beeps) are
        transmitted in turn.

        Consumes no draw: :meth:`accept` commits a prefix of the rows.
        Only the drawing rounds (all of them under two-sided noise; the
        beeping ones under suppression, the silent ones under one-sided
        noise) take an indicator, in row-major (transmission) order.
        """
        if self.per_party:
            raise self._no_shared_bit()
        up, down = self.noisy
        if up and down:
            return sent ^ self.flips.peek(sent.size).reshape(sent.shape)
        if not (up or down):
            return sent
        drawing = sent == down
        flipped = _np.zeros_like(sent)
        flipped[drawing] = self.flips.peek(int(drawing.sum()))
        return sent ^ flipped

    def accept(
        self, sent: "_np.ndarray", received: "_np.ndarray", rows: int
    ) -> None:
        """Commit the first ``rows`` words of the last :meth:`words` call:
        consume their draws and record their statistics."""
        sent = sent[:rows]
        up, down = self.noisy
        if up and down:
            self.flips.commit(sent.size)
        elif up or down:
            self.flips.commit(int((sent == down).sum()))
        flipped = received[:rows] ^ sent
        weight = int(sent.sum())
        flipped_down = int((flipped & sent).sum())
        stats = self.stats
        stats.rounds += sent.size
        stats.beeps_sent += weight
        stats.or_ones += weight
        stats.flips_down += flipped_down
        stats.flips_up += int(flipped.sum()) - flipped_down

    def round(self, or_value: int, beeps: int) -> int:
        """Transmit a single round; return the shared received bit."""
        if self.per_party:
            raise self._no_shared_bit()
        stats = self.stats
        stats.rounds += 1
        stats.beeps_sent += beeps
        stats.or_ones += or_value
        if self.noisy[or_value] and self.flips.take1():
            if or_value:
                stats.flips_down += 1
                return 0
            stats.flips_up += 1
            return 1
        return or_value


class _InnerPrograms:
    """The ``n`` inner parties, each stepped by an
    :class:`~repro.core.party.InnerReplay`, advanced in lockstep.

    The scalar schemes give each of the ``n`` outer parties its own fresh
    copy of one inner party per attempt (``n²`` constructions); since all
    copies receive the same shared bits, one live set suffices.  ``strict``
    selects the chunk schemes' ``InnerReplay`` error contract (a party
    must yield exactly ``length()`` bits); the rewind scheme tolerates
    early termination (bits become ``None``).

    The path of protocols without a declared schedule;
    :class:`_ScheduledPrograms` serves the same interface off a schedule,
    and :func:`_inner_programs` picks one.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        shared_seed: int | None,
        strict: bool,
    ) -> None:
        self._protocol = protocol
        self._inputs = list(inputs)
        self._shared_seed = shared_seed
        self._strict = strict
        # Rewind's sent-bit column cache: column p (with its beep count)
        # depends only on working[:p], and _cached_received mirrors the
        # receive history the columns beyond p were computed under.  A
        # pop leaves the cache intact; an append that changes a received
        # bit truncates everything above it.  _stale: the live replays
        # are out of sync with the walk's working transcript.
        self._cached_columns: list[tuple["_np.ndarray", int]] = []
        self._cached_received: list[int] = []
        self._stale = False
        self.rebuild()

    @property
    def bits(self) -> list[int | None]:
        """The next sent bit per party; ``None`` once it finished."""
        return [replay.next_bit for replay in self._replays]

    def rebuild(self, prefix: Sequence[int] = ()) -> None:
        """Fresh parties (one ``create_parties`` call) that have heard the
        received ``prefix`` (the start, rewind and reject paths)."""
        self._replays = [
            InnerReplay(party, prefix, strict=self._strict)
            for party in self._protocol.create_parties(
                self._inputs, shared_seed=self._shared_seed
            )
        ]
        self.position = len(prefix)

    def advance(self, received: int) -> None:
        """Deliver one shared received bit to every party."""
        for replay in self._replays:
            replay.advance(received)
        self.position += 1

    def advance_each(self, received: Sequence[int]) -> None:
        """Deliver party ``i`` its own received bit ``received[i]`` (per-
        party noise, where views diverge)."""
        for replay, bit in zip(self._replays, received):
            replay.advance(bit)
        self.position += 1

    def chunk(
        self, rounds: int, vote: Callable[[int, int], int]
    ) -> tuple[list[int], "_np.ndarray"]:
        """Phase 1 of a chunk: ``rounds`` virtual rounds, each decoded by
        ``vote(or_value, beeps)`` and delivered to every party.

        Returns ``(pi, beep_matrix)``: the decoded bits, and each party's
        sent bits as an ``n × rounds`` uint8 matrix.
        """
        columns: list[list[int | None]] = []
        pi: list[int] = []
        for _ in range(rounds):
            bits = self.bits
            if None in bits:
                raise ProtocolError(
                    "inner protocol shorter than its declared length"
                )
            columns.append(bits)
            beeps = sum(bits)
            decoded = vote(1 if beeps else 0, beeps)
            pi.append(decoded)
            self.advance(decoded)
        beep_matrix = _np.array(columns, dtype=_np.uint8)
        return pi, beep_matrix.reshape(rounds, len(self._replays)).T

    def column(self, working: Sequence[int]) -> tuple["_np.ndarray", int]:
        """The sent-bit column at position ``len(working)`` of the rewind
        walk's working transcript and its beep count (cached; replays on
        a miss)."""
        position = len(working)
        if position < len(self._cached_columns):
            return self._cached_columns[position]
        if self._stale or self.position != position:
            self.rebuild(working)
            self._stale = False
        bits = [bit if bit is not None else 0 for bit in self.bits]
        entry = (_np.array(bits, dtype=_np.uint8), sum(bits))
        self._cached_columns.append(entry)
        return entry

    def appended(self, position: int, received: int) -> None:
        """The walk appended ``received`` at ``position``."""
        cached_received = self._cached_received
        if position < len(cached_received):
            if cached_received[position] != received:
                # The past changed: columns above are invalid.
                del self._cached_columns[position + 1 :]
                del cached_received[position + 1 :]
                cached_received[position] = received
                if self.position > position:
                    self._stale = True
        else:
            cached_received.append(received)
        if not self._stale and self.position == position:
            self.advance(received)

    def popped(self, length: int) -> None:
        """The walk popped its working transcript to ``length``."""
        if self.position > length:
            self._stale = True

    def outputs(self) -> list[Any]:
        """Per-party outputs; strict mode requires every party finished."""
        replays = self._replays
        if self._strict and not all(replay.finished for replay in replays):
            raise ProtocolError(
                "inner protocol did not finish at its declared length"
            )
        return [replay.output for replay in replays]

    def outputs_over(self, prefix: Sequence[int]) -> list[Any]:
        """Outputs of a fresh replay over ``prefix`` (the padded path)."""
        self.rebuild(prefix)
        return self.outputs()


class _ScheduledPrograms:
    """The inner parties of a protocol that declares its sent bits
    (:attr:`~repro.core.formal.FormalProtocol.schedule`), without running
    them.

    Same interface and error contracts as :class:`_InnerPrograms`.  The
    ``(T × n)`` uint8 matrix ``columns`` — row ``m`` the parties' round-
    ``m`` bits, bit ``m`` of ``schedule(i, x^i)`` — is built once, so
    nothing depends on what the parties hear but their outputs: advancing
    records the received bit, :meth:`rebuild` only resets the received
    prefix, and outputs are the protocol's transcript-only ``output``,
    called once per distinct received transcript.
    """

    def __init__(
        self, protocol: FormalProtocol, inputs: Sequence[Any], strict: bool
    ) -> None:
        protocol._check_inputs(inputs)
        self._protocol = protocol
        self._inputs = list(inputs)
        self._strict = strict
        self._length = length = protocol.length()
        schedule = protocol.schedule
        full = (1 << length) - 1
        width = (length + 7) // 8
        packed = b"".join(
            (schedule(index, value) & full).to_bytes(width, "little")
            for index, value in enumerate(self._inputs)
        )
        rows = _np.unpackbits(
            _np.frombuffer(packed, dtype=_np.uint8).reshape(
                len(self._inputs), width
            ),
            axis=1,
            count=length,
            bitorder="little",
        )
        #: ``T × n``: row ``m`` is round ``m``'s sent-bit column.
        self.columns = _np.ascontiguousarray(rows.T)
        self._beeps: list[int] = self.columns.sum(axis=1).tolist()
        self.position = 0
        # Received bits up to the protocol's length: an int per shared
        # round, a per-party list per advance_each round.
        self._heard: list[Any] = []
        self._per_party = False

    @property
    def bits(self) -> list[int | None]:
        """The next sent bit per party; ``None`` once all finished."""
        if self.position < self._length:
            return self.columns[self.position].tolist()
        return [None] * len(self._inputs)

    def rebuild(self, prefix: Sequence[int]) -> None:
        """Set the received prefix (nothing to replay)."""
        if self._strict and len(prefix) > self._length:
            raise ProtocolError(
                "inner party finished before its declared length"
            )
        self._heard = list(prefix[: self._length])
        self._per_party = False
        self.position = len(prefix)

    def _hear(self, received: Any) -> None:
        if self.position < self._length:
            self._heard.append(received)
        elif self._strict:
            raise ProtocolError(
                "inner party finished before its declared length"
            )
        self.position += 1

    def advance(self, received: int) -> None:
        """Deliver one shared received bit to every party."""
        self._hear(received)

    def advance_each(self, received: Sequence[int]) -> None:
        """Deliver party ``i`` its own received bit ``received[i]``."""
        self._per_party = True
        self._hear(list(received))

    def chunk(
        self, rounds: int, vote: Callable[[int, int], int]
    ) -> tuple[list[int], "_np.ndarray"]:
        """Phase 1 of a chunk off the next ``rounds`` columns and their
        sums (same return as :meth:`_InnerPrograms.chunk`)."""
        start = self.position
        if start + rounds > self._length:
            raise ProtocolError(
                "inner protocol shorter than its declared length"
            )
        block = self.columns[start : start + rounds]
        pi = [
            vote(1 if beeps else 0, beeps)
            for beeps in self._beeps[start : start + rounds]
        ]
        self._heard.extend(pi)
        self.position = start + rounds
        return pi, block.T

    def column(self, working: Sequence[int]) -> tuple["_np.ndarray", int]:
        """The sent-bit column at position ``len(working)`` and its beep
        count."""
        position = len(working)
        return self.columns[position], self._beeps[position]

    def appended(self, position: int, received: int) -> None:
        """Nothing to track: columns do not depend on what was heard."""

    def popped(self, length: int) -> None:
        """Nothing to track: columns do not depend on what was heard."""

    def outputs(self) -> list[Any]:
        """Per-party outputs; strict mode requires every party finished."""
        count = len(self._inputs)
        if self.position < self._length:
            if self._strict:
                raise ProtocolError(
                    "inner protocol did not finish at its declared length"
                )
            return [None] * count
        output = self._protocol.output
        if not self._per_party:
            return [output(list(self._heard))] * count
        # Per-party views: one output call per distinct view.
        outputs: dict[tuple[int, ...], Any] = {}
        results = []
        for index in range(count):
            view = tuple(
                bit[index] if isinstance(bit, list) else bit
                for bit in self._heard
            )
            if view not in outputs:
                outputs[view] = output(list(view))
            results.append(outputs[view])
        return results

    def outputs_over(self, prefix: Sequence[int]) -> list[Any]:
        """Outputs over the received ``prefix`` (the padded path)."""
        self.rebuild(prefix)
        return self.outputs()


def _inner_programs(
    protocol: Protocol,
    inputs: Sequence[Any],
    shared_seed: int | None,
    strict: bool,
) -> _InnerPrograms | _ScheduledPrograms:
    """The inner parties of one collapsed trial: read off the protocol's
    declared schedule, else ``n`` stepped parties."""
    if isinstance(protocol, FormalProtocol) and protocol.schedule is not None:
        return _ScheduledPrograms(protocol, inputs, strict)
    return _InnerPrograms(protocol, inputs, shared_seed, strict)


def _flip_kind(channel: Channel) -> str | None:
    """The registered flip source of ``channel``'s exact type."""
    if type(channel) not in CHANNEL_KINDS:
        raise ConfigurationError(
            f"collapsed simulation cannot replay {type(channel).__name__}; "
            "use the scalar engine"
        )
    return CHANNEL_KINDS[type(channel)]


def flip_source(
    channel: Channel, *, copy_rng: bool = False
) -> FlipSource | None:
    """The flip source of ``channel`` — the single place a registered
    type's noise source is chosen.

    * ``"none"`` (noiseless): ``None``; the replay never draws.
    * ``"channel"`` (burst): :class:`ChannelFlips` over the channel's
      own ``_deliver_shared_run(0, k)`` — its received bits over a
      silent run are its flips, and the pull advances its Markov state.
    * ``"epsilon"``: with ``copy_rng`` (the runner, whose per-trial
      channels are discarded), a :class:`FlipStream` over a copy of the
      channel's generator; without it (a standalone call),
      :class:`ChannelFlips` over the channel's own buffered
      ``u < epsilon`` stream, so the channel ends where the scalar run
      leaves it.

    Raises :class:`ConfigurationError` for unregistered channel types and
    for a type with no known flip source — never a silent noiseless
    replay.
    """
    kind = _flip_kind(channel)
    if kind == "none":
        return None
    if kind == "channel":
        return ChannelFlips(channel, partial(channel._deliver_shared_run, 0))
    if kind == "epsilon":
        if copy_rng:
            return FlipStream(channel._rng, channel.epsilon)
        return ChannelFlips(
            channel, partial(channel._threshold_run, hit=1, miss=0)
        )
    raise ConfigurationError(
        f"no flip source registered for {type(channel).__name__} "
        f"(flips={kind!r})"
    )


def _shared_channel(
    channel: Channel, flips: FlipSource | None
) -> _SharedChannel:
    _flip_kind(channel)
    if flips is None:
        flips = flip_source(channel)
    return _SharedChannel(channel.flips, flips, not channel.correlated)


def _owners_plan(
    holders: "_np.ndarray",
    free: "_np.ndarray",
    ones: "_np.ndarray",
    turn: int,
    rows: int,
) -> tuple["_np.ndarray", "_np.ndarray"]:
    """The next ``rows`` iterations of the owners phase if every word
    decodes to the symbol sent: ``(speakers, symbols)``, speaker ``-1``
    for the SILENCE rows after the last turn.

    Under that assumption each speaker, in turn order, claims the
    still-free ones-positions it beeped (``holders``: parties × the
    positions ``ones``), in position order, then sends NEXT.  So a free
    position is claimed by the first speaker from ``turn`` on who beeped
    it, and sorting the claims by (speaker, position) — each speaker's
    NEXT last — gives the sent sequence.
    """
    n_parties, width = holders.shape
    speaking = max(n_parties - turn, 0)
    speakers = _np.arange(speaking)
    symbols = _np.full(speaking, NEXT)
    keys = speakers * (width + 1) + width
    if speaking:
        candidates = holders[turn:] & free
        columns = _np.flatnonzero(candidates.any(axis=0))
        claimers = candidates.argmax(axis=0)[columns]
        speakers = _np.concatenate((claimers, speakers))
        symbols = _np.concatenate((position_symbol(ones[columns]), symbols))
        keys = _np.concatenate((claimers * (width + 1) + columns, keys))
    order = _np.argsort(keys)[:rows]
    silent = rows - len(order)
    return (
        _np.concatenate((speakers[order] + turn, _np.full(silent, -1))),
        _np.concatenate((symbols[order], _np.full(silent, SILENCE))),
    )


def _decode_rows(
    decoder: Any, received: "_np.ndarray", planned: "_np.ndarray"
) -> "_np.ndarray":
    """The decoded symbols of the rows of ``received``, in order, up to
    the block that holds the first one not ``planned``.

    ``decoder.decode_batch`` runs on blocks of at most
    :data:`_DECODE_CELLS` scores, so its score matrices stay small
    however long the segment.
    """
    block = max(1, _DECODE_CELLS // decoder.code.num_symbols)
    parts = []
    for start in range(0, len(planned), block):
        part = decoder.decode_batch(received[start : start + block])
        parts.append(part)
        if (part != planned[start : start + block]).any():
            break
    return _np.concatenate(parts)


def _owners_phase(
    pi: Sequence[int],
    beep_matrix: "_np.ndarray",
    shared: _SharedChannel,
    energy: "_np.ndarray",
    code: BlockCode,
    decoder: Any,
) -> tuple[dict[int, int], list[set[int]], int]:
    """Algorithm 1's finding-owners phase, collapsed and decoded
    speculatively.

    All shared bookkeeping (turn, claimed set, owner table) is computed
    once instead of once per party; only the speaker's claimed-by-me
    record is party-local.  Each iteration sends one row of ``code``'s
    codebook (only the speaker beeps, so the OR *is* its codeword; the
    SILENCE row must be all-zero) and decodes the received word with
    ``decoder`` (an :class:`~repro.coding.ml.MLDecoder` or
    :class:`~repro.coding.ml.MinDistanceDecoder`).

    The phase is sequential only through the decoded symbols, so it runs
    in segments.  :func:`_owners_plan` fixes every remaining iteration's
    sent symbol assuming each word decodes to what was sent; the segment's
    words take their flips from one peek of the flip source and decode in
    ``decode_batch`` blocks of bounded size until the block holding the
    first miss (:func:`_decode_rows`).  The rows up to and including the first
    miss are accepted: the matched ones are exactly the scalar iterations,
    and the miss row applies its decoded symbol through the scalar update
    rule; the phase then re-plans from the next row.  This is exact because
    the accepted rows' words are the ones the scalar run sends, and
    :meth:`_SharedChannel.accept` commits exactly their draws — in
    transmission order, whatever each row's draw count — so the flips of
    the next segment continue where the scalar run's next word starts.
    The first segment spans every iteration; each later one at most
    twice the rows its predecessor accepted, so where misses are dense
    (high noise, a short code) the phase does not decode its whole rest
    again after every miss.  Accrues the speakers' energy in place and
    returns ``(owners, claimed_by, iterations)``.
    """
    codebook = code.codebook
    codeword_weights = codebook.sum(axis=1, dtype=_np.int64)
    n_parties = len(beep_matrix)
    ones = _np.flatnonzero(_np.asarray(pi, dtype=_np.uint8))
    column_of = {
        position: column for column, position in enumerate(ones.tolist())
    }
    holders = beep_matrix[:, ones] == 1
    free = _np.ones(len(ones), dtype=bool)
    iterations = len(ones) + n_parties
    owners: dict[int, int] = {}
    claimed_by: list[set[int]] = [set() for _ in range(n_parties)]
    turn = 0
    done = 0
    window = iterations
    while done < iterations:
        speakers, symbols = _owners_plan(
            holders, free, ones, turn, min(window, iterations - done)
        )
        sent = codebook[symbols]
        received = shared.words(sent)
        decoded = _decode_rows(decoder, received, symbols)
        misses = _np.flatnonzero(decoded != symbols[: len(decoded)])
        missed = misses.size > 0
        rows = int(misses[0]) + 1 if missed else len(symbols)
        shared.accept(sent, received, rows)
        speaking = speakers[:rows] >= 0
        _np.add.at(
            energy,
            speakers[:rows][speaking],
            codeword_weights[symbols[:rows][speaking]],
        )
        matched = rows - missed
        claims = symbols[:matched] > NEXT
        for position, speaker in zip(
            (symbols[:matched][claims] - position_symbol(0)).tolist(),
            speakers[:matched][claims].tolist(),
        ):
            free[column_of[position]] = False
            owners[position] = speaker
            claimed_by[speaker].add(position)
        turn += int((symbols[:matched] == NEXT).sum())
        if missed:
            # The miss row: the scalar update with the decoded symbol.
            # It differs from the sent one, so no claimed-by-me record.
            decoded_symbol = int(decoded[matched])
            position = symbol_position(decoded_symbol)
            if decoded_symbol == NEXT:
                turn += 1
            elif position is not None and position < len(pi):
                if position in column_of:
                    free[column_of[position]] = False
                if turn < n_parties:
                    owners[position] = turn
        done += rows
        window = 2 * rows
    return owners, claimed_by, iterations


def _chunk_phase12(
    programs: _InnerPrograms | _ScheduledPrograms,
    shared: _SharedChannel,
    energy: "_np.ndarray",
    chunk_rounds: int,
    repetitions: int,
    decoder: MLDecoder,
):
    """Phases 1+2 of Algorithm 1 over the live programs, collapsed.

    Phase 1 repetition-hardens ``chunk_rounds`` virtual rounds into the
    chunk transcript ``pi`` (advancing the programs as it goes); phase 2
    runs the finding-owners phase (:func:`_owners_phase`).  Returns
    ``(pi, beep_matrix, owners, claimed_by)`` and accrues per-party
    ``energy`` in place — exactly the shared quantities both chunk
    schemes verify against.
    """

    # Phase 1: repetition-harden each virtual round into pi.  The
    # window's received ones collapse to one popcount of the flip
    # stream; the majority rule matches repeated_bit exactly.
    def vote(or_value: int, beeps: int) -> int:
        ones = shared.window(or_value, beeps, repetitions)
        return 1 if 2 * ones > repetitions else 0

    pi, beep_matrix = programs.chunk(chunk_rounds, vote)
    energy += beep_matrix.sum(axis=1, dtype=_np.int64) * repetitions

    # Phase 2: finding owners.
    owners, claimed_by, _ = _owners_phase(
        pi, beep_matrix, shared, energy, decoder.code, decoder
    )
    return pi, beep_matrix, owners, claimed_by


def _chunk_flags(
    pi: list[int],
    beep_matrix: "_np.ndarray",
    owners: dict[int, int],
    claimed_by: list[set[int]],
) -> "_np.ndarray":
    """Per-party error flags for one simulated chunk (vectorized
    :func:`~repro.simulation.chunk_common.chunk_error_flag`):

    * ``pi_p = 0`` but the party beeped 1 — its beep was suppressed;
    * ``pi_p = 1`` with no owner — shared state, every party flags;
    * a party owns a position it never successfully claimed.
    """
    pi_row = _np.array(pi, dtype=_np.uint8)
    flags = ((beep_matrix == 1) & (pi_row == 0)).any(axis=1)
    if any(
        value == 1 and position not in owners
        for position, value in enumerate(pi)
    ):
        flags[:] = True
    for position, owner in owners.items():
        if pi[position] == 1 and position not in claimed_by[owner]:
            flags[owner] = True
    return flags


def simulate_chunked(
    simulator: ChunkCommitSimulator,
    protocol: Protocol,
    inputs: Sequence[Any],
    channel: Channel,
    *,
    shared_seed: int | None = None,
    flips: FlipSource | None = None,
) -> ExecutionResult:
    """The chunk-commit scheme, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels, with ``transcript=None``.

    ``flips`` optionally injects a pre-built noise stream (the runner's
    per-trial stream).
    """
    report, noise = simulator.plan(protocol, channel)
    inner_length = report.inner_length
    n_parties = protocol.n_parties
    chunk_length = report.extra["chunk_length"]
    repetitions = report.extra["repetitions"]
    verification_repetitions = report.extra["verification_repetitions"]
    max_attempts = report.extra["max_attempts"]
    params = simulator.params
    decoder = owners_decoder(
        chunk_length, params.code_rate_constant, params.code_seed, noise
    )

    shared = _shared_channel(channel, flips)
    programs = _inner_programs(protocol, inputs, shared_seed, strict=True)
    energy = _np.zeros(n_parties, dtype=_np.int64)

    committed: list[int] = []
    attempts = 0
    while len(committed) < inner_length and attempts < max_attempts:
        attempts += 1
        chunk_rounds = min(chunk_length, inner_length - len(committed))
        if programs.position != len(committed):
            # The previous attempt was rejected: replay the committed
            # prefix once (the scalar scheme replays it n times, once per
            # outer party, on *every* attempt).
            programs.rebuild(committed)

        pi, beep_matrix, owners, claimed_by = _chunk_phase12(
            programs, shared, energy, chunk_rounds, repetitions, decoder
        )

        # Phase 3: per-party error flags (vectorized over the beep
        # matrix) and the OR vote; a clean vote commits the chunk.
        flags = _chunk_flags(pi, beep_matrix, owners, claimed_by)
        flag_beeps = int(flags.sum())
        or_flag = 1 if flag_beeps else 0
        ones = shared.window(or_flag, flag_beeps, verification_repetitions)
        verdict = 1 if 2 * ones > verification_repetitions else 0
        energy += flags * verification_repetitions
        if verdict == 0:
            committed.extend(pi)
            report.chunk_commits += 1
        report.chunk_attempts = attempts

    report.completed = len(committed) == inner_length
    if report.completed and programs.position == inner_length:
        # The live programs just consumed the full committed transcript —
        # their outputs are the final replay's outputs (determinism).
        outputs = programs.outputs()
    else:
        padded = committed + [0] * (inner_length - len(committed))
        outputs = programs.outputs_over(padded)
    return _finish(simulator, report, shared, energy, outputs)


def simulate_rewind(
    simulator: RewindSimulator,
    protocol: Protocol,
    inputs: Sequence[Any],
    channel: Channel,
    *,
    shared_seed: int | None = None,
    flips: FlipSource | None = None,
) -> ExecutionResult:
    """The rewind random walk, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels, with ``transcript=None``.

    The scalar walk re-replays every party's inner coroutine from scratch
    after each pop.  Collapsed, the sent-bit column of position ``p`` (and
    its beep count) is a function of ``working[:p]`` alone: read off the
    protocol's declared schedule, or else cached across pops by the live
    programs, which replay only when an append *changes* a received bit
    under cached columns.  Per-party dispute sets shrink to a counter
    vector ``disputes`` (disputed positions per party), touched only when
    it changes — a pop of a disputed 0, or a 0 received under beeps.  In
    between, an iteration is integer work: ``disputing`` (the parties
    with a positive counter) is the alarm round's beep count, the alarm
    rounds' energy is added as ``(disputes > 0)`` times their number
    just before each change and at the end, and the appended columns'
    energy is summed once, after the walk.  Once the walk is complete and
    undisputed on a channel whose silent rounds draw nothing
    (suppression, noiseless), every remaining iteration is two silent
    rounds: they are counted, not walked.
    """
    report, _ = simulator.plan(protocol, channel)
    inner_length = report.inner_length
    iterations = report.extra["iterations"]

    shared = _shared_channel(channel, flips)
    transmit = shared.round
    silent_draws = shared.noisy[0]
    n_parties = protocol.n_parties
    programs = _inner_programs(protocol, inputs, shared_seed, strict=False)
    column_at = programs.column
    energy = _np.zeros(n_parties, dtype=_np.int64)
    disputes = _np.zeros(n_parties, dtype=_np.int64)

    working: list[int] = []
    disputing = 0
    # Alarm rounds before iteration ``flushed`` are in ``energy``.
    flushed = 0
    sent: list["_np.ndarray"] = []
    rewinds = 0

    for iteration in range(iterations):
        # Alarm round: a party beeps iff it currently disputes a position.
        heard_alarm = transmit(1 if disputing else 0, disputing)

        if heard_alarm == 1:
            if working:
                popped = working.pop()
                if popped == 0:
                    # Exactly the parties that beeped 1 there disputed it.
                    column, beeps = column_at(working)
                    if beeps:
                        energy += (disputes > 0) * (iteration + 1 - flushed)
                        flushed = iteration + 1
                        disputes -= column
                        disputing = int(_np.count_nonzero(disputes))
                rewinds += 1
                programs.popped(len(working))
            # Dummy round keeps the iteration at two rounds; all silent.
            transmit(0, 0)
        else:
            position = len(working)
            if position < inner_length:
                column, beeps = column_at(working)
                received = transmit(1 if beeps else 0, beeps)
                programs.appended(position, received)
                working.append(received)
                if beeps:
                    sent.append(column)
                    if received == 0:
                        energy += (disputes > 0) * (iteration + 1 - flushed)
                        flushed = iteration + 1
                        disputes += column
                        disputing = int(_np.count_nonzero(disputes))
            else:
                transmit(0, 0)
                if not disputing and not silent_draws:
                    # Complete, undisputed, and silence draws nothing:
                    # every remaining iteration is two silent rounds.
                    shared.stats.rounds += 2 * (iterations - iteration - 1)
                    break

    energy += (disputes > 0) * (iterations - flushed)
    energy += _np.sum(sent, axis=0, dtype=_np.int64)
    report.rewinds = rewinds
    report.completed = (
        len(working) == inner_length and int(disputes[0]) == 0
    )
    report.extra["working_length"] = len(working)

    padded = working + [0] * (inner_length - len(working))
    outputs = programs.outputs_over(padded)
    return _finish(simulator, report, shared, energy, outputs)


def _finish(
    simulator: Simulator,
    report: SimulationReport,
    shared: _SharedChannel,
    energy: Sequence[int],
    outputs: list[Any],
) -> ExecutionResult:
    """Record the rounds in ``report``, apply the simulator's
    ``on_incomplete`` policy and package the result, the report in
    ``metadata["report"]`` as ``simulate`` puts it."""
    report.simulated_rounds = shared.stats.rounds
    simulator._enforce_completion(report)
    return _result(shared, energy, outputs, {"report": report})


def _result(
    shared: _SharedChannel,
    energy: Sequence[int],
    outputs: list[Any],
    metadata: dict[str, Any],
) -> ExecutionResult:
    """A collapsed execution as the scalar result, without a transcript."""
    return ExecutionResult(
        outputs=outputs,
        transcript=None,
        rounds=shared.stats.rounds,
        channel_stats=shared.stats,
        beeps_per_party=tuple(int(value) for value in energy),
        metadata=metadata,
    )


def simulate_owners(
    protocol: OwnersProtocol,
    inputs: Sequence[Sequence[int]],
    channel: Channel,
    *,
    flips: FlipSource | None = None,
) -> ExecutionResult:
    """Algorithm 1's finding-owners phase, party-collapsed; bitwise equal
    to ``run_protocol(protocol, inputs, channel)`` on the shared-bit
    channels of :data:`CHANNEL_KINDS`: the per-party
    :class:`~repro.simulation.owners.OwnersResult` outputs, rounds,
    channel statistics and per-party energy, with ``transcript=None``
    and empty ``metadata``.

    Decoding uses the protocol's own decoder, through its
    ``decode_batch``.

    Without ``flips`` the noise is pulled from ``channel`` itself, whose
    generator and noise state end where the scalar run leaves them.

    Raises the scalar input errors, and :class:`ConfigurationError` for a
    channel without a shared received bit (independent noise: use
    ``run_protocol``) or a codebook whose SILENCE word is not all-zero.
    """
    _flip_kind(channel)
    if not channel.correlated:
        raise ConfigurationError(
            f"simulate_owners needs a shared received bit; "
            f"{type(channel).__name__} gives per-party views (use "
            "run_protocol)"
        )
    protocol._check_inputs(inputs)
    pi = protocol.pi
    for bits in inputs:
        check_owners_inputs(bits, pi, protocol.code)
    if protocol.code.codebook[SILENCE].any():
        raise ConfigurationError(
            "the collapsed owners phase needs an all-zero SILENCE codeword"
        )

    shared = _shared_channel(channel, flips)
    energy = _np.zeros(protocol.n_parties, dtype=_np.int64)
    owners, claimed_by, iterations = _owners_phase(
        pi,
        _np.array(inputs, dtype=_np.uint8),
        shared,
        energy,
        protocol.code,
        protocol.decoder,
    )
    outputs = [
        OwnersResult(
            owners=dict(owners), claimed_by_me=mine, iterations=iterations
        )
        for mine in claimed_by
    ]
    return _result(shared, energy, outputs, {})
