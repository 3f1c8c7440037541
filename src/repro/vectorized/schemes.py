"""Party-collapsed, trial-batchable forms of the simulation schemes.

The scalar engine runs a simulation scheme as ``n`` coroutine parties
exchanging one bit per round through a channel object.  Under correlated
noise every party of these schemes walks through *identical shared state*
(that is the point of the correlated model), so the per-party work is
``n``-fold redundant: each chunk attempt re-creates ``n²`` inner parties,
all ``n`` parties decode the same received word, and every phase's round
window is a function of a handful of shared quantities.  The collapsed
forms below compute each shared quantity once, drive a *single* set of
``n`` live inner-party coroutines, and replace per-round channel calls
with windowed draws from a flip source
(:class:`~repro.vectorized.noise.FlipStream` or
:class:`~repro.vectorized.noise.ChannelFlips`) —
while reproducing the scalar execution *bitwise*: same RNG draw order,
same decoded symbols (via the byte-packed
:class:`~repro.vectorized.decoder.VectorizedMLDecoder`), same rounds,
channel statistics, per-party energy, outputs and report fields.  The
cross-backend equivalence suite (``tests/unit/test_vectorized_equivalence``)
enforces this against the scalar engine trial by trial.  Each collapsed
form starts from the simulator's
:meth:`~repro.simulation.base.Simulator.plan` — the report whose
``extra`` carries the chunk length, repetition and vote counts, attempt
cap or iteration budget — the same plan the scalar ``simulate`` runs on,
so the two forms never derive a count twice.

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
owners bookkeeping the chunk schemes use.

Determinism assumption: inner parties are deterministic functions of
``(inputs, received prefix)``.  The scalar schemes already rely on exactly
this (``InnerReplay`` re-creates parties on every attempt; rewind replays
after pops), so the collapsed forms add no new assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.core.formal import NoiseModel
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.chunked import ChunkCommitSimulator
from repro.simulation.owners import (
    NEXT,
    OwnersProtocol,
    OwnersResult,
    build_owners_code,
    check_owners_inputs,
    position_symbol,
    symbol_position,
)
from repro.simulation.rewind import RewindSimulator
from repro.vectorized.decoder import VectorizedMLDecoder
from repro.vectorized.noise import BatchFlips, ChannelFlips, FlipSource

__all__ = [
    "CHANNEL_KINDS",
    "CollapsedOutcome",
    "flip_sources",
    "simulate_chunked",
    "simulate_owners",
    "simulate_rewind",
]

# NOTE: the collapsed repetition and hierarchical forms live in
# repro.vectorized.schemes_repetition / schemes_hierarchical; they build
# on the shared machinery here (_SharedChannel, _InnerPrograms,
# _chunk_phase12, _chunk_flags, _owners_decoder).


#: Channel classes the collapsed schemes can replay bitwise, each mapped
#: to the flip source :func:`flip_sources` builds for it: ``"none"``
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


@dataclass
class CollapsedOutcome:
    """What a collapsed simulation produces — the scalar result minus the
    transcript (which no sweep aggregates).

    Field-for-field comparable with the scalar
    :class:`~repro.core.result.ExecutionResult` of the same trial:
    ``rounds == result.rounds``, ``channel_stats == result.channel_stats``,
    ``beeps_per_party == result.beeps_per_party``, ``outputs ==
    result.outputs`` and ``report`` matches ``result.metadata["report"]``
    (``None`` for a raw protocol, see :func:`simulate_owners`).
    """

    outputs: list[Any]
    rounds: int
    channel_stats: ChannelStats
    beeps_per_party: tuple[int, ...]
    report: SimulationReport | None = None

    @property
    def total_energy(self) -> int:
        return sum(self.beeps_per_party)


class _SharedChannel:
    """Windowed, stats-exact replay of a registered channel's delivery.

    Reproduces, draw for draw, what the scalar channel would deliver for
    the access shapes the collapsed schemes need: a constant-OR window
    (phase-1/verification votes), a codeword window (owners phase), a
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

    def word(self, bits: "_np.ndarray", weight: int) -> "_np.ndarray":
        """Transmit a codeword round-by-round; return the received word.

        ``bits`` is the round-wise true OR (only the speaker beeps, so the
        OR *is* its codeword); ``weight`` is its popcount.
        """
        if self.per_party:
            raise self._no_shared_bit()
        length = len(bits)
        stats = self.stats
        stats.rounds += length
        stats.beeps_sent += weight
        stats.or_ones += weight
        up, down = self.noisy
        if up and down:
            flipped = self.flips.take(length)
        elif up or down:
            # Only the drawing rounds (OR == down: the beeping rounds
            # under suppression, the silent ones under one-sided noise)
            # consume indicators, in round order.
            draws = weight if down else length - weight
            if not draws:
                return bits
            flipped = _np.zeros(length, dtype=_np.uint8)
            flipped[bits == down] = self.flips.take(draws)
        else:
            return bits
        flipped_down = int((flipped & bits).sum())
        stats.flips_down += flipped_down
        stats.flips_up += int(flipped.sum()) - flipped_down
        return bits ^ flipped

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
    """The ``n`` inner-party coroutines, advanced in lockstep.

    The scalar schemes give each of the ``n`` outer parties its own fresh
    copy of one inner party per attempt (``n²`` constructions); since all
    copies receive the same shared bits, one live set suffices.  ``strict``
    selects the chunk schemes' ``InnerReplay`` error contract (a party
    must yield exactly ``length()`` bits); the rewind scheme tolerates
    early termination (bits become ``None``).
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
        self.bits: list[int | None] = []
        self.position = 0
        self._programs: list[Any] = []
        self._finished: list[bool] = []
        self._outputs: list[Any] = []
        self.restart()

    def restart(self) -> None:
        """Fresh coroutines at position 0 (one ``create_parties`` call)."""
        parties = self._protocol.create_parties(
            self._inputs, shared_seed=self._shared_seed
        )
        self._programs = [party.run() for party in parties]
        count = len(self._programs)
        self.bits = [None] * count
        self._finished = [False] * count
        self._outputs = [None] * count
        self.position = 0
        for index, program in enumerate(self._programs):
            try:
                self.bits[index] = next(program)
            except StopIteration as stop:
                self._finished[index] = True
                self._outputs[index] = stop.value

    def rebuild(self, prefix: Sequence[int]) -> None:
        """Restart and replay a received prefix (the rewind/reject path)."""
        self.restart()
        for received in prefix:
            self.advance(received)

    def advance(self, received: int) -> None:
        """Deliver one shared received bit to every party."""
        self.advance_each([received] * len(self._programs))

    def advance_each(self, received: Sequence[int]) -> None:
        """Deliver party ``i`` its own received bit ``received[i]`` (per-
        party noise, where views diverge)."""
        strict = self._strict
        finished = self._finished
        bits = self.bits
        outputs = self._outputs
        for index, program in enumerate(self._programs):
            if finished[index]:
                if strict:
                    raise ProtocolError(
                        "inner party finished before its declared length"
                    )
                continue
            try:
                bits[index] = program.send(received[index])
            except StopIteration as stop:
                finished[index] = True
                outputs[index] = stop.value
                bits[index] = None
        self.position += 1

    def outputs(self) -> list[Any]:
        """Per-party outputs; strict mode requires every party finished."""
        if self._strict and not all(self._finished):
            raise ProtocolError(
                "inner protocol did not finish at its declared length"
            )
        return list(self._outputs)

    def outputs_over(self, prefix: Sequence[int]) -> list[Any]:
        """Outputs of a fresh replay over ``prefix`` (the padded path)."""
        self.rebuild(prefix)
        return self.outputs()


def _flip_kind(channel: Channel) -> str | None:
    """The registered flip source of ``channel``'s exact type."""
    if type(channel) not in CHANNEL_KINDS:
        raise ConfigurationError(
            f"collapsed simulation cannot replay {type(channel).__name__}; "
            "use the scalar engine"
        )
    return CHANNEL_KINDS[type(channel)]


def flip_sources(
    channels: Sequence[Channel], prefetch: int | None = None
) -> list[FlipSource | None]:
    """One flip source per channel — the single place a registered
    type's noise source is chosen.  All channels share one type.

    * ``"none"`` (noiseless): ``None``; the replay never draws.
    * ``"channel"`` (burst): :class:`ChannelFlips` over the channel's
      own ``_deliver_shared_run(0, k)`` — its received bits over a
      silent run are its flips, and the pull advances its Markov state.
    * ``"epsilon"``: with ``prefetch`` (the runner), rows of one
      :class:`BatchFlips` matrix of ``prefetch`` columns over copies of
      the channels' generators; without it (a standalone call),
      :class:`ChannelFlips` over the channel's own buffered
      ``u < epsilon`` stream, so the channel ends where the scalar run
      leaves it.

    Raises :class:`ConfigurationError` for unregistered channel types and
    for a type with no known flip source — never a silent noiseless
    replay.
    """
    kind = _flip_kind(channels[0])
    if kind == "none":
        return [None] * len(channels)
    if kind == "channel":
        return [
            ChannelFlips(partial(channel._deliver_shared_run, 0))
            for channel in channels
        ]
    if kind == "epsilon":
        if prefetch is None:
            return [
                ChannelFlips(partial(channel._threshold_run, hit=1, miss=0))
                for channel in channels
            ]
        rows = BatchFlips(
            [channel._rng for channel in channels],
            channels[0].epsilon,
            columns=prefetch,
        )
        return [rows.stream(row) for row in range(len(channels))]
    raise ConfigurationError(
        f"no flip source registered for {type(channels[0]).__name__} "
        f"(flips={kind!r})"
    )


def _shared_channel(
    channel: Channel, flips: FlipSource | None
) -> _SharedChannel:
    _flip_kind(channel)
    if flips is None:
        flips = flip_sources([channel])[0]
    return _SharedChannel(channel.flips, flips, not channel.correlated)


def _owners_decoder(
    params, chunk_length: int, noise: NoiseModel, codebook_cache
) -> VectorizedMLDecoder:
    """The vectorized decoder (and codebook) of the owners code for one
    parameter point, via the batch-shared cache.

    Both chunk schemes — the iterative chunk-commit and the hierarchical
    ``A_l`` — construct the codebook with identical parameters, so a
    cache entry warmed by one is safely reused by the other.
    """
    cache_key = (
        chunk_length,
        params.code_rate_constant,
        params.code_seed,
        noise.up,
        noise.down,
    )
    cached = (
        codebook_cache.get(cache_key) if codebook_cache is not None else None
    )
    if cached is not None:
        return cached
    code = build_owners_code(
        chunk_length,
        rate_constant=params.code_rate_constant,
        seed=params.code_seed,
    )
    decoder = VectorizedMLDecoder(code, noise)
    if codebook_cache is not None:
        codebook_cache[cache_key] = decoder
    return decoder


def _owners_phase(
    pi: Sequence[int],
    beep_rows: Sequence[Sequence[int]],
    shared: _SharedChannel,
    energy: "_np.ndarray",
    code: VectorizedMLDecoder,
    decode: Callable[["_np.ndarray"], int],
) -> tuple[dict[int, int], list[set[int]], int]:
    """Algorithm 1's finding-owners phase, collapsed.

    All shared bookkeeping (turn, claimed set, owner table) is computed
    once instead of once per party; only the speaker's claimed-by-me
    record is party-local.  Each iteration sends one row of ``code``'s
    codebook through ``shared`` (only the speaker beeps, so the OR *is*
    its codeword; the SILENCE row must be all-zero) and decodes the
    received word with ``decode``.  Accrues the speakers' energy in
    place and returns ``(owners, claimed_by, iterations)``.
    """
    codebook = code._codebook
    codeword_weights = code._mask_weights
    n_parties = len(beep_rows)
    ones_positions = [j for j, bit in enumerate(pi) if bit == 1]
    iterations = len(ones_positions) + n_parties
    claimed: set[int] = set()
    owners: dict[int, int] = {}
    claimed_by: list[set[int]] = [set() for _ in range(n_parties)]
    turn = 0
    for _ in range(iterations):
        if 0 <= turn < n_parties:
            speaker = turn
            row = beep_rows[speaker]
            candidate = next(
                (
                    j
                    for j in ones_positions
                    if row[j] == 1 and j not in claimed
                ),
                None,
            )
            sent_symbol = (
                NEXT if candidate is None else position_symbol(candidate)
            )
            word = codebook[sent_symbol]
            weight = int(codeword_weights[sent_symbol])
            energy[speaker] += weight
        else:
            speaker = None
            sent_symbol = None
            word = codebook[0]  # SILENCE: the all-zero codeword
            weight = 0
        received = shared.word(word, weight)
        decoded_symbol = decode(received)
        if decoded_symbol == NEXT:
            turn += 1
        else:
            position = symbol_position(decoded_symbol)
            if position is not None and position < len(pi):
                claimed.add(position)
                if 0 <= turn < n_parties:
                    owners[position] = turn
                if speaker is not None and decoded_symbol == sent_symbol:
                    claimed_by[speaker].add(position)
    return owners, claimed_by, iterations


def _chunk_phase12(
    programs: _InnerPrograms,
    shared: _SharedChannel,
    energy: "_np.ndarray",
    chunk_rounds: int,
    repetitions: int,
    n_parties: int,
    decoder: VectorizedMLDecoder,
):
    """Phases 1+2 of Algorithm 1 over the live programs, collapsed.

    Phase 1 repetition-hardens ``chunk_rounds`` virtual rounds into the
    chunk transcript ``pi`` (advancing the programs as it goes); phase 2
    runs the finding-owners phase (:func:`_owners_phase`).  Returns
    ``(pi, beep_rows, beep_matrix, owners, claimed_by)`` and accrues
    per-party ``energy`` in place — exactly the shared quantities both
    chunk schemes verify against.
    """
    # Phase 1: repetition-harden each virtual round into pi.  The
    # window's received ones collapse to one popcount of the flip
    # stream; the majority rule matches repeated_bit exactly.
    beep_rows: list[list[int]] = [[] for _ in range(n_parties)]
    pi: list[int] = []
    for _ in range(chunk_rounds):
        beeps = 0
        bits = programs.bits
        for index, bit in enumerate(bits):
            if bit is None:
                raise ProtocolError(
                    "inner protocol shorter than its declared length"
                )
            beep_rows[index].append(bit)
            beeps += bit
        or_value = 1 if beeps else 0
        ones = shared.window(or_value, beeps, repetitions)
        decoded = 1 if 2 * ones > repetitions else 0
        pi.append(decoded)
        programs.advance(decoded)
    beep_matrix = _np.array(beep_rows, dtype=_np.uint8)
    energy += beep_matrix.sum(axis=1, dtype=_np.int64) * repetitions

    # Phase 2: finding owners.
    owners, claimed_by, _ = _owners_phase(
        pi, beep_rows, shared, energy, decoder, decoder.decode
    )
    return pi, beep_rows, beep_matrix, owners, claimed_by


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
    codebook_cache: dict | None = None,
) -> CollapsedOutcome:
    """The chunk-commit scheme, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels (minus the transcript).

    ``flips`` optionally injects a pre-built noise stream (the runner's
    batched prefetch); ``codebook_cache`` shares the owners codebook and
    vectorized decoder (including its memo) across the trials of a batch —
    the scalar scheme rebuilds both per trial.
    """
    report, noise = simulator.plan(protocol, channel)
    inner_length = report.inner_length
    n_parties = protocol.n_parties
    chunk_length = report.extra["chunk_length"]
    repetitions = report.extra["repetitions"]
    verification_repetitions = report.extra["verification_repetitions"]
    max_attempts = report.extra["max_attempts"]
    decoder = _owners_decoder(
        simulator.params, chunk_length, noise, codebook_cache
    )

    shared = _shared_channel(channel, flips)
    programs = _InnerPrograms(protocol, inputs, shared_seed, strict=True)
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

        pi, beep_rows, beep_matrix, owners, claimed_by = _chunk_phase12(
            programs,
            shared,
            energy,
            chunk_rounds,
            repetitions,
            n_parties,
            decoder,
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
    codebook_cache: dict | None = None,
) -> CollapsedOutcome:
    """The rewind random walk, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels (minus the transcript).

    The scalar walk re-replays every party's inner coroutine from scratch
    after each pop.  Collapsed, the sent-bit column of position ``p`` is a
    function of ``working[:p]`` alone, so columns survive pops in a cache
    and a full replay is only needed when an append *changes* a received
    bit under cached columns.  Per-party dispute sets shrink to an
    incremental counter vector.  (``codebook_cache`` is accepted for call
    symmetry; the rewind scheme has no codebook.)
    """
    del codebook_cache
    report, _ = simulator.plan(protocol, channel)
    inner_length = report.inner_length

    shared = _shared_channel(channel, flips)
    n_parties = protocol.n_parties
    programs = _InnerPrograms(protocol, inputs, shared_seed, strict=False)
    energy = _np.zeros(n_parties, dtype=_np.int64)
    zero_column = _np.zeros(n_parties, dtype=_np.uint8)

    working: list[int] = []
    # Cached sent-bit columns: column p depends only on working[:p], and
    # cached_received mirrors the receive history the columns beyond p
    # were computed under.  A pop leaves the cache intact; an append that
    # changes a received bit truncates everything above it.
    cached_columns: list["_np.ndarray"] = []
    cached_received: list[int] = []
    disputes = _np.zeros(n_parties, dtype=_np.int64)
    rewinds = 0
    stale = False  # live programs out of sync with ``working``

    for _ in range(report.extra["iterations"]):
        # Alarm round: a party beeps iff it currently disputes a position.
        alarm_beeps = int((disputes > 0).sum())
        or_alarm = 1 if alarm_beeps else 0
        heard_alarm = shared.round(or_alarm, alarm_beeps)
        energy += disputes > 0

        if heard_alarm == 1:
            if working:
                position = len(working) - 1
                popped = working.pop()
                if popped == 0:
                    # Exactly the parties that beeped 1 there disputed it.
                    disputes -= cached_columns[position]
                rewinds += 1
                if programs.position > len(working):
                    stale = True
            # Dummy round keeps the iteration at two rounds; all silent.
            shared.round(0, 0)
        else:
            position = len(working)
            simulating = position < inner_length
            if simulating:
                if position < len(cached_columns):
                    column = cached_columns[position]
                else:
                    if stale or programs.position != position:
                        programs.rebuild(working)
                        stale = False
                    column = _np.array(
                        [
                            bit if bit is not None else 0
                            for bit in programs.bits
                        ],
                        dtype=_np.uint8,
                    )
                    cached_columns.append(column)
                beeps = int(column.sum())
            else:
                column = zero_column
                beeps = 0
            or_value = 1 if beeps else 0
            received = shared.round(or_value, beeps)
            energy += column
            if simulating:
                if position < len(cached_received):
                    if cached_received[position] != received:
                        # The past changed: columns above are invalid.
                        del cached_columns[position + 1 :]
                        del cached_received[position + 1 :]
                        cached_received[position] = received
                        if programs.position > position:
                            stale = True
                else:
                    cached_received.append(received)
                working.append(received)
                if received == 0:
                    disputes += column
                if not stale and programs.position == position:
                    programs.advance(received)

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
) -> CollapsedOutcome:
    """Record the rounds in ``report``, apply the simulator's
    ``on_incomplete`` policy and package the outcome."""
    report.simulated_rounds = shared.stats.rounds
    simulator._enforce_completion(report)
    return CollapsedOutcome(
        outputs=outputs,
        rounds=shared.stats.rounds,
        channel_stats=shared.stats,
        beeps_per_party=tuple(int(value) for value in energy),
        report=report,
    )


def _code_decoder(
    code: BlockCode, noise: NoiseModel, codebook_cache: dict | None
) -> VectorizedMLDecoder:
    """The vectorized decoder (and codebook matrix) of ``code`` under
    ``noise``, via the cache, keyed by code identity and noise law."""
    cache_key = ("owners", id(code), noise.up, noise.down)
    cached = (
        codebook_cache.get(cache_key) if codebook_cache is not None else None
    )
    if cached is not None and cached[0] is code:
        return cached[1]
    decoder = VectorizedMLDecoder(code, noise)
    if codebook_cache is not None:
        codebook_cache[cache_key] = (code, decoder)
    return decoder


def simulate_owners(
    protocol: OwnersProtocol,
    inputs: Sequence[Sequence[int]],
    channel: Channel,
    *,
    flips: FlipSource | None = None,
    codebook_cache: dict | None = None,
) -> CollapsedOutcome:
    """Algorithm 1's finding-owners phase, party-collapsed; bitwise equal
    to ``run_protocol(protocol, inputs, channel)`` on the shared-bit
    channels of :data:`CHANNEL_KINDS` (minus the transcript): the
    per-party :class:`~repro.simulation.owners.OwnersResult` outputs,
    rounds, channel statistics and per-party energy.

    Decoding uses the protocol's own decoder.  An exact
    :class:`~repro.coding.ml.MLDecoder` maps to the equivalent
    :class:`~repro.vectorized.decoder.VectorizedMLDecoder`; any other
    decoder (e.g. :class:`~repro.coding.ml.MinDistanceDecoder`) is called
    on the received word as the tuple the scalar parties pass it.

    Without ``flips`` the noise is pulled from ``channel`` itself, whose
    generator and noise state end where the scalar run leaves them.
    ``codebook_cache`` shares the vectorized codebooks, decode memo
    included, across calls.

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
    codebook = _code_decoder(
        protocol.code, protocol.noise_model, codebook_cache
    )
    if codebook._mask_weights[0]:
        raise ConfigurationError(
            "the collapsed owners phase needs an all-zero SILENCE codeword"
        )
    decoder = protocol.decoder
    if type(decoder) is MLDecoder:
        decode = _code_decoder(
            decoder.code, decoder.noise, codebook_cache
        ).decode
    else:

        def decode(received: "_np.ndarray") -> int:
            return decoder.decode(tuple(received.tolist()))

    shared = _shared_channel(channel, flips)
    energy = _np.zeros(protocol.n_parties, dtype=_np.int64)
    owners, claimed_by, iterations = _owners_phase(
        pi, inputs, shared, energy, codebook, decode
    )
    return CollapsedOutcome(
        outputs=[
            OwnersResult(
                owners=dict(owners),
                claimed_by_me=mine,
                iterations=iterations,
            )
            for mine in claimed_by
        ],
        rounds=shared.stats.rounds,
        channel_stats=shared.stats,
        beeps_per_party=tuple(int(value) for value in energy),
    )
