"""The lock-step execution engine.

:func:`run_protocol` drives a set of party coroutines over a channel, round
by round, enforcing the beeping model's synchrony:

1. ask every party for its bit (``next``/``send`` on its generator);
2. transmit the bits through the channel;
3. deliver each party its received bit.

All parties must terminate in the same round — a party finishing early while
another still wants to beep indicates a protocol bug and raises
:class:`~repro.errors.ProtocolDesyncError`.  A ``max_rounds`` guard turns
runaway protocols into a clean failure instead of an infinite loop.

One scheduler
-------------

A party may yield a plain bit or a batch token —
:class:`~repro.core.party.Burst` / :class:`~repro.core.party.Silence` —
meaning "my next ``count`` bits are this constant".  Every execution runs
one event-driven scheduler that handles both:

* a party that yields a bit is **awake**: it is resumed every round;
* a party that yields a token **sleeps** until its stretch ends: a
  **wake-up wheel** (dict: wake round → party indices) schedules its
  resumption, and a **standing-beep counter** aggregates the 1-bits of
  sleeping ``Burst`` parties, so sleepers cost nothing per round and the
  round's OR and beep count never iterate over them;
* on wake-up a party receives its heard bits as one ``bytes`` object — on
  the correlated path a single bulk slice of the transcript's shared
  received column (:meth:`~repro.core.transcript.Transcript.shared_slice`).

With T(n) = Θ(n log n) simulation rounds per trial (Theorem 1.2),
per-round overhead dominates wall-clock, so each round takes one of two
branches.  In a round where nobody wakes up — every round of a protocol
that only yields bits — the awake parties advance in order with no
per-round allocation: one reused send buffer, beep counting folded into
the collection loop, and the awake list rebuilt only when a party falls
asleep.  Only wake-up rounds merge the wakers into the awake list.

The scheduler keeps two loops.  Correlated channels
(``channel.correlated``, the paper's model) deliver one shared received
bit through :meth:`~repro.channels.base.Channel.transmit_shared` — no
per-round ``RoundOutcome`` or ``(bit,) * n`` received tuple — and append
raw bytes to the columnar transcript
(:meth:`~repro.core.transcript.Transcript.append_raw`); when nobody is
awake they transmit and append the whole stretch up to the next wake-up in
one block (:meth:`~repro.channels.base.Channel.transmit_shared_run` +
:meth:`~repro.core.transcript.Transcript.append_shared_run`).  Other
channels (independent noise, networks) keep the word-level ``transmit``
path, one round at a time.

Both loops are bitwise equivalent to the seed loop preserved in
:mod:`repro.core._legacy_engine` — same RNG draw order, same results —
which the equivalence suite enforces.  Tokens are pure sugar: a
``Burst(b, k)`` execution is bitwise identical — transcript columns,
outputs, ``beeps_per_party``, channel statistics, RNG draw order — to the
same party yielding ``b`` for ``k`` consecutive rounds.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Sequence

from repro.channels.base import Channel
from repro.channels.stats import ChannelStats
from repro.core.party import Burst
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.core.transcript import Transcript
from repro.errors import ProtocolDesyncError, ProtocolError
from repro.util.bits import validate_bit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

__all__ = ["run_protocol"]

_DEFAULT_MAX_ROUNDS = 10_000_000

# CPython caches small ints, so a validated bit is one of these two exact
# objects and the identity test below short-circuits the validation call.
# On interpreters without the cache the test just falls through to
# validate_bit — semantics are unchanged either way.
_BIT_ZERO = 0
_BIT_ONE = 1


def run_protocol(
    protocol: Protocol,
    inputs: Sequence[Any],
    channel: Channel,
    *,
    shared_seed: int | None = None,
    record_sent: bool = True,
    max_rounds: int = _DEFAULT_MAX_ROUNDS,
    observe: "Observer | None" = None,
) -> ExecutionResult:
    """Execute ``protocol`` on ``inputs`` over ``channel``.

    Args:
        protocol: The protocol factory.
        inputs: One input per party.
        channel: Any :class:`~repro.channels.base.Channel`; its statistics
            for this run are snapshotted into the result.
        shared_seed: Shared-randomness seed handed to every party
            (``None`` for deterministic protocols).
        record_sent: Keep the per-round sent bits in the transcript.  Turn
            off for long benchmark runs to save memory (the transcript
            then stores three bytes per round, independent of n).
        max_rounds: Hard cap on the number of rounds.
        observe: Optional :class:`~repro.observe.Observer`; when enabled,
            a ``protocol_run`` summary event and one ``noise_flip`` event
            per noisy round are emitted after the execution.  The events
            are derived from the transcript and the stats delta — the hot
            loop is untouched, no RNG draws are consumed, and the
            execution is bitwise identical to an untraced one.

    Parties may yield batch tokens (:class:`~repro.core.party.Burst`,
    :class:`~repro.core.party.Silence`) instead of per-round bits; see the
    module docstring for how the scheduler sleeps them.  The result is
    bitwise identical either way.

    Returns:
        An :class:`~repro.core.result.ExecutionResult`.

    Raises:
        ProtocolDesyncError: Parties disagreed on when to stop.
        ProtocolError: The protocol exceeded ``max_rounds``, or a batch
            token carried an invalid repeat count.
    """
    tracing = observe is not None and observe.enabled
    started = perf_counter() if tracing else 0.0
    parties = protocol.create_parties(inputs, shared_seed=shared_seed)
    n_parties = len(parties)
    programs = [party.run() for party in parties]

    outputs: list[Any] = [None] * n_parties
    transcript = Transcript(n_parties)
    stats_before = channel.stats.snapshot()
    # Per-party beep counts: the *energy* each party spends, a first-class
    # complexity measure in the beeping literature (tracked regardless of
    # record_sent, because it is O(n) total, not O(n·T)).
    beeps_per_party = [0] * n_parties
    rounds = _run(
        programs, channel, transcript, record_sent, max_rounds,
        outputs, beeps_per_party,
    )

    stats_after = channel.stats.snapshot()
    delta = _stats_delta(stats_before, stats_after)
    result = ExecutionResult(
        outputs=outputs,
        transcript=transcript,
        rounds=rounds,
        channel_stats=delta,
        beeps_per_party=tuple(beeps_per_party),
    )
    if tracing:
        _emit_run_events(observe, protocol, result, perf_counter() - started)
    return result


def _run(
    programs: list,
    channel: Channel,
    transcript: Transcript,
    record_sent: bool,
    max_rounds: int,
    outputs: list,
    beeps_per_party: list,
) -> int:
    """The event-driven scheduler; returns the number of rounds executed.

    Scheduling state:

    * ``bits[i]`` — the bit party ``i`` sends every round until it next
      advances (its pending bit if awake, its token's constant if asleep);
    * ``awake`` — sorted indices of parties advancing every round;
    * ``wheel`` — wake round → sleeping parties resuming there;
    * ``batch_start[i]`` — first round covered by sleeper ``i``'s token;
    * ``standing_beeps`` / ``awake_beeps`` — number of 1-bits contributed
      per round by sleeping / awake parties (the shared loop's OR and beep
      count, so it never iterates over sleepers).

    Energy is credited when a bit or token is collected (the full
    ``bit × count`` for a batch): a collected value is sent in full or the
    execution aborts with an exception, so the counts match the seed
    engine's per-sent-round accounting on every returning execution.

    A party that finishes is not removed from ``awake``: the next round
    check either ends the run (everybody finished) or raises a desync.
    """
    n_parties = len(programs)
    _validate = validate_bit
    finished = [False] * n_parties
    finished_count = 0
    bits = [0] * n_parties
    batch_start = [0] * n_parties
    wheel: dict[int, list[int]] = {}
    awake: list[int] = []
    awake_beeps = standing_beeps = 0
    rounds = 0

    # Prime every coroutine to its first yield; collect outputs of parties
    # whose program has zero rounds.
    for index, program in enumerate(programs):
        try:
            token = next(program)
        except StopIteration as stop:
            finished[index] = True
            finished_count += 1
            outputs[index] = stop.value
            continue
        if token is not _BIT_ZERO and token is not _BIT_ONE:
            if isinstance(token, Burst):
                standing_beeps += _sleep(
                    index, token, rounds, bits, batch_start, wheel,
                    beeps_per_party,
                )
                continue
            token = _validate(token)
        bits[index] = token
        awake.append(index)
        awake_beeps += token
        beeps_per_party[index] += token

    # Bind each generator's send once; the loops below run per party-round.
    sends = [program.send for program in programs]
    append_raw = transcript.append_raw
    if channel.correlated:
        transmit_shared = channel.transmit_shared
        transmit_shared_run = channel.transmit_shared_run
        append_shared_run = transcript.append_shared_run
        shared_slice = transcript.shared_slice
        received = 0
        while finished_count < n_parties:
            if finished_count:
                raise _desync(finished, rounds)
            if awake:
                if rounds >= max_rounds:
                    raise _overrun(max_rounds)
                beeps = awake_beeps + standing_beeps
                or_value = 1 if beeps else 0
                received = transmit_shared(or_value, beeps)
                append_raw(
                    bits if record_sent else None, or_value, received
                )
                rounds += 1
            else:
                # Nobody awake: run to the next wake-up in one block.  The
                # sent row, OR and beep count are constant over the run.
                span = min(wheel) - rounds
                if rounds + span > max_rounds:
                    # Transmit up to the cap; the guard fires next pass.
                    span = max_rounds - rounds
                    if span <= 0:
                        raise _overrun(max_rounds)
                or_value = 1 if standing_beeps else 0
                run = transmit_shared_run(or_value, standing_beeps, span)
                append_shared_run(
                    or_value, run, bytes(bits) if record_sent else None
                )
                rounds += span
            wakers = wheel.pop(rounds, None)
            awake_beeps = 0
            if wakers is None:
                # No wake-up: advance the awake parties in order.  Only a
                # party falling asleep (its batch starts this round)
                # changes the awake list.
                dozed = False
                for index in awake:
                    try:
                        token = sends[index](received)
                    except StopIteration as stop:
                        finished[index] = True
                        finished_count += 1
                        outputs[index] = stop.value
                        continue
                    if token is not _BIT_ZERO and token is not _BIT_ONE:
                        if isinstance(token, Burst):
                            standing_beeps += _sleep(
                                index, token, rounds, bits, batch_start,
                                wheel, beeps_per_party,
                            )
                            dozed = True
                            continue
                        token = _validate(token)
                    bits[index] = token
                    awake_beeps += token
                    beeps_per_party[index] += token
                if dozed:
                    awake = [i for i in awake if batch_start[i] != rounds]
                continue
            # Wake-up round: merge the wakers in, resuming every party in
            # index order; a waker hears its whole stretch as one slice.
            woken = set(wakers)
            new_awake: list[int] = []
            push = new_awake.append
            for index in sorted(awake + wakers):
                if index in woken:
                    payload = shared_slice(batch_start[index], rounds)
                    standing_beeps -= bits[index]
                else:
                    payload = received
                try:
                    token = sends[index](payload)
                except StopIteration as stop:
                    finished[index] = True
                    finished_count += 1
                    outputs[index] = stop.value
                    continue
                if token is not _BIT_ZERO and token is not _BIT_ONE:
                    if isinstance(token, Burst):
                        standing_beeps += _sleep(
                            index, token, rounds, bits, batch_start, wheel,
                            beeps_per_party,
                        )
                        continue
                    token = _validate(token)
                bits[index] = token
                push(index)
                awake_beeps += token
                beeps_per_party[index] += token
            awake = new_awake
        return rounds

    # Word path: per-party views, with the same two branches.  Sleepers
    # still skip their generator resumption (the win that matters), but
    # every round transmits individually — per-party received words have
    # no shared run form — so the beep counters are not needed here.
    transmit = channel.transmit
    recv_slice = transcript.recv_slice
    while finished_count < n_parties:
        if finished_count:
            raise _desync(finished, rounds)
        if rounds >= max_rounds:
            raise _overrun(max_rounds)
        outcome = transmit(tuple(bits))
        received_word = outcome.received
        append_raw(
            bits if record_sent else None,
            outcome.or_value,
            received_word,
            outcome.flips,
        )
        rounds += 1
        wakers = wheel.pop(rounds, None)
        if wakers is None:
            dozed = False
            for index in awake:
                try:
                    token = sends[index](received_word[index])
                except StopIteration as stop:
                    finished[index] = True
                    finished_count += 1
                    outputs[index] = stop.value
                    continue
                if token is not _BIT_ZERO and token is not _BIT_ONE:
                    if isinstance(token, Burst):
                        _sleep(
                            index, token, rounds, bits, batch_start, wheel,
                            beeps_per_party,
                        )
                        dozed = True
                        continue
                    token = _validate(token)
                bits[index] = token
                beeps_per_party[index] += token
            if dozed:
                awake = [i for i in awake if batch_start[i] != rounds]
            continue
        woken = set(wakers)
        new_awake = []
        push = new_awake.append
        for index in sorted(awake + wakers):
            if index in woken:
                payload = recv_slice(index, batch_start[index], rounds)
            else:
                payload = received_word[index]
            try:
                token = sends[index](payload)
            except StopIteration as stop:
                finished[index] = True
                finished_count += 1
                outputs[index] = stop.value
                continue
            if token is not _BIT_ZERO and token is not _BIT_ONE:
                if isinstance(token, Burst):
                    _sleep(
                        index, token, rounds, bits, batch_start, wheel,
                        beeps_per_party,
                    )
                    continue
                token = _validate(token)
            bits[index] = token
            push(index)
            beeps_per_party[index] += token
        awake = new_awake
    return rounds


def _sleep(
    index: int,
    token: Burst,
    start: int,
    bits: list,
    batch_start: list,
    wheel: dict,
    beeps_per_party: list,
) -> int:
    """Put party ``index`` to sleep on ``token`` from round ``start``.

    Validates the token, schedules the wake-up and credits the batch's
    energy.  Returns the token's bit: the party's contribution to the
    standing-beep count while it sleeps.
    """
    bit = token.bit
    if bit is not _BIT_ZERO and bit is not _BIT_ONE:
        bit = validate_bit(bit)
    count = token.count
    if type(count) is not int or count < 1:
        raise ProtocolError(
            f"batch token count must be a positive int, got {count!r}"
        )
    bits[index] = bit
    batch_start[index] = start
    slot = wheel.get(start + count)
    if slot is None:
        wheel[start + count] = [index]
    else:
        slot.append(index)
    beeps_per_party[index] += bit * count
    return bit


def _desync(finished: list, rounds: int) -> ProtocolDesyncError:
    laggards = [i for i, done in enumerate(finished) if not done]
    return ProtocolDesyncError(
        f"parties {laggards} still communicating after others "
        f"finished at round {rounds}"
    )


def _overrun(max_rounds: int) -> ProtocolError:
    return ProtocolError(f"protocol exceeded max_rounds={max_rounds}")

def _emit_run_events(observe, protocol, result, elapsed: float) -> None:
    """Post-run engine events: one summary plus one event per noise hit.

    Everything here is read back out of the columnar transcript and the
    stats delta, so tracing adds zero work to the per-round loop.
    """
    stats = result.channel_stats
    observe.emit(
        "protocol_run",
        protocol=type(protocol).__name__,
        n_parties=result.transcript.n_parties,
        rounds=result.rounds,
        beeps_sent=stats.beeps_sent,
        or_ones=stats.or_ones,
        flips_up=stats.flips_up,
        flips_down=stats.flips_down,
        total_energy=result.total_energy,
        elapsed_s=elapsed,
    )
    transcript = result.transcript
    if transcript.noisy_count:
        # Single pass over the noisy positions (C-level mask scan): no
        # full-column or_values() conversion, no O(T) Python loop.
        for position, or_value in transcript.noise_flips():
            # Shared-view convention: the flip direction relative to the
            # round's true OR (independent noise may flip individual
            # parties both ways; the per-party split is in the stats).
            observe.emit(
                "noise_flip",
                round=position,
                or_value=or_value,
                direction="down" if or_value else "up",
            )


def _stats_delta(before, after):
    """Channel counters accumulated during this execution only."""
    return ChannelStats(
        rounds=after.rounds - before.rounds,
        beeps_sent=after.beeps_sent - before.beeps_sent,
        or_ones=after.or_ones - before.or_ones,
        flips_up=after.flips_up - before.flips_up,
        flips_down=after.flips_down - before.flips_down,
    )
