"""Abstract channel interface.

A channel is the only shared medium in the beeping model.  Its one operation,
:meth:`Channel.transmit`, takes the bits beeped by the parties in a round and
returns a :class:`RoundOutcome` describing what each party received.

:class:`ThresholdNoiseChannel` is the one implementation of the paper's
i.i.d. ε-noise laws: a channel class declares only its ``flips`` pair —
which true OR values a ``u < ε`` draw can flip — and inherits every
delivery path.

Channels own their randomness: each instance carries its own
:class:`random.Random`, seeded at construction, so that an execution is fully
reproducible from ``(protocol seed, channel seed)``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.channels.stats import ChannelStats
from repro.errors import ChannelError, ConfigurationError, TranscriptError
from repro.rng import ensure_rng
from repro.util.bits import BitWord, or_reduce, validate_bits

__all__ = ["Channel", "RoundOutcome", "ThresholdNoiseChannel"]


@dataclass(frozen=True)
class RoundOutcome:
    """Everything observable about one channel round.

    Attributes:
        or_value: The true OR of the beeped bits (before noise).
        received: Per-party received bits, one per party.  For correlated
            channels all entries are equal.
        flips: Optional accounted noise counts ``(flips_up, flips_down)``
            for the round.  Channels whose clean reference differs from
            the global OR (graph topologies, where each party's clean
            reception is its *neighborhood* OR) set this so that noise is
            judged against the right baseline; when absent, ``noisy``
            falls back to comparing receptions with ``or_value``.
    """

    or_value: int
    received: BitWord
    flips: tuple[int, int] | None = None

    @property
    def common(self) -> int:
        """The single received bit, valid only when all parties agree.

        Raises :class:`TranscriptError` when the views diverge (which can
        only happen under independent noise); code written for the
        correlated model should use this accessor so that accidentally
        running it over an independent-noise channel fails loudly.
        """
        first = self.received[0]
        for bit in self.received:
            if bit != first:
                raise TranscriptError(
                    "received bits diverge across parties; no common view"
                )
        return first

    @property
    def noisy(self) -> bool:
        """True when noise altered at least one party's reception.

        With accounted ``flips`` (set by topology-aware channels) this is
        exact; otherwise a party reception differing from the global OR
        counts, which is correct for every single-hop channel.
        """
        if self.flips is not None:
            return self.flips[0] + self.flips[1] > 0
        return any(bit != self.or_value for bit in self.received)


class Channel(ABC):
    """Base class for all beeping channels.

    Subclasses implement :meth:`_deliver`, mapping the true OR of a round to
    the tuple of received bits.  ``transmit`` validates inputs, computes the
    OR, delegates to ``_deliver`` and records statistics.  The ε-noise
    channels do not: they declare a ``flips`` pair on
    :class:`ThresholdNoiseChannel`, which implements every delivery path.

    Correlated channels additionally expose the block interface used by the
    engine's fast path: :meth:`transmit_shared` returns the single shared
    received bit (every party's view) without ever building the
    ``(bit,) * n`` received tuple or a :class:`RoundOutcome`, and
    :meth:`transmit_shared_run` delivers a run of rounds with one true
    OR.  Channels whose noise is driven by uniform draws consume them
    through :meth:`_next_noise_float`, which pre-draws ``random()``
    values in fixed-size blocks.  The *call sequence* into the underlying
    :class:`random.Random` is the per-round sequence of the seed engine
    (one ``random()`` per decision, in the same order), so delivered bits
    are bitwise identical to per-round drawing for any seed.

    Attributes:
        correlated: True when all parties are guaranteed identical views.
            Protocol code that relies on a shared transcript asserts this.
        stats: Lifetime counters; see :class:`ChannelStats`.
    """

    correlated: bool = True

    #: Uniform draws pre-drawn per block; amortizes RNG attribute lookups
    #: over the Monte-Carlo hot loop without changing the draw sequence.
    _NOISE_BLOCK = 1024

    def __init__(self, rng: random.Random | int | None = None) -> None:
        self._rng = ensure_rng(rng)
        self._noise_floats: list[float] = []
        self._noise_pos = 0
        self.stats = ChannelStats()

    @abstractmethod
    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        """Map the true OR to the per-party received bits."""

    def _next_noise_float(self) -> float:
        """Next uniform draw from the block-buffered noise stream."""
        pos = self._noise_pos
        floats = self._noise_floats
        if pos >= len(floats):
            rand = self._rng.random
            floats = [rand() for _ in range(self._NOISE_BLOCK)]
            self._noise_floats = floats
            pos = 0
        self._noise_pos = pos + 1
        return floats[pos]

    def _deliver_shared(self, or_value: int) -> int:
        """The shared received bit for one round (correlated channels).

        Default: delegate to :meth:`_deliver` for a single party, which is
        draw-order identical for every correlated channel here (their
        randomness never depends on the party count).
        :class:`ThresholdNoiseChannel` overrides this to skip the 1-tuple
        entirely.
        """
        return self._deliver(or_value, 1)[0]

    def transmit_shared(self, or_value: int, beeps: int) -> int:
        """Fast-path transmit for correlated channels — the block interface.

        The engine computes the round's true OR and beep count in its
        per-party collection loop, so this entry point skips bit
        revalidation and the OR reduction, delivers one shared bit via
        :meth:`_deliver_shared`, and records the exact statistics
        :meth:`transmit` would have recorded.

        Args:
            or_value: True OR of the round's (already validated) bits.
            beeps: Number of 1-bits beeped this round.

        Returns:
            The single received bit every party observes.

        Raises:
            ChannelError: When called on a non-correlated channel (whose
                per-party views cannot be summarized by one bit).
        """
        if not self.correlated:
            raise ChannelError(
                "transmit_shared() requires a correlated channel; use "
                "transmit() for per-party views"
            )
        received = self._deliver_shared(or_value)
        stats = self.stats
        stats.rounds += 1
        stats.beeps_sent += beeps
        stats.or_ones += or_value
        if received != or_value:
            # One shared noise event per round, counted once.
            if or_value:
                stats.flips_down += 1
            else:
                stats.flips_up += 1
        return received

    def _deliver_shared_run(self, or_value: int, count: int) -> bytes:
        """Shared received bits for ``count`` rounds with the same true OR.

        Default: ``count`` sequential :meth:`_deliver_shared` calls, which
        is draw-order identical to per-round transmission for every
        channel (including stateful ones — each round's decision happens
        in order).  :class:`ThresholdNoiseChannel` overrides this with a
        block loop over the buffered noise floats.
        """
        deliver = self._deliver_shared
        return bytes(bytearray(deliver(or_value) for _ in range(count)))

    def transmit_shared_run(
        self, or_value: int, beeps: int, count: int
    ) -> bytes:
        """Run-batched :meth:`transmit_shared`: ``count`` rounds in which
        the sent bits (hence the true OR and beep count) are constant.

        The engine's scheduler calls this when every unfinished
        party is asleep inside a batch token.  Statistics are recorded
        exactly as ``count`` individual ``transmit_shared`` calls would
        record them, and the delivered bits consume the same RNG draws in
        the same order.

        Args:
            or_value: True OR of each round in the run.
            beeps: Number of 1-bits beeped in each round of the run.
            count: Number of rounds; must be >= 1.

        Returns:
            The shared received bit of each round, as ``bytes``.

        Raises:
            ChannelError: When called on a non-correlated channel.
        """
        if not self.correlated:
            raise ChannelError(
                "transmit_shared_run() requires a correlated channel; use "
                "transmit() for per-party views"
            )
        received = self._deliver_shared_run(or_value, count)
        stats = self.stats
        stats.rounds += count
        stats.beeps_sent += beeps * count
        stats.or_ones += or_value * count
        flipped = (count - received.count(1)) if or_value else received.count(1)
        if or_value:
            stats.flips_down += flipped
        else:
            stats.flips_up += flipped
        return received

    def transmit(self, bits: Sequence[int]) -> RoundOutcome:
        """Transmit one round: combine ``bits`` with OR, apply noise.

        Args:
            bits: One bit per party (length defines the party count for the
                round).  Must be non-empty.

        Returns:
            The :class:`RoundOutcome` with the true OR and per-party views.
        """
        word = validate_bits(bits)
        if not word:
            raise ChannelError("transmit() needs at least one party")
        or_value = or_reduce(word)
        received = self._deliver(or_value, len(word))
        if self.correlated:
            # One shared noise event per round, counted once.
            flipped = received[0] != or_value
            flips_up = 1 if flipped and or_value == 0 else 0
            flips_down = 1 if flipped and or_value == 1 else 0
        else:
            # Independent noise: count per-party reception flips.
            flips_up = sum(1 for bit in received if bit == 1 and or_value == 0)
            flips_down = sum(1 for bit in received if bit == 0 and or_value == 1)
        self.stats.record(
            beeps=sum(word),
            or_value=or_value,
            flips_up=flips_up,
            flips_down=flips_down,
        )
        return RoundOutcome(or_value=or_value, received=received)

    def reset_stats(self) -> None:
        """Clear the statistics counters without touching the noise stream."""
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ThresholdNoiseChannel(Channel):
    """i.i.d. ε-noise: a round whose true OR draws is XOR-ed with ``u < ε``.

    The paper's single-hop noise laws differ only in which true OR values
    a noise draw can flip, so each is a class-level ``flips`` declaration
    ``(OR = 0 rounds draw, OR = 1 rounds draw)``: two-sided (True, True),
    one-sided 0→1 (True, False), suppression 1→0 (False, True) and
    noiseless (False, False).  A round whose OR does not draw is delivered
    unchanged and consumes no draw, so the draw sequence is data-dependent
    exactly as the paper's channels are.  This class implements every
    delivery path — per round, shared and run — once.

    Args:
        epsilon: Flip probability of a drawing round; must lie in
            ``[0, 1)``.
        rng: Noise source (seed, generator, or ``None`` for
            nondeterministic).
    """

    #: (OR = 0 rounds draw, OR = 1 rounds draw).
    flips: tuple[bool, bool] = (True, True)

    def __init__(
        self, epsilon: float, rng: random.Random | int | None = None
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {epsilon}"
            )
        super().__init__(rng)
        self.epsilon = epsilon

    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        if self.flips[or_value] and self._next_noise_float() < self.epsilon:
            or_value ^= 1
        return (or_value,) * n_parties

    def _deliver_shared(self, or_value: int) -> int:
        # The engine's hot path: block-buffered draw, inlined to avoid a
        # second function call per round.  Same draw sequence as _deliver.
        if not self.flips[or_value]:
            return or_value
        pos = self._noise_pos
        floats = self._noise_floats
        if pos >= len(floats):
            rand = self._rng.random
            floats = [rand() for _ in range(self._NOISE_BLOCK)]
            self._noise_floats = floats
            pos = 0
        self._noise_pos = pos + 1
        if floats[pos] < self.epsilon:
            return or_value ^ 1
        return or_value

    def _deliver_shared_run(self, or_value: int, count: int) -> bytes:
        # A non-drawing run passes through draw-free; a drawing run
        # consumes one draw per round, same order as per-round.
        if not self.flips[or_value]:
            return bytes((or_value,)) * count
        return self._threshold_run(count, or_value ^ 1, or_value)

    def _threshold_run(self, count: int, hit: int, miss: int) -> bytes:
        """``count`` noise draws as bytes: ``hit`` where the draw is below
        ``self.epsilon``, ``miss`` elsewhere.

        The run loop of :meth:`_deliver_shared_run`, and the collapsed
        replay's standalone flip source.  It slices the buffered float
        blocks directly, consuming exactly the draws (and the order) of
        ``count`` :meth:`_next_noise_float` calls, and leaves the block
        buffer in the state those calls would.
        """
        epsilon = self.epsilon
        received = b""
        while count:
            pos = self._noise_pos
            floats = self._noise_floats
            if pos >= len(floats):
                rand = self._rng.random
                floats = [rand() for _ in range(self._NOISE_BLOCK)]
                self._noise_floats = floats
                pos = 0
            take = len(floats) - pos
            if take > count:
                take = count
            end = pos + take
            # A list comprehension: bytes() of a list beats a generator.
            received += bytes(
                [hit if value < epsilon else miss for value in floats[pos:end]]
            )
            self._noise_pos = end
            count -= take
        return received

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(epsilon={self.epsilon})"
