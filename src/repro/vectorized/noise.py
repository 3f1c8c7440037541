"""Vectorized shared-noise streams, bitwise-matched to the scalar channels.

Every i.i.d. noise channel in this package decides its per-round noise
with a single comparison ``u < ε`` against the next uniform draw of its
``random.Random`` (see :class:`~repro.channels.base.ThresholdNoiseChannel`
and ``Channel._next_noise_float``), made only in the rounds whose true OR
its ``flips`` pair marks as drawing: the correlated channel draws every
round, the one-sided channel only on silent rounds, the suppression
channel only on beeping rounds.  That means the *flip indicator stream* — the sequence
``[u_0 < ε, u_1 < ε, ...]`` in draw order — fully determines a channel's
behaviour, and a trial's noise can be replayed bitwise from any generator
producing the same uniforms.

:func:`numpy_stream` transfers a ``random.Random``'s Mersenne-Twister state
into a ``numpy.random.RandomState``: both generate doubles with the same
``genrand_res53`` recipe, so ``random_sample(k)`` reproduces ``k`` calls of
``Random.random()`` exactly (verified by golden pins in
``tests/unit/test_rng.py`` and property tests).  :class:`FlipStream` builds
on that to serve flip indicators, one byte each; the collapsed
single-hop schemes draw from one per trial, over a copy of the channel's
generator.  Its first :data:`_FLIP_BLOCK` indicators come from
:func:`random_block` in doubling fills, so a trial that draws little
never builds a numpy stream; later fills generate
:data:`_GENERATION_BLOCK` uniforms at a time and write each block's
``u < ε`` straight into the indicator buffer, so a fill of any size
holds one byte per indicator plus one block of float64 scratch.
Besides reading indicators, a flip source can ``peek`` the next ``k``
and then ``commit`` a prefix of them:
the owners phase decodes a whole speculated segment of codewords from one
peek and consumes only the draws of the rows it accepts.
:class:`BatchFlips` prefetches the first ``columns`` indicators of a
whole batch of trials as 0/1 bytes — the network route's batched noise.
:func:`random_block` is for callers that keep
using the ``random.Random`` itself: it draws a block of ``random()``
values through ``getrandbits``, so the generator advances past them.
:class:`ChannelFlips` serves the same access patterns by pulling
indicators from the channel's own delivery, exactly as many as consumed —
for noise whose draws are not one comparison per indicator (the
burst channel's Markov state), and for standalone calls that must leave
the channel where the scalar run would.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Union

import numpy as _np

from repro.errors import ConfigurationError

__all__ = [
    "numpy_stream",
    "random_block",
    "FlipStream",
    "ChannelFlips",
    "FlipSource",
    "BatchFlips",
]

#: The indicators a :class:`FlipStream` draws through
#: :func:`random_block` before it builds a numpy stream, and the smallest
#: fill from that stream.  An amortization knob only: the delivered
#: stream is identical for any value.
_FLIP_BLOCK = 8192

#: Smallest first fill of a :class:`FlipStream`; later
#: :func:`random_block` fills double the indicators drawn so far.  Also
#: an amortization knob only.
_FIRST_BLOCK = 256

#: Uniforms per numpy call when a :class:`FlipStream` fills from its
#: numpy stream: the float64 scratch of a fill, whatever its size.
_GENERATION_BLOCK = 1 << 16

#: The view of an empty :class:`FlipStream` buffer.
_NO_FLIPS = _np.zeros(0, dtype=_np.uint8)
_NO_FLIPS.flags.writeable = False


def numpy_stream(rng: random.Random) -> "_np.random.RandomState":
    """A ``RandomState`` continuing ``rng``'s exact uniform stream.

    CPython's ``random.Random`` and numpy's legacy ``RandomState`` share
    both the MT19937 core and the 53-bit double construction, so after the
    state transfer ``random_sample(k)`` returns exactly the next ``k``
    values ``rng.random()`` would have produced.  ``rng`` itself is left
    untouched (its state is copied, not consumed).
    """
    version, internal, _gauss = rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used version 3 forever
        raise ConfigurationError(
            f"unsupported random.Random state version {version}"
        )
    key, pos = internal[:-1], internal[-1]
    stream = _np.random.RandomState()
    stream.set_state(("MT19937", _np.asarray(key, dtype=_np.uint32), pos))
    return stream


def random_block(rng: random.Random, count: int) -> "_np.ndarray":
    """``count`` calls of ``rng.random()`` as one float64 array.

    ``random()`` builds each double from two consecutive 32-bit MT19937
    outputs ``a, b`` as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and
    ``getrandbits(64 * count)`` returns exactly those ``2 * count``
    outputs, first one least significant.  So the block is bitwise the
    scalar calls' values and ``rng`` advances past them itself — no
    state transfer, which keeps small blocks cheap.
    """
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = _np.frombuffer(raw, dtype="<u4")
    return (
        (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
    ) * (1.0 / 9007199254740992.0)


class FlipStream:
    """The flip-indicator stream of one trial's channel randomness.

    Serves the sequence ``[rng.random() < epsilon, ...]`` in draw order,
    generated in vectorized fills over a copy of ``rng``: the first
    :data:`_FLIP_BLOCK` indicators by :func:`random_block`, in fills that
    start at :data:`_FIRST_BLOCK` and double the indicators drawn so far;
    every later fill (and any request that would carry the stream past
    :data:`_FLIP_BLOCK`) from a :func:`numpy_stream` continuing that copy,
    :data:`_GENERATION_BLOCK` uniforms at a time.  The buffer is a
    ``bytearray`` of 0/1, one byte per indicator, so the access patterns
    of the collapsed schemes are all C-speed: ``take1`` (one round),
    ``count`` (popcount of a constant-OR window), ``take`` (a window as a
    read-only uint8 array), and ``peek``/``commit`` (a speculated segment
    of codewords, of which a prefix is consumed).  A filled buffer is
    never written again, so returned windows stay valid.

    Args:
        rng: The channel's generator; its current state is copied.
        epsilon: The channel's flip probability.
    """

    __slots__ = (
        "_rng",
        "_stream",
        "_epsilon",
        "_buffer",
        "_view",
        "_pos",
        "_drawn",
        "draws",
    )

    def __init__(self, rng: random.Random, epsilon: float) -> None:
        self._rng = random.Random()
        self._rng.setstate(rng.getstate())
        self._stream: "_np.random.RandomState | None" = None
        self._epsilon = epsilon
        self._buffer = bytearray()
        #: ``_buffer`` as a read-only uint8 array (what ``peek`` slices).
        self._view = _NO_FLIPS
        self._pos = 0
        #: Indicators generated so far (consumed or buffered).
        self._drawn = 0
        #: Indicators consumed so far (draw-order position; test hook).
        self.draws = 0

    def _refill(self, size: int = 0) -> None:
        """Buffer the next ``size`` indicators past the unread rest, or
        more (a block)."""
        drawn = self._drawn
        if self._stream is None and drawn + max(size, 1) <= _FLIP_BLOCK:
            # Short streams, as most rewind trials read: no numpy state
            # transfer, and each fill at least doubles what was drawn.
            count = min(max(size, _FIRST_BLOCK, drawn), _FLIP_BLOCK - drawn)
        else:
            if self._stream is None:
                self._stream = numpy_stream(self._rng)
            count = max(size, _FLIP_BLOCK)
        rest = len(self._buffer) - self._pos
        buffer = bytearray(rest + count)
        buffer[:rest] = memoryview(self._buffer)[self._pos :]
        flags = _np.frombuffer(buffer, dtype=_np.bool_)
        epsilon = self._epsilon
        if self._stream is None:
            _np.less(random_block(self._rng, count), epsilon, out=flags[rest:])
        else:
            sample = self._stream.random_sample
            for start in range(rest, rest + count, _GENERATION_BLOCK):
                block = flags[start : start + _GENERATION_BLOCK]
                _np.less(sample(block.size), epsilon, out=block)
        flags.flags.writeable = False
        self._buffer = buffer
        self._view = flags.view(_np.uint8)
        self._pos = 0
        self._drawn = drawn + count

    def take1(self) -> int:
        """The next flip indicator, as a plain int."""
        if self._pos >= len(self._buffer):
            self._refill()
        bit = self._buffer[self._pos]
        self._pos += 1
        self.draws += 1
        return bit

    def count(self, rounds: int) -> int:
        """Number of flips among the next ``rounds`` indicators.

        The whole window of a constant-OR run (phase-1 repetition votes,
        verification votes) only ever needs this popcount.
        """
        total = 0
        remaining = rounds
        while remaining > 0:
            if self._pos >= len(self._buffer):
                self._refill()
            chunk = min(remaining, len(self._buffer) - self._pos)
            end = self._pos + chunk
            total += self._buffer.count(1, self._pos, end)
            self._pos = end
            remaining -= chunk
        self.draws += rounds
        return total

    def take(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array (whole
        local-broadcast bursts, per-party vote windows)."""
        flips = self.peek(rounds)
        self.commit(rounds)
        return flips

    def peek(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array, not consumed.

        Refills once with everything still missing (at least a block), so
        a long window is one contiguous buffer.
        """
        missing = rounds - (len(self._buffer) - self._pos)
        if missing > 0:
            self._refill(missing)
        return self._view[self._pos : self._pos + rounds]

    def commit(self, rounds: int) -> None:
        """Consume the first ``rounds`` indicators of the last
        :meth:`peek`; a buffer read to its end is dropped at once (a
        per-node noise burst reads megabytes per trial)."""
        self._pos += rounds
        self.draws += rounds
        if self._pos == len(self._buffer):
            self._buffer = bytearray()
            self._view = _NO_FLIPS
            self._pos = 0


class ChannelFlips:
    """A flip-indicator stream pulled from a channel, on demand.

    ``pull(k)`` returns the next ``k`` indicators as 0/1 ``bytes`` and
    advances ``channel`` past exactly their draws — e.g.
    ``channel._deliver_shared_run(0, k)`` for an XOR channel, whose
    received bits over a silent run *are* its flips.  Nothing is read
    ahead for good, so after a collapsed replay the channel's generator,
    block buffer and any noise state are those of the scalar run.  Same
    interface as :class:`FlipStream`.

    :meth:`peek` pulls its indicators at once, after saving the channel's
    noise state (the generator's state and every attribute a pull can
    rebind); :meth:`commit` of fewer than were peeked restores that state
    and pulls again exactly the committed count, so the channel never
    ends past the draws the scalar run made.  Every peek is followed by
    a commit before any other read.
    """

    __slots__ = ("_channel", "_pull", "_peeked", "draws")

    def __init__(self, channel: Any, pull: Callable[[int], bytes]) -> None:
        self._channel = channel
        self._pull = pull
        #: ``(count, generator state, attributes)`` of the last peek.
        self._peeked: tuple | None = None
        #: Indicators consumed so far (draw-order position; test hook).
        self.draws = 0

    def take1(self) -> int:
        """The next flip indicator, as a plain int."""
        self.draws += 1
        return self._pull(1)[0]

    def count(self, rounds: int) -> int:
        """Number of flips among the next ``rounds`` indicators."""
        self.draws += rounds
        return self._pull(rounds).count(1)

    def take(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array."""
        self.draws += rounds
        return _np.frombuffer(self._pull(rounds), dtype=_np.uint8)

    def peek(self, rounds: int) -> "_np.ndarray":
        """The next ``rounds`` indicators as a uint8 array, not consumed."""
        channel = self._channel
        self._peeked = (rounds, channel._rng.getstate(), dict(vars(channel)))
        return _np.frombuffer(self._pull(rounds), dtype=_np.uint8)

    def commit(self, rounds: int) -> None:
        """Consume the first ``rounds`` indicators of the last
        :meth:`peek`."""
        self.draws += rounds
        peeked, state, attributes = self._peeked
        if rounds < peeked:
            # The peek read past what was used: rewind the channel and
            # redo exactly the committed draws.
            channel = self._channel
            vars(channel).update(attributes)
            channel._rng.setstate(state)
            self._pull(rounds)


class BatchFlips:
    """Batched flip prefetch: one :class:`FlipStream` per trial, each
    holding its first ``columns`` indicators as 0/1 bytes.

    Draws beyond the prefetch continue seamlessly from each row's
    transferred generator state.

    Args:
        rngs: One ``random.Random`` per trial (the channels' generators).
        epsilon: Shared flip probability.
    """

    #: Indicators prefetched per trial.
    columns = 4096

    def __init__(self, rngs: "list[random.Random]", epsilon: float) -> None:
        self._streams = [FlipStream(rng, epsilon) for rng in rngs]
        for stream in self._streams:
            stream._refill(self.columns)

    def __len__(self) -> int:
        return len(self._streams)

    def stream(self, index: int) -> FlipStream:
        """Trial ``index``'s flip stream, starting at its first indicator."""
        return self._streams[index]


#: What the collapsed schemes draw flip indicators from.
FlipSource = Union[FlipStream, ChannelFlips]
