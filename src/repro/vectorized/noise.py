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
on that to serve flip indicators in blocks, and :class:`BatchFlips`
prefetches the first ``columns`` indicators of a whole batch of trials as
rows of a packed numpy bit-matrix — the trial×draw layout the vectorized
backend batches over.  :func:`random_block` is for callers that keep
using the ``random.Random`` itself: it draws a block of ``random()``
values through ``getrandbits``, so the generator advances past them.
:class:`ChannelFlips` serves the same three access patterns by pulling
indicators from the channel's own delivery, exactly as many as asked —
for noise whose draws are not one comparison per indicator (the
burst channel's Markov state), and for standalone calls that must leave
the channel where the scalar run would.
"""

from __future__ import annotations

import random
from typing import Callable, Union

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

#: Smallest refill, in flip indicators; purely an amortization knob —
#: the delivered stream is identical for any block size.
_FLIP_BLOCK = 8192


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
    generated in vectorized blocks.  The buffer is a ``bytes`` of 0/1 so
    the three access patterns of the collapsed schemes are all C-speed:
    ``take1`` (one round), ``count`` (popcount of a constant-OR window),
    and ``take`` (a codeword window as a uint8 array).

    Args:
        rng: The channel's generator; its current state is copied.
        epsilon: The channel's flip probability.
        preload: Optional pre-generated prefix of the indicator stream
            (from :class:`BatchFlips`); served before drawing more.
    """

    __slots__ = ("_stream", "_epsilon", "_buffer", "_pos", "draws")

    def __init__(
        self,
        rng: random.Random,
        epsilon: float,
        preload: bytes | None = None,
    ) -> None:
        self._stream = numpy_stream(rng)
        self._epsilon = epsilon
        self._buffer = preload if preload is not None else b""
        self._pos = 0
        #: Indicators consumed so far (draw-order position; test hook).
        self.draws = 0

    def _refill(self, size: int = _FLIP_BLOCK) -> None:
        uniforms = self._stream.random_sample(size)
        self._buffer = (uniforms < self._epsilon).view(_np.uint8).tobytes()
        self._pos = 0

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
        """The next ``rounds`` indicators as a uint8 array (codeword
        windows, whole local-broadcast bursts).

        Serves what is left of the buffer, then refills once with
        everything still missing (at least a block): a long window costs
        one generator call, not one per block.
        """
        pos = self._pos
        ready = min(rounds, len(self._buffer) - pos)
        head = _np.frombuffer(
            self._buffer, dtype=_np.uint8, count=ready, offset=pos
        )
        self._pos = pos + ready
        self.draws += rounds
        missing = rounds - ready
        if not missing:
            return head
        self._refill(max(missing, _FLIP_BLOCK))
        tail = _np.frombuffer(self._buffer, dtype=_np.uint8, count=missing)
        self._pos = missing
        return _np.concatenate((head, tail)) if ready else tail


class ChannelFlips:
    """A flip-indicator stream pulled from a channel, on demand.

    ``pull(k)`` returns the next ``k`` indicators as 0/1 ``bytes`` and
    advances the channel past exactly their draws — e.g.
    ``channel._deliver_shared_run(0, k)`` for an XOR channel, whose
    received bits over a silent run *are* its flips.  Nothing is read
    ahead, so after a collapsed replay the channel's generator, block
    buffer and any noise state are those of the scalar run.  Same
    interface as :class:`FlipStream`.
    """

    __slots__ = ("_pull", "draws")

    def __init__(self, pull: Callable[[int], bytes]) -> None:
        self._pull = pull
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


class BatchFlips:
    """Batched flip prefetch: trials as rows of a packed bit-matrix.

    Generates the first ``columns`` flip indicators of every trial in one
    vectorized pass — one ``random_sample`` per row, one comparison and one
    ``packbits`` for the whole batch — and keeps them packed 8 trials'
    worth of draws per byte.  :meth:`stream` hands each trial a
    :class:`FlipStream` preloaded with its row; draws beyond the prefetch
    continue seamlessly from the row's transferred generator state.

    Args:
        rngs: One ``random.Random`` per trial (the channels' generators).
        epsilon: Shared flip probability.
        columns: Indicators prefetched per trial.
    """

    def __init__(
        self,
        rngs: "list[random.Random]",
        epsilon: float,
        columns: int = 4096,
    ) -> None:
        from repro.vectorized.bitmatrix import pack_rows

        self.epsilon = epsilon
        self.columns = columns
        self._streams = [numpy_stream(rng) for rng in rngs]
        if columns > 0 and self._streams:
            uniforms = _np.empty((len(self._streams), columns))
            for row, stream in enumerate(self._streams):
                uniforms[row] = stream.random_sample(columns)
            bits = (uniforms < epsilon).astype(_np.uint8)
            #: The prefetched trial×draw flip matrix, rows packed.
            self.packed = pack_rows(bits)
        else:
            self.packed = _np.zeros((len(self._streams), 0), dtype=_np.uint8)

    def __len__(self) -> int:
        return len(self._streams)

    def stream(self, index: int) -> FlipStream:
        """Trial ``index``'s flip stream, starting from the packed row."""
        from repro.vectorized.bitmatrix import unpack_rows

        preload: bytes | None = None
        if self.columns > 0:
            row = unpack_rows(
                self.packed[index : index + 1], self.columns
            )[0]
            preload = row.tobytes()
        flip_stream = FlipStream.__new__(FlipStream)
        flip_stream._stream = self._streams[index]
        flip_stream._epsilon = self.epsilon
        flip_stream._buffer = preload if preload is not None else b""
        flip_stream._pos = 0
        flip_stream.draws = 0
        return flip_stream


#: What the collapsed schemes draw flip indicators from.
FlipSource = Union[FlipStream, ChannelFlips]
