"""Property-based tests of the vectorized backend's building blocks.

The collapsed simulations rest on three representational claims, each
checked here over randomized instances:

1. **Packing** — ``pack_rows``/``unpack_rows`` round-trip the trial×round
   bit-matrix, popcounts survive packing, and ``mask_int`` produces the
   scalar ML decoder's exact integer-mask packing (byte per position,
   big-endian).
2. **Noise streams** — a :class:`FlipStream` (and every row of a
   :class:`BatchFlips` prefetch) serves the same flip indicators, in the
   same draw order, as the scalar channel's ``random()`` comparisons —
   including mid-stream handoff from a partially consumed generator and
   windows longer than a refill block; ``random_block`` is the scalar
   ``random()`` calls in bulk.
3. **Decoding** — :class:`VectorizedMLDecoder` agrees with the scalar
   memoized :class:`MLDecoder` symbol-for-symbol on random codebooks,
   noise models and received words, across the finite-weights fast path,
   the ``-inf``-guarded path, and the min-distance fallback regime.
4. **Channel replay** — the collapsed schemes' windowed channel
   (``window``/``word``/``round``) delivers the bits and statistics of
   the scalar channel's ``transmit_shared``/``transmit_shared_run`` for
   every shared-bit channel family, from standalone and prefetched flip
   sources alike.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    BurstNoiseChannel,
    CorrelatedNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.coding import GreedyRandomCode, MLDecoder
from repro.coding.ml import _word_to_int
from repro.core.formal import NoiseModel
from repro.vectorized import (
    BatchFlips,
    FlipStream,
    VectorizedMLDecoder,
    bits_from_mask,
    flip_sources,
    mask_int,
    numpy_stream,
    pack_rows,
    popcount_rows,
    unpack_rows,
)
from repro.vectorized.noise import _FLIP_BLOCK, random_block
from repro.vectorized.schemes import _shared_channel

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ----------------------------------------------------------------------
# 1. Packed bit-matrices
# ----------------------------------------------------------------------


@given(seed=seeds, rows=st.integers(1, 7), columns=st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_pack_unpack_round_trip(seed, rows, columns):
    rng = np.random.RandomState(seed)
    bits = (rng.random_sample((rows, columns)) < 0.4).astype(np.uint8)
    packed = pack_rows(bits)
    assert packed.shape == (rows, -(-columns // 8))
    assert (unpack_rows(packed, columns) == bits).all()
    assert (popcount_rows(packed) == bits.sum(axis=1)).all()


@given(seed=seeds, length=st.integers(1, 48))
@settings(max_examples=60, deadline=None)
def test_mask_int_matches_scalar_word_packing(seed, length):
    rng = np.random.RandomState(seed)
    bits = (rng.random_sample(length) < 0.5).astype(np.uint8)
    mask = mask_int(bits)
    assert mask == _word_to_int([int(bit) for bit in bits])
    assert (bits_from_mask(mask, length) == bits).all()


# ----------------------------------------------------------------------
# 2. Noise streams vs scalar channels
# ----------------------------------------------------------------------


@given(seed=seeds, draws=st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_numpy_stream_continues_random_random(seed, draws):
    scalar = random.Random(seed)
    scalar.random()  # consume mid-stream before the transfer
    stream = numpy_stream(scalar)
    expected = [scalar.random() for _ in range(draws)]
    assert list(stream.random_sample(draws)) == expected


@given(
    seed=seeds,
    epsilon=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    pattern=st.lists(st.integers(0, 1), min_size=1, max_size=120),
)
@settings(max_examples=60, deadline=None)
def test_flipstream_matches_correlated_channel(seed, epsilon, pattern):
    """Round for round, FlipStream-reconstructed delivery equals the
    scalar correlated channel's (which draws every round)."""
    channel = CorrelatedNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(channel._rng, epsilon)
    for or_value in pattern:
        expected = channel.transmit_shared(or_value, beeps=or_value)
        assert (or_value ^ flips.take1()) == expected


@given(seed=seeds, pattern=st.lists(st.integers(0, 1), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_flipstream_matches_one_sided_and_suppression(seed, pattern):
    """The conditional-draw channels (one-sided: silent rounds only,
    suppression: beeping rounds only) consume the same stream."""
    epsilon = 0.3
    one_sided = OneSidedNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(one_sided._rng, epsilon)
    for or_value in pattern:
        expected = one_sided.transmit_shared(or_value, beeps=or_value)
        got = 1 if or_value else flips.take1()
        assert got == expected

    suppression = SuppressionNoiseChannel(epsilon, rng=seed)
    flips = FlipStream(suppression._rng, epsilon)
    for or_value in pattern:
        expected = suppression.transmit_shared(or_value, beeps=or_value)
        got = (0 if flips.take1() else 1) if or_value else 0
        assert got == expected


@given(seed=seeds, trials=st.integers(1, 6), columns=st.integers(0, 70))
@settings(max_examples=40, deadline=None)
def test_batchflips_rows_match_per_trial_streams(seed, trials, columns):
    """Every row of a batched prefetch serves the identical indicator
    sequence as a freshly transferred per-trial FlipStream — across the
    prefetch boundary."""
    epsilon = 0.25
    total = columns + 13  # cross the prefetch boundary
    rngs = [random.Random(seed + index) for index in range(trials)]
    batch = BatchFlips(rngs, epsilon, columns=columns)
    for index in range(trials):
        reference = FlipStream(random.Random(seed + index), epsilon)
        row = batch.stream(index)
        for _ in range(total):
            assert row.take1() == reference.take1()


@given(seed=seeds, chunks=st.lists(st.integers(1, 40), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_flipstream_access_patterns_agree(seed, chunks):
    """take1 / count / take are three views of one stream: consuming the
    same windows through any of them yields consistent indicators."""
    epsilon = 0.35
    reference = FlipStream(random.Random(seed), epsilon)
    counted = FlipStream(random.Random(seed), epsilon)
    taken = FlipStream(random.Random(seed), epsilon)
    for rounds in chunks:
        singles = [reference.take1() for _ in range(rounds)]
        assert counted.count(rounds) == sum(singles)
        assert list(taken.take(rounds)) == singles


@given(
    seed=seeds,
    columns=st.integers(0, 2 * _FLIP_BLOCK),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["take", "take1", "count"]),
            st.integers(0, 3 * _FLIP_BLOCK),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_flipstream_long_windows_match_scalar_draws(seed, columns, calls):
    """``take``/``take1``/``count`` interleaved from a prefetched row —
    windows crossing the prefetch edge and spanning several refill
    blocks — serve exactly ``[r.random() < eps, ...]`` in order."""
    epsilon = 0.3
    stream = BatchFlips([random.Random(seed)], epsilon, columns=columns).stream(0)
    scalar = random.Random(seed)
    for name, size in calls:
        if name == "take1":
            assert stream.take1() == int(scalar.random() < epsilon)
            continue
        expected = [int(scalar.random() < epsilon) for _ in range(size)]
        if name == "take":
            assert stream.take(size).tolist() == expected
        else:
            assert stream.count(size) == sum(expected)
    consumed = sum(1 if name == "take1" else size for name, size in calls)
    assert stream.draws == consumed


@given(
    seed=seeds,
    warmup=st.integers(0, 700),
    count=st.integers(0, 2000),
    gauss=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_block_is_scalar_random_calls(seed, warmup, count, gauss):
    """A block equals ``count`` scalar ``random()`` calls, from any
    generator position, and leaves the generator (gauss slot included)
    where those calls would."""
    block_rng, scalar = random.Random(seed), random.Random(seed)
    for rng in (block_rng, scalar):
        for _ in range(warmup):
            rng.random()
        if gauss:
            rng.gauss(0.0, 1.0)
    expected = [scalar.random() for _ in range(count)]
    assert random_block(block_rng, count).tolist() == expected
    assert block_rng.getstate() == scalar.getstate()


# ----------------------------------------------------------------------
# 3. Vectorized ML decode vs the scalar memoized decoder
# ----------------------------------------------------------------------


def _random_word(rng, length):
    return [rng.randint(0, 1) for _ in range(length)]


@given(
    seed=seeds,
    num_symbols=st.integers(2, 12),
    up=st.sampled_from([0.0, 0.05, 0.2, 0.45]),
    down=st.sampled_from([0.0, 0.05, 0.2, 0.45]),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_decode_matches_scalar(seed, num_symbols, up, down):
    """Symbol-for-symbol agreement on random received words, covering the
    finite path (up, down > 0), the guarded path (a zero probability
    makes some transitions forbidden) and the min-distance fallback
    (words forbidden under every codeword)."""
    code = GreedyRandomCode(num_symbols, 24, seed=seed)
    noise = NoiseModel(up=up, down=down)
    scalar = MLDecoder(code, noise)
    vectorized = VectorizedMLDecoder(code, noise)
    rng = random.Random(seed ^ 0xABCDEF)
    words = [_random_word(rng, code.codeword_length) for _ in range(20)]
    # Include every codeword and near-codewords (single-bit corruptions).
    for symbol in range(num_symbols):
        word = list(code.encode(symbol))
        words.append(word)
        corrupted = list(word)
        corrupted[rng.randrange(len(word))] ^= 1
        words.append(corrupted)
    for word in words:
        expected = scalar.decode(tuple(word))
        array = np.array(word, dtype=np.uint8)
        assert vectorized.decode(array) == expected
        # Memoized second decode agrees too.
        assert vectorized.decode(array) == expected
    matrix = np.array(words, dtype=np.uint8)
    assert list(vectorized.decode_batch(matrix)) == [
        scalar.decode(tuple(word)) for word in words
    ]


# ----------------------------------------------------------------------
# 4. Collapsed channel replay vs the scalar shared-bit delivery
# ----------------------------------------------------------------------

#: Every shared-bit channel family the collapsed schemes replay, built
#: from ``(epsilon, seed)``.
REPLAY_CHANNELS = {
    "noiseless": lambda epsilon, seed: NoiselessChannel(rng=seed),
    "correlated": CorrelatedNoiseChannel,
    "one-sided": OneSidedNoiseChannel,
    "suppression": SuppressionNoiseChannel,
    "burst": lambda epsilon, seed: BurstNoiseChannel(
        epsilon, 0.5, 0.2, 0.3, rng=seed
    ),
}

replay_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("window"),
            st.integers(0, 1),
            st.integers(1, 3),
            st.integers(1, 40),
        ),
        st.tuples(
            st.just("word"), st.lists(st.integers(0, 1), min_size=1, max_size=40)
        ),
        st.tuples(st.just("round"), st.integers(0, 1), st.integers(1, 3)),
    ),
    max_size=25,
)


@given(
    family=st.sampled_from(sorted(REPLAY_CHANNELS)),
    seed=seeds,
    epsilon=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    prefetch=st.sampled_from([None, 0, 7, 64]),
    ops=replay_ops,
)
@settings(max_examples=150, deadline=None)
def test_shared_channel_replays_scalar_delivery(
    family, seed, epsilon, prefetch, ops
):
    """Random ``window``/``word``/``round`` sequences on the collapsed
    channel give the received bits and :class:`ChannelStats` of the
    scalar ``transmit_shared_run``/``transmit_shared`` calls on a
    same-seed channel.  Standalone flips (``prefetch=None``) pull from
    the replayed channel itself, which must end where the scalar channel
    does; a :class:`BatchFlips` prefetch of any width serves the same
    flips."""
    make = REPLAY_CHANNELS[family]
    channel, scalar = make(epsilon, seed), make(epsilon, seed)
    flips = (
        None
        if prefetch is None
        else flip_sources([channel], prefetch=prefetch)[0]
    )
    shared = _shared_channel(channel, flips)
    for op in ops:
        if op[0] == "window":
            _, or_value, beeps, rounds = op
            beeps *= or_value
            received = scalar.transmit_shared_run(or_value, beeps, rounds)
            assert shared.window(or_value, beeps, rounds) == received.count(1)
        elif op[0] == "word":
            bits = np.array(op[1], dtype=np.uint8)
            expected = [scalar.transmit_shared(bit, bit) for bit in op[1]]
            received = shared.word(bits, int(bits.sum()))
            assert [int(bit) for bit in received] == expected
        else:
            _, or_value, beeps = op
            beeps *= or_value
            expected = scalar.transmit_shared(or_value, beeps)
            assert shared.round(or_value, beeps) == expected
    assert shared.stats == scalar.stats
    if prefetch is None:
        assert channel._rng.getstate() == scalar._rng.getstate()
        assert channel._noise_pos == scalar._noise_pos
