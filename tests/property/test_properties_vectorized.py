"""Property-based tests of the vectorized backend's building blocks.

The collapsed simulations rest on two representational claims, each
checked here over randomized instances (the decoder they share with the
scalar parties is checked in ``test_properties_coding.py``):

1. **Noise streams** — a :class:`FlipStream` (and every row of a
   :class:`BatchFlips` prefetch) serves the same flip indicators, in the
   same draw order, as the scalar channel's ``random()`` comparisons —
   including mid-stream handoff from a partially consumed generator and
   windows longer than a refill block, and a first block served without
   a numpy stream; ``random_block`` is the scalar ``random()`` calls in
   bulk.
2. **Channel replay** — the collapsed schemes' windowed channel
   (``window``/``words``/``round``) delivers the bits and statistics of
   the scalar channel's ``transmit_shared``/``transmit_shared_run`` for
   every shared-bit channel family, from standalone and runner flip
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
from repro.vectorized import BatchFlips, FlipStream, numpy_stream
from repro.vectorized.noise import (
    _FLIP_BLOCK,
    _GENERATION_BLOCK,
    random_block,
)
from repro.vectorized.schemes import _shared_channel, flip_source

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ----------------------------------------------------------------------
# 1. Noise streams vs scalar channels
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


@given(seed=seeds, trials=st.integers(1, 6), lead=st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_batchflips_rows_match_per_trial_streams(seed, trials, lead):
    """Every row of a batched prefetch serves the identical indicator
    sequence as a freshly transferred per-trial FlipStream — one at a
    time across the prefetch boundary."""
    epsilon = 0.25
    rngs = [random.Random(seed + index) for index in range(trials)]
    batch = BatchFlips(rngs, epsilon)
    head = BatchFlips.columns - lead
    for index in range(trials):
        reference = FlipStream(random.Random(seed + index), epsilon)
        row = batch.stream(index)
        assert row.take(head).tolist() == reference.take(head).tolist()
        for _ in range(lead + 13):  # cross the prefetch boundary
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
    calls=st.lists(
        st.tuples(
            st.sampled_from(["take", "take1", "count"]),
            st.one_of(
                st.integers(0, 3 * _FLIP_BLOCK),
                # Past any unread rest, so one fill spans two blocks.
                st.integers(
                    _GENERATION_BLOCK + _FLIP_BLOCK + 1,
                    _GENERATION_BLOCK + 2 * _FLIP_BLOCK,
                ),
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_flipstream_long_windows_match_scalar_draws(seed, calls):
    """``take``/``take1``/``count`` interleaved from a prefetched row —
    windows crossing the prefetch edge, the switch to the numpy stream
    and the generation blocks of one fill — serve exactly
    ``[r.random() < eps, ...]`` in order."""
    epsilon = 0.3
    stream = BatchFlips([random.Random(seed)], epsilon).stream(0)
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
    epsilon=st.sampled_from([0.1, 0.5]),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["take", "take1", "count"]),
            st.integers(0, _FLIP_BLOCK // 2),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=40, deadline=None)
def test_flipstream_first_block_needs_no_numpy_stream(seed, epsilon, calls):
    """A fresh FlipStream serves its first ``_FLIP_BLOCK`` indicators from
    a copy of the generator, in doubling fills, builds a numpy stream only
    once a read goes past them, and serves ``[r.random() < eps, ...]`` in
    order either way, leaving the generator it was given untouched."""
    rng = random.Random(seed)
    state = rng.getstate()
    stream = FlipStream(rng, epsilon)
    scalar = random.Random(seed)
    for name, size in calls:
        if name == "take1":
            assert stream.take1() == int(scalar.random() < epsilon)
        else:
            expected = [int(scalar.random() < epsilon) for _ in range(size)]
            if name == "take":
                assert stream.take(size).tolist() == expected
            else:
                assert stream.count(size) == sum(expected)
        if stream.draws <= _FLIP_BLOCK:
            assert stream._stream is None
    assert rng.getstate() == state


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
# 2. Collapsed channel replay vs the scalar shared-bit delivery
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
            st.just("words"),
            # One width per op, 1..40 bits: words need not fill bytes or
            # align with the flip source's blocks.
            st.integers(1, 40).flatmap(
                lambda width: st.lists(
                    st.lists(
                        st.integers(0, 1), min_size=width, max_size=width
                    ),
                    min_size=1,
                    max_size=5,
                )
            ),
            st.integers(1, 5),
        ),
        st.tuples(st.just("round"), st.integers(0, 1), st.integers(1, 3)),
    ),
    max_size=25,
)


@given(
    family=st.sampled_from(sorted(REPLAY_CHANNELS)),
    seed=seeds,
    epsilon=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    standalone=st.booleans(),
    ops=replay_ops,
)
@settings(max_examples=150, deadline=None)
def test_shared_channel_replays_scalar_delivery(
    family, seed, epsilon, standalone, ops
):
    """Random ``window``/``words``/``round`` sequences on the collapsed
    channel give the received bits and :class:`ChannelStats` of the
    scalar ``transmit_shared_run``/``transmit_shared`` calls on a
    same-seed channel; a ``words`` peek of several codewords of which
    only a prefix is accepted consumes the draws of that prefix alone.
    Standalone flips pull from the replayed channel itself, which must
    end where the scalar channel does; the runner's
    source (a :class:`FlipStream` over a copy of the channel's
    generator) serves the same flips."""
    make = REPLAY_CHANNELS[family]
    channel, scalar = make(epsilon, seed), make(epsilon, seed)
    flips = None if standalone else flip_source(channel, copy_rng=True)
    shared = _shared_channel(channel, flips)
    for op in ops:
        if op[0] == "window":
            _, or_value, beeps, rounds = op
            beeps *= or_value
            received = scalar.transmit_shared_run(or_value, beeps, rounds)
            assert shared.window(or_value, beeps, rounds) == received.count(1)
        elif op[0] == "words":
            # A peek of several words, of which only a prefix is sent.
            sent = np.array(op[1], dtype=np.uint8)
            rows = min(op[2], len(sent))
            expected = [
                scalar.transmit_shared(bit, bit)
                for word in op[1][:rows]
                for bit in word
            ]
            received = shared.words(sent)
            shared.accept(sent, received, rows)
            assert received[:rows].ravel().tolist() == expected
        else:
            _, or_value, beeps = op
            beeps *= or_value
            expected = scalar.transmit_shared(or_value, beeps)
            assert shared.round(or_value, beeps) == expected
    assert shared.stats == scalar.stats
    if standalone:
        assert channel._rng.getstate() == scalar._rng.getstate()
        assert channel._noise_pos == scalar._noise_pos
