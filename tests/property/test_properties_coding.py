"""Property-based tests for the coding layer."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.coding import (
    GreedyRandomCode,
    HadamardCode,
    MLDecoder,
    RepetitionCode,
)
from repro.coding.code import BlockCode
from repro.core.formal import NoiseModel
from repro.util.bits import hamming_distance

NEG_INF = float("-inf")


class _ListCode(BlockCode):
    """A code with the given codewords; repeats allowed, so ties are
    common."""

    def __init__(self, words):
        super().__init__(len(words), len(words[0]))
        self.words = [tuple(word) for word in words]

    def encode(self, symbol):
        self._check_symbol(symbol)
        return self.words[symbol]


def _reference_decode(code, noise, word):
    """``(symbol, scores)`` decoded one codeword at a time: the counts by
    a position loop, the score folded n11, n10, n01, n00 (a forbidden
    transition adds -inf where its count is positive, else 0.0), the
    first maximum, and when every score is -inf the first codeword at
    minimum Hamming distance."""

    def log(p):
        return math.log(p) if p > 0.0 else NEG_INF

    scores = []
    for symbol in range(code.num_symbols):
        counts = {(sent, got): 0 for sent in (0, 1) for got in (0, 1)}
        for sent, got in zip(code.encode(symbol), word):
            counts[sent, got] += 1
        terms = []
        for pair in ((1, 1), (1, 0), (0, 1), (0, 0)):
            weight = log(noise.round_probability(*pair))
            if weight == NEG_INF:
                terms.append(NEG_INF if counts[pair] else 0.0)
            else:
                terms.append(counts[pair] * weight)
        scores.append(terms[0] + terms[1] + terms[2] + terms[3])
    best = scores.index(max(scores))
    if scores[best] == NEG_INF:
        distances = [
            hamming_distance(code.encode(symbol), word)
            for symbol in range(code.num_symbols)
        ]
        best = distances.index(min(distances))
    return best, scores


probabilities = st.sampled_from([0.0, 0.05, 0.2, 0.45])


class TestCodeInvariants:
    @given(
        num_symbols=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30)
    def test_greedy_code_injective_and_floored(self, num_symbols, seed):
        code = GreedyRandomCode(num_symbols, 48, seed=seed)
        code.validate_injective()
        assert code.min_distance() >= code.min_distance_floor

    @given(num_symbols=st.integers(min_value=2, max_value=64))
    def test_hadamard_pairwise_distance_exactly_half(self, num_symbols):
        code = HadamardCode(num_symbols)
        words = code.codewords
        for a in range(min(len(words), 8)):
            for b in range(a + 1, min(len(words), 8)):
                assert (
                    hamming_distance(words[a], words[b])
                    == code.codeword_length // 2
                )

    @given(
        num_symbols=st.integers(min_value=1, max_value=32),
        repetitions=st.integers(min_value=1, max_value=8),
    )
    def test_repetition_code_length_formula(self, num_symbols, repetitions):
        code = RepetitionCode(num_symbols, repetitions)
        assert code.codeword_length == code.width * repetitions


class TestMLDecoderProperties:
    @given(
        data=st.data(),
        length=st.integers(min_value=1, max_value=12),
        num_symbols=st.integers(min_value=1, max_value=8),
        up=probabilities,
        down=probabilities,
    )
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_reference_fold(
        self, data, length, num_symbols, up, down
    ):
        """``decode``, the rows of ``decode_batch`` and ``log_likelihood``
        equal the per-codeword reference on small random codebooks with
        repeated codewords (ties go to the smaller symbol), in the finite
        regime (up, down > 0), with forbidden transitions (a zero
        probability) and in the all--inf min-distance fallback."""
        bits = st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=length,
            max_size=length,
        )
        codewords = st.lists(bits, min_size=num_symbols, max_size=num_symbols)
        code = _ListCode(data.draw(codewords))
        noise = NoiseModel(up=up, down=down)
        words = data.draw(st.lists(bits, min_size=1, max_size=12))
        words += [list(word) for word in code.words]
        decoder = MLDecoder(code, noise)
        expected = [_reference_decode(code, noise, word) for word in words]
        batch = decoder.decode_batch(np.array(words, dtype=np.uint8))
        assert batch.tolist() == [symbol for symbol, _ in expected]
        for word, (symbol, scores) in zip(words, expected):
            assert decoder.decode(word) == symbol
            # Twice: the second call is a memo hit.
            assert decoder.decode(tuple(word)) == symbol
            assert [
                decoder.log_likelihood(index, word)
                for index in range(num_symbols)
            ] == scores

    @given(
        symbol=st.integers(min_value=0, max_value=9),
        up=st.floats(min_value=0.0, max_value=0.45),
        down=st.floats(min_value=0.0, max_value=0.45),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40)
    def test_clean_word_decodes_to_itself(self, symbol, up, down, seed):
        """For up + down < 1 the true codeword strictly maximises the
        likelihood of its own (uncorrupted) reception."""
        code = GreedyRandomCode(10, 40, seed=seed)
        decoder = MLDecoder(code, NoiseModel(up=up, down=down))
        assert decoder.decode(code.encode(symbol)) == symbol

    @given(
        symbol=st.integers(min_value=0, max_value=7),
        flips=st.lists(
            st.integers(min_value=0, max_value=39),
            min_size=0,
            max_size=4,
            unique=True,
        ),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40)
    def test_few_flips_still_decode(self, symbol, flips, seed):
        """Flipping at most 4 of 40 positions stays within half the
        distance floor of the greedy code, so decoding must succeed."""
        code = GreedyRandomCode(8, 40, seed=seed)
        assume(len(flips) * 2 < code.min_distance())
        decoder = MLDecoder(code, NoiseModel.two_sided(0.2))
        word = list(code.encode(symbol))
        for index in flips:
            word[index] ^= 1
        assert decoder.decode(word) == symbol

    @given(
        up=st.floats(min_value=0.01, max_value=0.45),
        down=st.floats(min_value=0.01, max_value=0.45),
    )
    def test_log_likelihood_monotone_in_agreement(self, up, down):
        """More agreement with the codeword means higher likelihood."""
        code = HadamardCode(4)
        decoder = MLDecoder(code, NoiseModel(up=up, down=down))
        word = code.encode(3)
        exact = decoder.log_likelihood(3, word)
        corrupted = list(word)
        corrupted[0] ^= 1
        assert decoder.log_likelihood(3, corrupted) < exact
