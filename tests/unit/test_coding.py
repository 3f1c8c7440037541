"""Unit tests for the coding substrate."""

import hashlib

import pytest

from repro.coding import (
    GreedyRandomCode,
    HadamardCode,
    MinDistanceDecoder,
    MLDecoder,
    RepetitionCode,
)
from repro.coding.random_code import default_code_length
from repro.core.formal import NoiseModel
from repro.errors import CodingError, ConfigurationError, DecodingError
from repro.simulation.owners import build_owners_code


class TestRepetitionCode:
    def test_length(self):
        code = RepetitionCode(num_symbols=4, repetitions=3)
        assert code.codeword_length == 2 * 3

    def test_encoding_repeats_bits(self):
        code = RepetitionCode(num_symbols=4, repetitions=2)
        assert code.encode(2) == (1, 1, 0, 0)  # 2 = binary 10

    def test_min_distance_equals_repetitions(self):
        code = RepetitionCode(num_symbols=4, repetitions=5)
        assert code.min_distance() == 5

    def test_injective(self):
        RepetitionCode(num_symbols=8, repetitions=3).validate_injective()

    def test_symbol_range_checked(self):
        code = RepetitionCode(num_symbols=4, repetitions=2)
        with pytest.raises(CodingError):
            code.encode(4)
        with pytest.raises(CodingError):
            code.encode(-1)

    def test_single_symbol_codebook(self):
        code = RepetitionCode(num_symbols=1, repetitions=2)
        assert code.encode(0) == (0, 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RepetitionCode(num_symbols=2, repetitions=0)
        with pytest.raises(ConfigurationError):
            RepetitionCode(num_symbols=0, repetitions=1)


class TestHadamardCode:
    def test_zero_maps_to_all_zero(self):
        code = HadamardCode(num_symbols=8)
        assert code.encode(0) == (0,) * code.codeword_length

    def test_length_is_power_of_two(self):
        code = HadamardCode(num_symbols=5)
        assert code.codeword_length == 8  # 2^ceil(log2 5)

    def test_relative_distance_half(self):
        code = HadamardCode(num_symbols=8)
        assert code.min_distance() == code.codeword_length // 2

    def test_nonzero_weight_exactly_half(self):
        code = HadamardCode(num_symbols=8)
        for symbol in range(1, 8):
            assert sum(code.encode(symbol)) == code.codeword_length // 2

    def test_injective(self):
        HadamardCode(num_symbols=16).validate_injective()


class TestGreedyRandomCode:
    def test_default_length_scales_logarithmically(self):
        assert default_code_length(4) < default_code_length(64)
        assert default_code_length(64) == pytest.approx(
            12 * 6, abs=1
        )

    def test_distance_floor_respected(self):
        code = GreedyRandomCode(10, 40, seed=1)
        assert code.min_distance() >= code.min_distance_floor

    def test_weight_floor_respected(self):
        code = GreedyRandomCode(10, 40, seed=2)
        for symbol in range(10):
            assert sum(code.encode(symbol)) >= code.min_weight_floor

    def test_zero_word_reserved(self):
        code = GreedyRandomCode(10, 40, include_zero_word=True, seed=3)
        assert code.encode(0) == (0,) * 40
        for symbol in range(1, 10):
            assert sum(code.encode(symbol)) >= code.min_weight_floor

    def test_deterministic_given_seed(self):
        a = GreedyRandomCode(8, 32, seed=7)
        b = GreedyRandomCode(8, 32, seed=7)
        assert a.codewords == b.codewords

    def test_seed_changes_codebook(self):
        a = GreedyRandomCode(8, 32, seed=7)
        b = GreedyRandomCode(8, 32, seed=8)
        assert a.codewords != b.codewords

    def test_impossible_parameters_raise(self):
        # 100 codewords of length 4 at distance >= 2 cannot exist.
        with pytest.raises(CodingError):
            GreedyRandomCode(100, 4, min_distance_fraction=0.5, seed=0)

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            GreedyRandomCode(4, 16, min_distance_fraction=0.6)
        with pytest.raises(ConfigurationError):
            GreedyRandomCode(4, 16, min_weight_fraction=-0.1)

    def test_injective(self):
        GreedyRandomCode(20, 64, seed=5).validate_injective()

    @pytest.mark.parametrize(
        "max_positions, digest",
        [
            (16, "b3e680e0b87a3702d72413d981f637e6"),
            (64, "520040483db9cefedf276d937035888a"),
            (128, "85143dc041d37886a7f0b894f648059f"),
            (512, "0e8ad08f66ba0fc9c801ecb7a9e514ff"),
            (1024, "1f6846617896d3aca10edf19c81c3d2d"),
        ],
    )
    def test_owners_codebooks_are_pinned(self, max_positions, digest):
        """Every codeword of the owners codebook, as built from its fixed
        seed by the pure-Python greedy filter (one ``getrandbits(1)`` per
        position, ``hamming_distance`` against each accepted word)."""
        code = build_owners_code(max_positions)
        words = b"".join(
            bytes(code.encode(symbol)) for symbol in range(code.num_symbols)
        )
        assert hashlib.blake2b(words, digest_size=16).hexdigest() == digest

    def test_rate_property(self):
        code = GreedyRandomCode(16, 64, seed=1)
        assert code.rate == pytest.approx(4 / 64)


class TestMLDecoder:
    def test_noiseless_round_trip(self):
        code = GreedyRandomCode(10, 32, seed=0)
        decoder = MLDecoder(code, NoiseModel(up=0.0, down=0.0))
        for symbol in range(10):
            assert decoder.decode(code.encode(symbol)) == symbol

    def test_bsc_corrects_small_errors(self):
        code = GreedyRandomCode(8, 40, seed=1)
        decoder = MLDecoder(code, NoiseModel.two_sided(0.2))
        word = list(code.encode(3))
        word[0] ^= 1
        word[5] ^= 1
        word[11] ^= 1
        assert decoder.decode(word) == 3

    def test_z_channel_eliminates_inconsistent_codewords(self):
        """Under 0->1 noise, a received 0 where a codeword has 1 rules
        that codeword out (ML assigns it likelihood zero)."""
        code = HadamardCode(num_symbols=4)
        decoder = MLDecoder(code, NoiseModel.one_sided(0.4))
        # Send symbol 0 (all-zero word); flip many bits up.
        received = list(code.encode(0))
        received[0] = 1
        decoded = decoder.decode(received)
        # Every symbol whose codeword has a 1 where we received 0 is
        # impossible; the all-zero codeword remains consistent.
        likelihood = decoder.log_likelihood(decoded, received)
        assert likelihood > float("-inf")

    def test_one_sided_true_word_never_inconsistent(self):
        code = GreedyRandomCode(8, 40, seed=2)
        decoder = MLDecoder(code, NoiseModel.one_sided(1.0 / 3.0))
        word = list(code.encode(5))
        # Noise can only add 1s on zero positions.
        for index, bit in enumerate(word):
            if bit == 0 and index % 3 == 0:
                word[index] = 1
        assert decoder.log_likelihood(5, word) > float("-inf")

    def test_length_validation(self):
        code = GreedyRandomCode(4, 16, seed=0)
        decoder = MLDecoder(code, NoiseModel.two_sided(0.1))
        with pytest.raises(DecodingError):
            decoder.decode((0,) * 15)

    def test_ml_beats_min_distance_on_z_channel(self):
        """Construct a case where Hamming decoding errs but channel-aware
        ML decodes correctly on a Z-channel (0->1 flips only)."""
        # Codebook: symbol 0 = 0000, symbol 1 = 1110.
        class _Tiny(GreedyRandomCode):
            def __init__(self):
                pass

        from repro.coding.code import BlockCode

        class _Fixed(BlockCode):
            def __init__(self):
                super().__init__(2, 4)

            def encode(self, symbol):
                self._check_symbol(symbol)
                return (0, 0, 0, 0) if symbol == 0 else (1, 1, 1, 0)

        code = _Fixed()
        received = (1, 1, 0, 0)
        # Hamming: distance 2 from both; min-distance picks symbol 0 by
        # tie-break.  ML on a Z-channel knows symbol 1 is impossible (its
        # third 1 cannot become 0), so symbol 0 is the only choice - they
        # agree here.  Now received (1,1,1,1): symbol 1 needs one 0->1
        # flip; symbol 0 needs four.  ML picks 1.
        decoder = MLDecoder(code, NoiseModel.one_sided(0.2))
        assert decoder.decode(received) == 0
        assert decoder.decode((1, 1, 1, 1)) == 1

    def test_deterministic_tie_break(self):
        code = RepetitionCode(num_symbols=2, repetitions=2)
        decoder = MLDecoder(code, NoiseModel.two_sided(0.3))
        # (1, 0) is equidistant from (0,0) and (1,1): smaller symbol wins.
        assert decoder.decode((1, 0)) == 0


class TestMinDistanceDecoder:
    def test_round_trip(self):
        code = GreedyRandomCode(6, 24, seed=0)
        decoder = MinDistanceDecoder(code)
        for symbol in range(6):
            assert decoder.decode(code.encode(symbol)) == symbol

    def test_corrects_within_half_distance(self):
        code = HadamardCode(num_symbols=8)
        decoder = MinDistanceDecoder(code)
        word = list(code.encode(5))
        flips = code.min_distance() // 2 - 1
        for index in range(max(flips, 0)):
            word[index] ^= 1
        assert decoder.decode(word) == 5

    def test_length_validation(self):
        code = HadamardCode(num_symbols=4)
        decoder = MinDistanceDecoder(code)
        with pytest.raises(DecodingError):
            decoder.decode((1,))


class TestDecodingUnderSimulatedNoise:
    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel.two_sided(0.1),
            NoiseModel.one_sided(1.0 / 3.0),
            NoiseModel.suppression(0.2),
        ],
        ids=["bsc", "z-up", "z-down"],
    )
    def test_high_success_rate(self, model):
        import random

        code = GreedyRandomCode(10, 48, seed=3)
        decoder = MLDecoder(code, model)
        rng = random.Random(0)
        successes = 0
        trials = 200
        for _ in range(trials):
            symbol = rng.randrange(10)
            word = []
            for bit in code.encode(symbol):
                if bit == 1:
                    word.append(0 if rng.random() < model.down else 1)
                else:
                    word.append(1 if rng.random() < model.up else 0)
            if decoder.decode(word) == symbol:
                successes += 1
        assert successes / trials > 0.95
