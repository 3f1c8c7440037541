"""Greedy Gilbert–Varshamov-style random code.

The owners phase needs a code over ``[chunk] ∪ {Next}`` with codewords of
length Θ(log n) whose ML decoding error is polynomially small.  A random
code achieves this: for a codebook of ``s`` words at length
``L = c·log2(s)``, random codewords are pairwise at distance ≈ L/2, and a
greedy filter guarantees a hard floor on the minimum distance (and, when
requested, a floor on codeword *weight*, i.e. distance from the all-zero
"silence" word).

The construction is deterministic given the seed, so every party builds the
identical codebook without communication — exactly the shared-knowledge
assumption of Algorithm 1.
"""

from __future__ import annotations

import math
import random

import numpy as _np

from repro.coding.code import BlockCode
from repro.errors import CodingError, ConfigurationError
from repro.rng import ensure_rng
from repro.util.bits import BitWord

__all__ = ["GreedyRandomCode", "default_code_length"]

_MAX_SAMPLING_ATTEMPTS = 20_000

# Set bits per byte value: the popcount of a packed word, byte by byte
# (``numpy.bitwise_count`` needs numpy 2).
_BYTE_WEIGHTS = _np.array([bin(byte).count("1") for byte in range(256)])


def default_code_length(num_symbols: int, rate_constant: float = 12.0) -> int:
    """The ``c·log n`` codeword length used by the owners phase.

    ``rate_constant`` is the ``c`` of the paper's ``C : ... → {0,1}^{c log n}``;
    12 gives decoding error comfortably below ``n^{-10}``-style targets at
    ε = 1/3 for the instance sizes a simulation can visit.
    """
    if num_symbols < 1:
        raise ConfigurationError(f"num_symbols must be >= 1, got {num_symbols}")
    bits = max(1.0, math.log2(max(num_symbols, 2)))
    return max(8, math.ceil(rate_constant * bits))


class GreedyRandomCode(BlockCode):
    """Random codewords accepted greedily under distance/weight floors.

    Args:
        num_symbols: Alphabet size.
        codeword_length: Block length; defaults to
            :func:`default_code_length`.
        min_distance_fraction: Floor on pairwise distance as a fraction of
            the length (default 0.35 — comfortably satisfied by random words at
            these codebook sizes, and enough for ML decoding).
        min_weight_fraction: Floor on each codeword's Hamming weight,
            guaranteeing separation from the all-zero silence word.
        include_zero_word: Reserve symbol 0 for the all-zero codeword
            (silence); the weight floor then applies to symbols ≥ 1 only.
        seed: Construction seed (shared by all parties).
    """

    def __init__(
        self,
        num_symbols: int,
        codeword_length: int | None = None,
        *,
        min_distance_fraction: float = 0.35,
        min_weight_fraction: float = 0.30,
        include_zero_word: bool = False,
        seed: int = 0,
    ) -> None:
        length = (
            codeword_length
            if codeword_length is not None
            else default_code_length(num_symbols)
        )
        super().__init__(num_symbols, length)
        if not 0.0 <= min_distance_fraction <= 0.5:
            raise ConfigurationError(
                "min_distance_fraction must be in [0, 0.5], got "
                f"{min_distance_fraction}"
            )
        if not 0.0 <= min_weight_fraction <= 0.5:
            raise ConfigurationError(
                "min_weight_fraction must be in [0, 0.5], got "
                f"{min_weight_fraction}"
            )
        self.min_distance_floor = math.ceil(min_distance_fraction * length)
        self.min_weight_floor = math.ceil(min_weight_fraction * length)
        self.include_zero_word = include_zero_word
        self._codewords = self._construct(ensure_rng(seed))

    def _construct(self, rng: random.Random) -> tuple[BitWord, ...]:
        length = self.codeword_length
        # The accepted words, 8 positions per byte: one XOR-popcount over
        # this matrix is a candidate's distance to every accepted word.
        accepted = _np.zeros(
            (self.num_symbols, (length + 7) // 8), dtype=_np.uint8
        )
        words: list[BitWord] = []
        if self.include_zero_word:
            words.append((0,) * length)
        attempts = 0
        while len(words) < self.num_symbols:
            attempts += 1
            if attempts > _MAX_SAMPLING_ATTEMPTS:
                raise CodingError(
                    "could not construct the codebook: length "
                    f"{self.codeword_length} too short for "
                    f"{self.num_symbols} symbols at distance floor "
                    f"{self.min_distance_floor}; increase the length or "
                    "lower the floors"
                )
            # ``length`` calls of ``getrandbits(1)``: each is the top bit
            # of the next 32-bit output, and ``getrandbits(32 * length)``
            # returns those outputs in order, first least significant.
            raw = rng.getrandbits(32 * length).to_bytes(4 * length, "little")
            bits = (_np.frombuffer(raw, dtype="<u4") >> 31).astype(_np.uint8)
            if bits.sum() < self.min_weight_floor:
                continue
            packed = _np.packbits(bits)
            count = len(words)
            if count and (
                _BYTE_WEIGHTS[accepted[:count] ^ packed].sum(axis=1).min()
                < self.min_distance_floor
            ):
                continue
            accepted[count] = packed
            words.append(tuple(bits.tolist()))
        return tuple(words)

    def encode(self, symbol: int) -> BitWord:
        self._check_symbol(symbol)
        return self._codewords[symbol]
