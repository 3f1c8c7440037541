"""Abstract block code interface.

A block code here is simply an injective map from a finite symbol set
``{0, ..., num_symbols-1}`` to binary codewords of a fixed length.  Decoders
live separately (:mod:`repro.coding.ml`) because the right decoding rule
depends on the channel, not on the code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as _np

from repro.errors import CodingError, ConfigurationError
from repro.util.bits import BitWord, hamming_distance

__all__ = ["BlockCode"]


class BlockCode(ABC):
    """An injective map ``{0..num_symbols-1} -> {0,1}^codeword_length``."""

    def __init__(self, num_symbols: int, codeword_length: int) -> None:
        if num_symbols < 1:
            raise ConfigurationError(
                f"a code needs at least one symbol, got {num_symbols}"
            )
        if codeword_length < 1:
            raise ConfigurationError(
                f"codeword length must be positive, got {codeword_length}"
            )
        self.num_symbols = num_symbols
        self.codeword_length = codeword_length

    @abstractmethod
    def encode(self, symbol: int) -> BitWord:
        """The codeword of ``symbol``; raises on out-of-range symbols."""

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self.num_symbols:
            raise CodingError(
                f"symbol {symbol} out of range [0, {self.num_symbols})"
            )

    @cached_property
    def codewords(self) -> tuple[BitWord, ...]:
        """All codewords, indexed by symbol."""
        return tuple(self.encode(symbol) for symbol in range(self.num_symbols))

    @cached_property
    def codebook(self) -> "_np.ndarray":
        """All codewords as a read-only (num_symbols, codeword_length)
        uint8 matrix, one byte per position: the decoders' operand."""
        return _np.frombuffer(
            b"".join(bytes(word) for word in self.codewords), dtype=_np.uint8
        ).reshape(self.num_symbols, self.codeword_length)

    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance (O(num_symbols²) scan)."""
        words = self.codewords
        if len(words) < 2:
            return self.codeword_length
        best = self.codeword_length
        for index_a in range(len(words)):
            for index_b in range(index_a + 1, len(words)):
                distance = hamming_distance(words[index_a], words[index_b])
                if distance < best:
                    best = distance
        return best

    @property
    def rate(self) -> float:
        """Information rate in bits per channel use."""
        import math

        return math.log2(self.num_symbols) / self.codeword_length

    def validate_injective(self) -> None:
        """Raise :class:`CodingError` if two symbols share a codeword."""
        seen: dict[BitWord, int] = {}
        for symbol, word in enumerate(self.codewords):
            if word in seen:
                raise CodingError(
                    f"symbols {seen[word]} and {symbol} share a codeword"
                )
            seen[word] = symbol
