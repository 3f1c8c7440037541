"""Channel-aware decoders.

:class:`MLDecoder` implements maximum-likelihood decoding for any correlated
noise model (:class:`~repro.core.formal.NoiseModel`): given per-bit flip
probabilities ``up = Pr[0→1]`` and ``down = Pr[1→0]``, the likelihood of a
codeword factorises over positions, so decoding is a scan over the (small)
codebook maximising the log-likelihood.

For the symmetric BSC (``up == down < 1/2``) this coincides with
minimum-Hamming-distance decoding; for the Z-channels of the one-sided
models it differs crucially: e.g. under 0→1 noise a received 0 *proves* the
sent bit was 0, so codewords with a 1 there are eliminated outright.
:class:`MinDistanceDecoder` is kept as the classic baseline/ablation.

Implementation note: decoding is the hottest loop of the owners phase.
Both decoders score a whole (words × length) uint8 matrix against the
whole codebook (:attr:`~repro.coding.code.BlockCode.codebook`) with one
BLAS product: a word's likelihood needs only the four counts
``n_{sent,received}``, all derivable from ``n11 = |cw & rc|`` —
``n10 = |cw| - n11``, ``n01 = |rc| - n11``,
``n00 = L - |cw| - |rc| + n11``.  ``decode_batch`` is the collapsed owners
phase's call; ``decode`` is a one-row ``decode_batch``, memoized.  The
rules are exact and deterministic:

* the counts are integers ≤ the codeword length, so the float64 product
  ``words @ codebookᵀ`` computes ``n11`` exactly, whatever the BLAS
  summation order;
* the score ``n11·w11 + n10·w10 + n01·w01 + n00·w00`` folds left to right
  in that order, so a word's score is the same IEEE value in every batch;
* a ``-inf`` weight (a transition the noise law forbids) enters the fold
  as a mask, ``-inf`` where its count is positive and ``0.0`` elsewhere,
  avoiding ``0 · -inf = nan``;
* ties go to the smaller symbol: ``argmax`` and ``argmin`` return the
  first extremum.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as _np

from repro.coding.code import BlockCode
from repro.core.formal import NoiseModel
from repro.errors import DecodingError

__all__ = ["MLDecoder", "MinDistanceDecoder"]

_NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else _NEG_INF


def _term(counts: "_np.ndarray", weight: float) -> "_np.ndarray":
    """One summand of the score: ``counts · weight``, or for a forbidden
    transition ``-inf`` where it occurs and ``0.0`` where it does not."""
    if weight == _NEG_INF:
        return _np.where(counts > 0, _NEG_INF, 0.0)
    return counts * weight


class _CodebookDecoder:
    """The agreement counts and the nearest-codeword rule both decoders
    share."""

    def __init__(self, code: BlockCode) -> None:
        self.code = code
        self._length = code.codeword_length
        self._codebook_t = code.codebook.T.astype(_np.float64)
        self._codeword_weights = code.codebook.sum(axis=1, dtype=_np.int64)

    def _key(self, received: Sequence[int]) -> bytes:
        """``received`` as bytes, one per position (bits in {0, 1}, as
        every encoder and the engine's ``validate_bit`` guarantee)."""
        key = bytes(received)
        if len(key) != self._length:
            raise DecodingError(
                f"received word has length {len(key)}, codewords have "
                f"length {self._length}"
            )
        return key

    def _row(self, received: Sequence[int]) -> "_np.ndarray":
        """One received word as a (1, length) uint8 matrix."""
        return _np.frombuffer(self._key(received), dtype=_np.uint8)[
            _np.newaxis
        ]

    def _agreements(
        self, words: "_np.ndarray"
    ) -> tuple["_np.ndarray", "_np.ndarray"]:
        """``(n11, ones)`` of a (words, length) uint8 matrix: per word and
        codeword the positions where both are 1, and each word's weight
        as a column."""
        if words.ndim != 2 or words.shape[1] != self._length:
            raise DecodingError(
                f"expected a (words, {self._length}) matrix, got shape "
                f"{words.shape}"
            )
        n11 = words.astype(_np.float64) @ self._codebook_t
        return n11, words.sum(axis=1, dtype=_np.int64)[:, _np.newaxis]

    def _nearest(
        self, n11: "_np.ndarray", ones: "_np.ndarray"
    ) -> "_np.ndarray":
        """The nearest codeword of each word (Hamming distance
        ``|cw| + |rc| - 2·n11``), ties to the smaller symbol."""
        return _np.argmin(self._codeword_weights + ones - 2 * n11, axis=1)


class MLDecoder(_CodebookDecoder):
    """Maximum-likelihood decoder for a codebook over a correlated channel.

    Args:
        code: The codebook.
        noise: Flip probabilities of the channel the codewords traverse.
    """

    def __init__(self, code: BlockCode, noise: NoiseModel) -> None:
        super().__init__(code)
        self.noise = noise
        # weights[sent][received] = log Pr[receive | sent]
        self._weights = [
            [
                _log(noise.round_probability(sent, received))
                for received in (0, 1)
            ]
            for sent in (0, 1)
        ]
        # Decoded symbol per received word.  decode() is a pure function
        # of the word, and under correlated noise every party of a round
        # receives the same word, so all but the first of n decodes per
        # owners-phase iteration are dict hits.
        self._decoded: dict[bytes, int] = {}

    def _scores(
        self, n11: "_np.ndarray", ones: "_np.ndarray"
    ) -> "_np.ndarray":
        """The (words × codewords) log-likelihoods, folded left to right."""
        weights = self._codeword_weights
        (w00, w01), (w10, w11) = self._weights
        return (
            _term(n11, w11)
            + _term(weights - n11, w10)
            + _term(ones - n11, w01)
            + _term(self._length - weights - ones + n11, w00)
        )

    def log_likelihood(self, symbol: int, received: Sequence[int]) -> float:
        """log Pr[received | codeword of ``symbol`` was sent]."""
        row = self._row(received)
        if not 0 <= symbol < self.code.num_symbols:
            raise DecodingError(
                f"symbol {symbol} out of range [0, {self.code.num_symbols})"
            )
        return float(self._scores(*self._agreements(row))[0, symbol])

    def decode(self, received: Sequence[int]) -> int:
        """The ML symbol for ``received``: a one-row :meth:`decode_batch`,
        memoized (up to 2¹⁶ distinct words)."""
        key = self._key(received)
        decoded = self._decoded.get(key)
        if decoded is None:
            row = _np.frombuffer(key, dtype=_np.uint8)[_np.newaxis]
            decoded = int(self.decode_batch(row)[0])
            if len(self._decoded) < 1 << 16:
                self._decoded[key] = decoded
        return decoded

    def decode_batch(self, words: "_np.ndarray") -> "_np.ndarray":
        """The ML symbol of every row of a (words, length) uint8 matrix.

        Ties break toward the smaller symbol index (deterministic, so all
        parties of a correlated-noise execution decode identically).  A
        word with likelihood zero under every codeword — possible only
        when it was corrupted in a direction the model forbids — decodes
        to its nearest codeword, as :class:`MinDistanceDecoder` would.
        """
        n11, ones = self._agreements(words)
        scores = self._scores(n11, ones)
        best = _np.argmax(scores, axis=1)
        dead = scores[_np.arange(len(best)), best] == _NEG_INF
        if dead.any():
            best[dead] = self._nearest(n11[dead], ones[dead])
        return best


class MinDistanceDecoder(_CodebookDecoder):
    """Classic nearest-codeword decoding (the BSC-optimal rule)."""

    def decode(self, received: Sequence[int]) -> int:
        return int(self.decode_batch(self._row(received))[0])

    def decode_batch(self, words: "_np.ndarray") -> "_np.ndarray":
        """The nearest codeword of every row of a (words, length) uint8
        matrix, ties to the smaller symbol."""
        return self._nearest(*self._agreements(words))
