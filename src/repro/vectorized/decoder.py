"""Vectorized ML decoding over byte-per-position words.

One decode of the scalar :class:`~repro.coding.ml.MLDecoder` is a Python
loop over the codebook; here a whole matrix of received words is scored
against the whole codebook with one BLAS product and a handful of numpy
expressions.  :meth:`VectorizedMLDecoder.decode_batch` is the hot path:
the collapsed owners phase decodes each speculated segment of codewords
with one call per cache-sized block of rows.  The point of this module is
not just speed but *bitwise* agreement with the scalar decoder, argued
term by term:

* the agreement counts ``n11/n10/n01/n00`` are exact integers (≤ the
  codeword length), so the float64 product ``received @ codebookᵀ``
  computes ``n11`` exactly, whatever the BLAS summation order;
* the score ``n11·w11 + (weight−n11)·w10 + (ones−n11)·w01
  + (L−weight−ones+n11)·w00`` folds left-to-right in numpy's elementwise
  evaluation exactly as in the scalar inlined loop, so every IEEE
  rounding step matches;
* a ``-inf`` weight (a transition the noise law forbids) enters the same
  fold as a mask, ``-inf`` where its count is positive and ``0.0``
  elsewhere, avoiding ``0 · -inf = nan``; the scalar guarded ``_score``
  skips zero counts instead, and adding ``±0.0`` to a partial sum changes
  at most the sign of a zero score, which no comparison sees;
* ``argmax`` returns the *first* maximum — the scalar strict-``>``
  tie-break — and the min-distance fallback's ``argmin`` likewise matches
  the scalar strict-``<`` first-minimum.

The property suite (``tests/property/test_properties_vectorized.py``)
pins the agreement on random codebooks, noise models and received words,
including the forbidden-transition and all-``-inf`` fallback regimes.
"""

from __future__ import annotations

import math

import numpy as _np

from repro.coding.code import BlockCode
from repro.core.formal import NoiseModel
from repro.errors import DecodingError

__all__ = ["VectorizedMLDecoder"]

_NEG_INF = float("-inf")


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else _NEG_INF


def _term(counts: "_np.ndarray", weight: float) -> "_np.ndarray":
    """One summand of the score: ``counts · weight``, or for a forbidden
    transition ``-inf`` where it occurs and ``0.0`` where it does not."""
    if weight == _NEG_INF:
        return _np.where(counts > 0, _NEG_INF, 0.0)
    return counts * weight


class VectorizedMLDecoder:
    """Maximum-likelihood decoding of whole codebooks via numpy.

    Drop-in semantic equivalent of :class:`repro.coding.ml.MLDecoder`
    (same symbols, same ties, same fallback), scoring all codewords at
    once.  The codebook is held as a byte-per-position uint8 matrix — the
    same mask layout the scalar decoder packs into integers — and as its
    float64 transpose, the BLAS operand of the agreement counts.
    """

    def __init__(self, code: BlockCode, noise: NoiseModel) -> None:
        self.code = code
        self.noise = noise
        self._length = code.codeword_length
        self._codebook = _np.array(
            [code.encode(symbol) for symbol in range(code.num_symbols)],
            dtype=_np.uint8,
        )
        self._codebook_t = self._codebook.T.astype(_np.float64)
        self._mask_weights = self._codebook.sum(axis=1, dtype=_np.int64)
        # weights[sent][received] = log Pr[receive | sent], as in MLDecoder.
        self._weights = [
            [
                _log(noise.round_probability(sent, received))
                for received in (0, 1)
            ]
            for sent in (0, 1)
        ]

    def decode(self, received: "_np.ndarray") -> int:
        """The ML symbol for one received word (uint8 bits)."""
        if len(received) != self._length:
            raise DecodingError(
                f"received word has length {len(received)}, codewords have "
                f"length {self._length}"
            )
        return int(self.decode_batch(received[_np.newaxis, :])[0])

    def decode_batch(self, received: "_np.ndarray") -> "_np.ndarray":
        """The ML symbol of every row of a (words, length) uint8 matrix;
        row-wise equal to the scalar decoder (the property suite pins
        this)."""
        if received.ndim != 2 or received.shape[1] != self._length:
            raise DecodingError(
                f"expected a (words, {self._length}) matrix, got shape "
                f"{received.shape}"
            )
        n11 = received.astype(_np.float64) @ self._codebook_t
        ones = received.sum(axis=1, dtype=_np.int64)[:, _np.newaxis]
        weights = self._mask_weights
        (w00, w01), (w10, w11) = self._weights
        scores = (
            _term(n11, w11)
            + _term(weights - n11, w10)
            + _term(ones - n11, w01)
            + _term(self._length - weights - ones + n11, w00)
        )
        best = _np.argmax(scores, axis=1)
        dead = scores[_np.arange(len(best)), best] == _NEG_INF
        if dead.any():
            # Every codeword forbidden: the scalar decoder falls back to
            # min distance (first minimum), which argmin reproduces.
            distances = _np.count_nonzero(
                self._codebook[_np.newaxis, :, :]
                != received[dead][:, _np.newaxis, :],
                axis=2,
            )
            best[dead] = _np.argmin(distances, axis=1)
        return best
