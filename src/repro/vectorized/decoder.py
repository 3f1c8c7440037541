"""Vectorized ML decoding over byte-packed masks.

One decode of the scalar :class:`~repro.coding.ml.MLDecoder` is a Python
loop over the codebook; here the whole codebook is scored with a handful
of numpy expressions.  The point of this module is not just speed but
*bitwise* agreement with the scalar decoder, argued term by term:

* the agreement counts ``n11/n10/n01/n00`` are exact integers (≤ the
  codeword length), representable losslessly in float64;
* the finite-weights score ``n11·w11 + (weight−n11)·w10 + (ones−n11)·w01
  + (L−weight−ones+n11)·w00`` folds left-to-right in numpy's elementwise
  evaluation exactly as in the scalar inlined loop, so every IEEE
  rounding step matches;
* the guarded path adds terms in the scalar ``_score`` order; a zero
  count with a finite weight contributes ``±0.0`` (bitwise harmless —
  scalar partial sums are never ``-0.0``), and ``-inf`` weights are
  applied with a mask instead of a multiply, avoiding ``0 · -inf = nan``;
* ``argmax`` returns the *first* maximum — the scalar strict-``>``
  tie-break — and the min-distance fallback's ``argmin`` likewise matches
  the scalar strict-``<`` first-minimum;
* received words are memoized under their ``tobytes()`` key, the same
  byte-per-position packing as the scalar mask integers
  (``repro.coding.ml._word_to_int``), with the same ``1 << 16`` cap.

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


class VectorizedMLDecoder:
    """Maximum-likelihood decoding of whole codebooks via numpy.

    Drop-in semantic equivalent of :class:`repro.coding.ml.MLDecoder`
    (same symbols, same ties, same fallback), scoring all codewords at
    once.  The codebook is held as a byte-per-position uint8 matrix — the
    same mask layout the scalar decoder packs into integers.
    """

    def __init__(self, code: BlockCode, noise: NoiseModel) -> None:
        self.code = code
        self.noise = noise
        self._length = code.codeword_length
        self._codebook = _np.array(
            [code.encode(symbol) for symbol in range(code.num_symbols)],
            dtype=_np.uint8,
        )
        self._codebook64 = self._codebook.astype(_np.int64)
        self._mask_weights = self._codebook64.sum(axis=1)
        # weights[sent][received] = log Pr[receive | sent], as in MLDecoder.
        self._weights = [
            [
                _log(noise.round_probability(sent, received))
                for received in (0, 1)
            ]
            for sent in (0, 1)
        ]
        self._finite_weights = all(
            term != _NEG_INF for row in self._weights for term in row
        )
        # received bytes (byte-per-position) -> decoded symbol; the same
        # key space as the scalar decoder's integer-mask memo.
        self._decoded: dict[bytes, int] = {}

    def _scores(self, n11: "_np.ndarray", ones: int) -> "_np.ndarray":
        """Log-likelihood of every codeword given the agreement counts."""
        (w00, w01), (w10, w11) = self._weights
        weights = self._mask_weights
        length = self._length
        if self._finite_weights:
            # Same left-to-right fold as the scalar inlined loop.
            return (
                n11 * w11
                + (weights - n11) * w10
                + (ones - n11) * w01
                + (length - weights - ones + n11) * w00
            )
        scores = _np.zeros(len(weights))
        for counts, term in (
            (n11, w11),
            (weights - n11, w10),
            (ones - n11, w01),
            (length - weights - ones + n11, w00),
        ):
            if term == _NEG_INF:
                # Mask instead of multiply: 0 * -inf would be nan, and the
                # scalar _score skips zero counts entirely.
                scores = _np.where(counts > 0, _NEG_INF, scores)
            else:
                scores = scores + counts * term
        return scores

    def decode(self, received: "_np.ndarray") -> int:
        """The ML symbol for a received word (uint8 bits, memoized)."""
        if len(received) != self._length:
            raise DecodingError(
                f"received word has length {len(received)}, codewords have "
                f"length {self._length}"
            )
        key = received.tobytes()
        cached = self._decoded.get(key)
        if cached is not None:
            return cached
        received64 = received.astype(_np.int64)
        n11 = self._codebook64 @ received64
        scores = self._scores(n11, int(received64.sum()))
        best = int(_np.argmax(scores))
        if scores[best] == _NEG_INF:
            # Every codeword forbidden: scalar falls back to min distance
            # (first minimum), which argmin reproduces exactly.
            distances = _np.count_nonzero(
                self._codebook != received, axis=1
            )
            best = int(_np.argmin(distances))
        if len(self._decoded) < 1 << 16:
            self._decoded[key] = best
        return best

    def decode_batch(self, received: "_np.ndarray") -> "_np.ndarray":
        """Decode a (words, length) matrix of received words at once.

        Equivalent to row-wise :meth:`decode` (the property suite pins
        this); used by the test layer and bulk re-decoding, bypassing the
        memo.
        """
        if received.ndim != 2 or received.shape[1] != self._length:
            raise DecodingError(
                f"expected a (words, {self._length}) matrix, got shape "
                f"{received.shape}"
            )
        received64 = received.astype(_np.int64)
        n11 = received64 @ self._codebook64.T  # (words, symbols)
        ones = received64.sum(axis=1)  # (words,)
        (w00, w01), (w10, w11) = self._weights
        weights = self._mask_weights[_np.newaxis, :]
        length = self._length
        ones_col = ones[:, _np.newaxis]
        if self._finite_weights:
            scores = (
                n11 * w11
                + (weights - n11) * w10
                + (ones_col - n11) * w01
                + (length - weights - ones_col + n11) * w00
            )
        else:
            scores = _np.zeros_like(n11, dtype=float)
            for counts, term in (
                (n11, w11),
                (weights - n11, w10),
                (ones_col - n11, w01),
                (length - weights - ones_col + n11, w00),
            ):
                if term == _NEG_INF:
                    scores = _np.where(counts > 0, _NEG_INF, scores)
                else:
                    scores = scores + counts * term
        best = _np.argmax(scores, axis=1)
        dead = scores[_np.arange(len(best)), best] == _NEG_INF
        if dead.any():
            distances = _np.count_nonzero(
                self._codebook[_np.newaxis, :, :]
                != received[dead][:, _np.newaxis, :],
                axis=2,
            )
            best[dead] = _np.argmin(distances, axis=1)
        return best
