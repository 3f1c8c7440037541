"""Packed trial×round bit-matrices and byte-per-position mask helpers.

Two packings coexist in this repository and this module converts between
them and plain 0/1 arrays:

* **bit-per-position** (``numpy.packbits`` rows) — the storage layout of
  the vectorized backend's batched noise prefetch
  (:class:`~repro.vectorized.noise.BatchFlips`): each row is one trial's
  draw stream, eight draws per byte.
* **byte-per-position** — the hot-path mask layout introduced by the
  scalar ML decoder (``repro.coding.ml._word_to_int`` packs a word with
  ``bytes(word)``, one byte per position, big-endian).  A uint8 array's
  ``tobytes()`` is exactly that packing, so vectorized received words and
  scalar integer masks address the same memo space;
  :func:`mask_int` / :func:`bits_from_mask` are the bridge, pinned
  against the scalar decoder by the property suite.
"""

from __future__ import annotations

import numpy as _np

from repro.errors import ConfigurationError

__all__ = [
    "pack_rows",
    "unpack_rows",
    "mask_int",
    "bits_from_mask",
    "popcount_rows",
]


def pack_rows(bits: "_np.ndarray") -> "_np.ndarray":
    """Pack a (rows, columns) 0/1 uint8 matrix bitwise along each row.

    Row ``i`` of the result is ``numpy.packbits(bits[i])``: eight columns
    per byte, most-significant bit first, zero-padded to a whole byte.
    """
    if bits.ndim != 2:
        raise ConfigurationError(
            f"pack_rows expects a 2-D matrix, got shape {bits.shape}"
        )
    return _np.packbits(bits, axis=1)


def unpack_rows(packed: "_np.ndarray", columns: int) -> "_np.ndarray":
    """Invert :func:`pack_rows`, trimming the zero padding to ``columns``."""
    if packed.ndim != 2:
        raise ConfigurationError(
            f"unpack_rows expects a 2-D matrix, got shape {packed.shape}"
        )
    if columns > packed.shape[1] * 8:
        raise ConfigurationError(
            f"cannot unpack {columns} columns from {packed.shape[1]} bytes"
        )
    return _np.unpackbits(packed, axis=1)[:, :columns]


def mask_int(bits: "_np.ndarray") -> int:
    """The scalar decoder's integer mask for a 0/1 word.

    Equals ``repro.coding.ml._word_to_int(bits)``: one byte per position,
    big-endian — a uint8 array's ``tobytes()`` is already that layout.
    """
    return int.from_bytes(bits.tobytes(), "big")


def bits_from_mask(mask: int, length: int) -> "_np.ndarray":
    """Invert :func:`mask_int` for a word of ``length`` positions."""
    return _np.frombuffer(
        mask.to_bytes(length, "big"), dtype=_np.uint8
    ).copy()


def popcount_rows(packed: "_np.ndarray") -> "_np.ndarray":
    """Per-row popcounts of a :func:`pack_rows` matrix (padding is zero)."""
    return _np.bitwise_count(packed).sum(axis=1)
