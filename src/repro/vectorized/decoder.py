"""The name the end-to-end benchmark's tracer wraps for batched decoding.

Decoding lives in :mod:`repro.coding.ml`: one
:class:`~repro.coding.ml.MLDecoder` serves the scalar parties
(``decode``) and the collapsed owners phase (``decode_batch``).
``benchmarks/e2e/tracing.py`` wraps ``decode`` and ``decode_batch`` of
``repro.vectorized.decoder.VectorizedMLDecoder`` by name, so this module
keeps that name as an alias of the one decoder until the harness wraps
:mod:`repro.coding.ml` directly.
"""

from repro.coding.ml import MLDecoder as VectorizedMLDecoder

__all__ = ["VectorizedMLDecoder"]
