"""Transient-memory bounds of the two layers that scale with a network
point: flip generation and the topology build.

Both stream through fixed-size blocks, so their scratch stays a small
multiple of what they return.  Peaks are read with :mod:`tracemalloc`,
which also sees numpy's array buffers.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np

from repro.network import TOPOLOGIES
from repro.vectorized import FlipStream
from repro.vectorized.noise import _GENERATION_BLOCK


def _traced_peak(call):
    """``(result, peak bytes allocated during call)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def test_flipstream_take_holds_one_byte_per_indicator():
    """``take(N)`` peaks under ``2·N`` bytes plus one generation block of
    float64 uniforms (float64 draws and their copies: ~20·N)."""
    count = 1 << 22
    stream = FlipStream(random.Random(11), 0.05)
    flips, peak = _traced_peak(lambda: stream.take(count))
    assert flips.size == count
    assert peak < 2 * count + 8 * _GENERATION_BLOCK


def _kept_bytes(topology):
    """Bytes of the CSR arrays a :class:`Topology` holds (shared ones
    once)."""
    arrays = {
        id(arr): arr
        for arr in (
            topology._in_indptr,
            topology._in_indices,
            topology._out_indptr,
            topology._out_indices,
            *topology.csr_arrays(),
        )
    }
    return sum(
        arr.nbytes if isinstance(arr, np.ndarray) else arr.itemsize * len(arr)
        for arr in arrays.values()
    )


def test_geometric_build_peaks_under_three_times_what_it_keeps():
    """The 10^5-node ``geometric:radius=0.005046`` build (the network
    benchmark's point) frees its candidate and point arrays before the
    CSR step and writes its arcs as one key array."""
    topology, peak = _traced_peak(
        lambda: TOPOLOGIES["geometric"].builder(
            n=100000, radius=0.005046, seed=0
        )
    )
    assert peak < 3 * _kept_bytes(topology)
