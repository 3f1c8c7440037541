"""Transient-memory bounds of the layers that scale with a network
point: flip generation, the topology build and the kernel step.

Each streams through fixed-size blocks, so its scratch stays a small
multiple of what it returns or keeps.  Peaks are read with
:mod:`tracemalloc`, which also sees numpy's array buffers.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.network import TOPOLOGIES, TopologySpec
from repro.vectorized import FlipStream
from repro.vectorized.network import _OR_BLOCK_BYTES, NetworkBatchKernel
from repro.vectorized.noise import _GENERATION_BLOCK

#: The network benchmark's 10^5-node point (mean degree ~8).
_LARGE = {"n": 100000, "radius": 0.005046, "seed": 0}


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
    """Bytes of the numpy CSR a :class:`Topology` keeps (shared arrays
    once)."""
    arrays = {id(arr): arr for arr in topology.csr_arrays()}
    return sum(arr.nbytes for arr in arrays.values())


def _held_arrays(topology) -> list:
    """The ``array('l')`` objects ``topology`` references (directly or
    in a tuple)."""
    held = []
    for value in gc.get_referents(topology):
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, array):
                held.append(item)
    return held


def test_topology_holds_no_scalar_mirrors_until_a_scalar_read():
    """A generator's graph keeps its numpy CSR only; the first scalar
    accessor builds the ``array('l')`` copies once."""
    topology = TOPOLOGIES["geometric"].builder(n=500, radius=0.08, seed=1)
    assert _held_arrays(topology) == []
    neighbors = topology.in_neighbors(7)
    held = _held_arrays(topology)
    assert held and all(arr.typecode == "l" for arr in held)
    in_ptr, in_idx, _, _ = topology.csr_arrays()
    assert neighbors == tuple(in_idx[in_ptr[7] : in_ptr[8]].tolist())
    assert topology.out_degree(7) == len(neighbors)
    assert _held_arrays(topology) == held


def test_geometric_build_peaks_under_three_times_what_it_keeps():
    """The 10^5-node ``geometric:radius=0.005046`` build (the network
    benchmark's point) against the numpy CSR it keeps: the candidates
    come in point blocks, the node ids as int32, and the CSR is written
    compact straight from the sorted keys."""
    topology, peak = _traced_peak(
        lambda: TOPOLOGIES["geometric"].builder(**_LARGE)
    )
    assert peak < 3 * _kept_bytes(topology)


@pytest.mark.parametrize("trials", [4, 64])
def test_dense_step_peaks_under_the_batch_plus_a_few_blocks(trials):
    """A dense round (half the nodes beeping, as in one neighbor-OR
    round) on the 10^5-node graph holds one masked copy of the batch,
    ``n·trials`` bytes, and a few blocks: no edge-sized buffer, also when
    ``active`` lists every row."""
    topology = TopologySpec.of("geometric", **_LARGE).build()  # memoized
    n = topology.n
    kernel = NetworkBatchKernel(topology, trials)
    rng = np.random.default_rng(trials)
    B = (rng.random((n, trials)) < 0.5).astype(np.uint8)
    B[rng.random(n) < 0.5] = 0
    active = np.arange(n)
    (heard, touched), peak = _traced_peak(lambda: kernel.step(B, active))
    assert peak < n * trials + 4 * _OR_BLOCK_BYTES
    assert touched is None
    # Spot-check the OR itself on a few rows.
    in_ptr, in_idx, _, _ = topology.csr_arrays()
    for node in range(0, n, 9973):
        expected = np.zeros(trials, dtype=np.uint8)
        for source in in_idx[in_ptr[node] : in_ptr[node + 1]]:
            expected |= B[source]
        assert np.array_equal(heard[node], expected)
