"""Graphs in CSR form: :class:`Topology` and the five seeded generators.

The numpy half of the network's topology layer (the plain-data half,
:class:`~repro.network.topology.TopologySpec` and the registry, is
:mod:`repro.network.topology`, which imports this module only when a
spec is built):

* :class:`Topology` — the immutable runtime object: read-only numpy CSR
  neighbor arrays (``int32`` index/pointer pairs, four bytes per arc
  below 2^31 arcs) in both directions, so the channel can iterate a
  beeping node's **out**-neighborhood (who hears me) in O(degree) while
  protocol checkers read **in**-neighborhoods (whom I hear).  The
  ``array('l')`` copies the pure-Python paths iterate are built on first
  scalar use only.  Built once and shared freely: arcs from outside go
  through one constructor (:meth:`Topology.from_edges`), validated once
  (range, no self-loops, sorted/deduped); the generators, whose pairs
  are valid by construction, write both arc keys of each pair into one
  key array and turn it into the CSR in place.
* The generators ``_complete``, ``_ring``, ``_grid``, ``_geometric`` and
  ``_scale_free``, which the :data:`~repro.network.topology.TOPOLOGIES`
  rows name by import path.

Seeded-generator contract
-------------------------

Every generator is a pure function of its declared params: the same
spec (including its ``seed`` param) always yields the same graph —
bit-identical CSR arrays — on every machine and process.  Generators
draw only from a private ``random.Random(seed)``; they never touch
global RNG state, and building a topology consumes no draws from any
channel or trial seed stream.  The geometric family's points are the
first ``2n`` draws of ``Random(seed)``, interleaved x then y (drawn in
one block through :func:`~repro.vectorized.noise.numpy_stream`, which
continues ``Random.random`` bitwise).
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Topology"]


def _long_array(values: np.ndarray) -> array:
    """``values`` as an ``array('l')`` (one copy, no Python ints)."""
    out = array("l")
    out.frombytes(
        np.ascontiguousarray(values, dtype=np.dtype("l")).data.cast("B")
    )
    return out


def _indptr(key: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of sorted row-major keys: row ``i`` starts at the
    first key ``>= i * n``."""
    return np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)


def _arc_keys(n: int, src, dst) -> np.ndarray:
    """The validated arcs ``src[k] -> dst[k]`` as sorted, deduplicated
    row-major keys ``src * n + dst`` (see :meth:`Topology.from_edges`)."""
    if n < 1:
        raise ConfigurationError("a topology needs at least one node")
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise ConfigurationError(
            f"src and dst must be equal-length 1-d arrays, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    outside = (src < 0) | (src >= n)
    if outside.any():
        raise ConfigurationError(
            f"arc source {src[outside][0]} outside [0, {n})"
        )
    bad = (dst < 0) | (dst >= n) | (dst == src)
    if bad.any():
        node = src[bad].min()
        neighbor = dst[bad & (src == node)].min()
        if 0 <= neighbor < n:
            raise ConfigurationError(
                f"node {node} lists itself as a neighbor; use "
                "hear_self=True instead"
            )
        raise ConfigurationError(
            f"node {node} lists out-of-range neighbor {neighbor}"
        )
    # Row-major arc keys: sorting orders each in-list, dedup is a
    # neighbor comparison.
    key = src.astype(np.int64, copy=False) * n
    key += dst.astype(np.int64, copy=False)
    return _sorted_unique(key)


def _sorted_unique(key: np.ndarray) -> np.ndarray:
    """``key`` sorted in place, repeats dropped."""
    key.sort()
    if key.size > 1:
        repeated = key[1:] == key[:-1]
        if repeated.any():
            key = key[np.concatenate(([True], ~repeated))]
    return key


def _index_dtype(n: int, arcs: int):
    """The compact CSR dtype: ``int32`` while ids and offsets fit."""
    return np.int32 if n < 2**31 and arcs < 2**31 else np.int64


def _csr(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The compact ``(indptr, indices)`` CSR of sorted row-major keys.

    Written straight in :func:`_index_dtype` (into ``key`` itself when
    that is int64), so the step holds the keys and the compact CSR only.
    """
    dtype = _index_dtype(n, key.size)
    indptr = _indptr(key, n).astype(dtype, copy=False)
    out = key if key.dtype == dtype else np.empty(key.size, dtype)
    return indptr, np.remainder(key, n, out=out)


def _compact(values: np.ndarray, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array (copied only to convert)."""
    compact = values.astype(dtype, copy=False)
    compact.setflags(write=False)
    return compact


class Topology:
    """An immutable directed graph over nodes ``0..n-1`` in CSR form.

    ``in`` edges follow the adjacency-list convention of
    :class:`~repro.network.channel.NetworkBeepingChannel`:
    ``in_neighbors(i)`` are the nodes whose beeps node ``i`` hears.
    ``out_neighbors(j)`` is the reverse — the nodes that hear ``j`` —
    which is the direction the channel's sparse evaluation walks.

    Construct with :meth:`from_edges` (or :meth:`from_adjacency`, a thin
    wrapper over it); the generators, whose arcs are valid by
    construction, pass their CSR directly.  Instances are
    treated as immutable: the channel, tasks and the spec cache all
    share them.  The numpy CSR (:meth:`csr_arrays`) is the storage;
    :meth:`scalar_csr` adds ``array('l')`` copies on first scalar use.
    """

    __slots__ = ("n", "symmetric", "_csr_cache", "_mirrors")

    def __init__(
        self,
        n: int,
        in_csr: tuple[np.ndarray, np.ndarray],
        out_csr: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """``(indptr, indices)`` pairs; ``out_csr=None`` marks a symmetric
        graph, whose out-CSR is its in-CSR (shared, not copied).  The
        arrays are taken over: an array already of the compact dtype is
        kept, not copied, and made read-only."""
        self.n = n
        #: True when the in- and out-edge sets coincide (undirected graph).
        self.symmetric = out_csr is None
        dtype = _index_dtype(n, len(in_csr[1]))
        in_compact = tuple(_compact(arr, dtype) for arr in in_csr)
        if out_csr is None:
            self._csr_cache = in_compact + in_compact
        else:
            self._csr_cache = in_compact + tuple(
                _compact(arr, dtype) for arr in out_csr
            )
        self._mirrors: tuple[array, ...] | None = None

    @classmethod
    def from_edges(cls, n: int, src, dst) -> "Topology":
        """Build from parallel arc arrays: node ``src[k]`` hears ``dst[k]``.

        Arc ``k`` is the adjacency-list entry ``dst[k] in
        adjacency[src[k]]``.  Arcs may come in any order and repeat; they
        are sorted and deduplicated.  Out-of-range ids and self-loops
        raise :class:`~repro.errors.ConfigurationError` (self-hearing is
        a channel option, not a graph edge), naming the smallest
        offending ``(src, dst)`` pair.
        """
        key = _arc_keys(n, src, dst)
        rows, in_indices = np.divmod(key, n)
        in_csr = (_indptr(key, n), in_indices)
        # The transposed keys, sorted, are the out-CSR in the same
        # row-major form — and equal the keys exactly when every arc has
        # its reverse.
        transposed = in_indices * n + rows
        del rows
        transposed.sort()
        if np.array_equal(transposed, key):
            return cls(n, in_csr)
        return cls(n, in_csr, _csr(transposed, n))

    @classmethod
    def from_adjacency(
        cls, adjacency: Sequence[Iterable[int]]
    ) -> "Topology":
        """Build from adjacency lists (``adjacency[i]`` = whom ``i`` hears).

        Flattens the lists into arcs for :meth:`from_edges`, which sorts,
        deduplicates and validates them.
        """
        n = len(adjacency)
        flat: list[int] = []
        counts: list[int] = []
        for neighbors in adjacency:
            before = len(flat)
            flat.extend(int(j) for j in neighbors)
            counts.append(len(flat) - before)
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        # No dtype: ids beyond int64 become an object array, which still
        # reaches from_edges' range check (and its error message).
        dst = np.array(flat) if flat else np.zeros(0, dtype=np.int64)
        return cls.from_edges(n, src, dst)

    # -- read API --------------------------------------------------------

    @property
    def edges(self) -> int:
        """Directed edge (arc) count."""
        return len(self._csr_cache[1])

    def scalar_csr(self) -> tuple[array, ...]:
        """The CSR as ``array('l')`` ``(in_ptr, in_idx, out_ptr, out_idx)``.

        What the pure-Python paths iterate (the scalar channel's sparse
        walk, the neighbor accessors): python-level indexing of numpy
        integers is measurably slower than of plain ints.  Built from
        :meth:`csr_arrays` on first use and kept, so a graph only the
        numpy paths read never holds these 8-byte-per-entry copies.
        """
        mirrors = self._mirrors
        if mirrors is None:
            in_ptr, in_idx, out_ptr, out_idx = self._csr_cache
            mirrors = (_long_array(in_ptr), _long_array(in_idx))
            if self.symmetric:
                mirrors += mirrors
            else:
                mirrors += (_long_array(out_ptr), _long_array(out_idx))
            self._mirrors = mirrors
        return mirrors

    def in_neighbors(self, node: int) -> tuple[int, ...]:
        """The nodes whose beeps ``node`` hears (sorted)."""
        ptr, idx, _, _ = self.scalar_csr()
        return tuple(idx[ptr[node] : ptr[node + 1]])

    def out_neighbors(self, node: int) -> tuple[int, ...]:
        """The nodes that hear ``node``'s beeps (sorted)."""
        _, _, ptr, idx = self.scalar_csr()
        return tuple(idx[ptr[node] : ptr[node + 1]])

    def in_degree(self, node: int) -> int:
        ptr = self.scalar_csr()[0]
        return ptr[node + 1] - ptr[node]

    def out_degree(self, node: int) -> int:
        ptr = self.scalar_csr()[2]
        return ptr[node + 1] - ptr[node]

    def csr_arrays(self):
        """The CSR arrays as numpy ``(in_ptr, in_idx, out_ptr, out_idx)``.

        The graph's own storage: read-only compact integer arrays
        (``int32`` until the edge count needs wider), which the
        vectorized network kernel gathers through, the numpy BFS frontier
        walks and the network tasks check outputs against.  A symmetric
        graph's out-pair is its in-pair.
        """
        return self._csr_cache

    @property
    def max_in_degree(self) -> int:
        """The largest in-degree Δ (what local-broadcast calibrates on)."""
        return int(np.diff(self._csr_cache[0]).max(initial=0))

    def adjacency_lists(self) -> list[tuple[int, ...]]:
        """The in-adjacency as plain lists of tuples (compat format)."""
        return [self.in_neighbors(i) for i in range(self.n)]

    def bfs_distances(self, source: int = 0) -> list[int]:
        """Hop distance from ``source`` along *out* edges (the direction
        information floods); ``-1`` for unreachable nodes.

        Walks a whole frontier at a time over :meth:`csr_arrays`: a
        distance is set exactly once (the first level that reaches the
        node), so intra-level visit order cannot change any entry.
        """
        if not 0 <= source < self.n:
            raise ConfigurationError(
                f"source {source} outside [0, {self.n})"
            )
        _, _, ptr, idx = self._csr_cache
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=ptr.dtype)
        depth = 0
        while frontier.size:
            depth += 1
            starts = ptr[frontier]
            counts = ptr[frontier + 1] - starts
            total = int(counts.sum())
            if not total:
                break
            offsets = np.repeat(np.cumsum(counts) - counts, counts)
            positions = (
                np.arange(total, dtype=starts.dtype)
                - offsets
                + np.repeat(starts, counts)
            )
            neighbors = idx[positions]
            fresh = np.unique(neighbors[dist[neighbors] < 0])
            if not fresh.size:
                break
            dist[fresh] = depth
            frontier = fresh
        return dist.tolist()

    def eccentricity(self, source: int = 0) -> int:
        """Max hop distance from ``source`` over its reachable set."""
        return max(d for d in self.bfs_distances(source))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(n={self.n}, edges={self.edges}, "
            f"symmetric={self.symmetric})"
        )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def _undirected(
    n: int, pairs: list[tuple[np.ndarray, np.ndarray]]
) -> Topology:
    """The symmetric graph with one edge per pair ``(a[k], b[k])`` of
    each ``(a, b)`` array pair in ``pairs``.

    For the generators, whose pairs are in range and loop-free by
    construction: the arcs skip :meth:`Topology.from_edges`'s validation.
    Both arc keys of each pair are written straight into one int64
    array, and ``pairs`` is emptied as its parts are written, so they are
    freed before the CSR step.  Every arc comes with its reverse, so the
    in-CSR of one key sort is also the out-CSR.
    """
    m = sum(len(a) for a, _ in pairs)
    key = np.empty(2 * m, dtype=np.int64)
    start = 0
    while pairs:
        a, b = pairs.pop()
        stop = start + len(a)
        # dtype: the ids may be int32, whose products with n need int64.
        forward = key[start:stop]
        np.multiply(a, n, out=forward, dtype=np.int64)
        np.add(forward, b, out=forward)
        backward = key[m + start : m + stop]
        np.multiply(b, n, out=backward, dtype=np.int64)
        np.add(backward, a, out=backward)
        start = stop
        del a, b
    return Topology(n, _csr(_sorted_unique(key), n))


def _complete(*, n: int) -> Topology:
    """Complete graph: the paper's single-hop channel."""
    if n < 1:
        raise ConfigurationError(f"need >= 1 node, got {n}")
    return _undirected(n, [np.triu_indices(n, 1)])


def _ring(*, n: int) -> Topology:
    """Cycle: node ``i`` hears ``i ± 1 (mod n)``."""
    if n < 3:
        raise ConfigurationError(f"a ring needs >= 3 nodes, got {n}")
    nodes = np.arange(n)
    return _undirected(n, [(nodes, (nodes + 1) % n)])


def _grid(
    *,
    rows: int | None = None,
    cols: int | None = None,
    n: int | None = None,
) -> Topology:
    """4-neighbor grid, row-major.  Either ``rows``+``cols`` pin the
    shape, or a bare ``n`` gets the near-square ``isqrt(n)`` layout with
    a partial last row (so any node count is a valid grid)."""
    if rows is not None or cols is not None:
        if rows is None or cols is None:
            raise ConfigurationError(
                "grid needs both rows and cols (or a bare n)"
            )
        if rows < 1 or cols < 1:
            raise ConfigurationError("grid needs positive dimensions")
        if n is not None and n != rows * cols:
            raise ConfigurationError(
                f"grid {rows}x{cols} has {rows * cols} nodes, not {n}"
            )
        total = rows * cols
        width = cols
    else:
        if n is None:
            raise ConfigurationError("grid needs rows+cols or n")
        if n < 1:
            raise ConfigurationError(f"need >= 1 node, got {n}")
        total = n
        rows = max(1, math.isqrt(n))
        width = -(-n // rows)  # ceil division: partial last row allowed
    nodes = np.arange(total)
    # Pairs (i, i+1) stay in one row (and inside a partial last row);
    # pairs (i, i+width) just need the lower node to exist.
    across = nodes[(nodes % width < width - 1) & (nodes + 1 < total)]
    down = nodes[: max(0, total - width)]
    return _undirected(total, [(across, across + 1), (down, down + width)])


#: Cell-grid side cap for the geometric builder, so cell ids fit int64.
#: Only radii below 2^-31 reach it, where cells coarser than the radius
#: change the candidate count but not the edge set.
_MAX_CELLS = 1 << 31

#: The half-neighborhood of cell offsets: with the mirrored arcs, every
#: unordered pair of points in the same or adjacent cells once.
_HALF_NEIGHBORHOOD = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _cell_order(cell_of: np.ndarray, cells: int) -> np.ndarray:
    """The stable ascending order of the cell ids ``cell_of`` (each below
    ``cells**2``).

    Stability fixes the order, so the key width cannot change it.  On
    16-bit keys numpy's stable argsort is a radix sort (~7× faster than
    on int64 at 10^5 points), so ids below 2^32 sort in two stable
    16-bit passes, low half then high half (still ~2× faster than the
    int64 sort at 10^6 points on 626² cells).
    """
    if cells * cells > 1 << 32:
        return np.argsort(cell_of, kind="stable")
    order = np.argsort((cell_of & 0xFFFF).astype(np.uint16), kind="stable")
    if cells * cells > 1 << 16:
        high = (cell_of[order] >> 16).astype(np.uint16)
        order = order[np.argsort(high, kind="stable")]
    return order


#: Sorted points per candidate block of :func:`_close_pairs`: one block's
#: candidates (~ this times the mean cell population, per offset) are
#: its only point-proportional scratch beyond the point arrays.
_POINT_BLOCK = 1 << 13


def _geometric(*, n: int, radius: float, seed: int = 0) -> Topology:
    """Random geometric graph: ``n`` points uniform in the unit square,
    edges between pairs at Euclidean distance <= ``radius``.  Cell-binned
    neighbor search: O(n) expected build, not O(n²).

    Points are the first ``2n`` draws of ``random.Random(seed)``, x then
    y per point.  Points are sorted by cell; each cell's candidate
    partners (the rest of its own cell, then the four forward-adjacent
    cells) are expanded CSR-style and filtered by the float64 test
    ``dx*dx + dy*dy <= radius**2``, one offset and one block of
    :data:`_POINT_BLOCK` sorted points at a time.
    """
    if n < 1:
        raise ConfigurationError(f"need >= 1 node, got {n}")
    if not 0.0 < radius <= math.sqrt(2.0):
        raise ConfigurationError(
            f"radius must be in (0, sqrt(2)], got {radius}"
        )
    # The point arrays die with _close_pairs, before the CSR step.
    return _undirected(n, _close_pairs(n, radius, seed))


def _close_pairs(
    n: int, radius: float, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(a, b)`` node-id arrays of :func:`_geometric`'s edges, one
    pair per cell offset and point block (``int32`` ids below 2^31)."""
    # Imported here: repro.vectorized imports this module.
    from repro.vectorized.noise import numpy_stream

    uniforms = numpy_stream(random.Random(seed)).random_sample(2 * n)
    cells = max(1, min(int(1.0 / radius), _MAX_CELLS))
    size = 1.0 / cells
    cx = np.minimum((uniforms[0::2] / size).astype(np.int64), cells - 1)
    cy = np.minimum((uniforms[1::2] / size).astype(np.int64), cells - 1)
    cell_of = cx * cells + cy
    del cx, cy
    order = _cell_order(cell_of, cells)
    xs = uniforms[0::2][order]
    ys = uniforms[1::2][order]
    del uniforms
    cell_of = cell_of[order]
    # The node id at each sorted position.
    ids = order.astype(np.int32) if n < 2**31 else order
    del order
    # Occupied cells (ascending id): first sorted position and population.
    starts = np.flatnonzero(
        np.concatenate(([True], cell_of[1:] != cell_of[:-1]))
    )
    occupied = cell_of[starts]
    del cell_of
    counts = np.diff(np.append(starts, n))
    member = np.repeat(np.arange(len(occupied)), counts)
    occupied_x, occupied_y = np.divmod(occupied, cells)
    r2 = radius * radius
    pairs = []
    for dx, dy in _HALF_NEIGHBORHOOD:
        # Per occupied cell: the first sorted position of its partners
        # in the offset cell and their count (in its own cell, a point's
        # partners are the points after it).
        if (dx, dy) == (0, 0):
            cell_first = None
            cell_stop = starts + counts
        else:
            tx = occupied_x + dx
            ty = occupied_y + dy
            target = tx * cells + ty
            slot = np.minimum(
                np.searchsorted(occupied, target), len(occupied) - 1
            )
            hit = (
                (tx < cells) & (ty >= 0) & (ty < cells)
                & (occupied[slot] == target)
            )
            del tx, ty, target
            cell_first = np.where(hit, starts[slot], 0)
            cell_count = np.where(hit, counts[slot], 0)
            del slot, hit
        for start in range(0, n, _POINT_BLOCK):
            stop = min(start + _POINT_BLOCK, n)
            positions = np.arange(start, stop)
            block_cells = member[start:stop]
            if cell_first is None:
                first = positions + 1
                partners = cell_stop[block_cells] - first
            else:
                first = cell_first[block_cells]
                partners = cell_count[block_cells]
            close = _close_in_block(xs, ys, r2, positions, first, partners)
            pairs.append((ids[close[0]], ids[close[1]]))
    return pairs


def _close_in_block(xs, ys, r2, positions, first, partners):
    """The ``(a, b)`` sorted positions of one block's close candidates:
    position ``positions[k]`` against ``first[k] .. first[k] +
    partners[k] - 1``, expanded CSR-style."""
    a = np.repeat(positions, partners)
    b = np.repeat(first - (np.cumsum(partners) - partners), partners)
    b += np.arange(len(b))
    # dx*dx + dy*dy in place: the same float64 operations, fewer
    # candidate-length temporaries.
    dxs = xs[a]
    dxs -= xs[b]
    dxs *= dxs
    dys = ys[a]
    dys -= ys[b]
    dys *= dys
    dxs += dys
    del dys
    close = np.flatnonzero(dxs <= r2)
    return a[close], b[close]


def _scale_free(*, n: int, m: int = 2, seed: int = 0) -> Topology:
    """Barabási–Albert preferential attachment: each arriving node links
    to ``m`` distinct existing nodes with probability ∝ degree."""
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n < m + 1:
        raise ConfigurationError(
            f"scale-free needs n >= m + 1 = {m + 1}, got {n}"
        )
    rng = random.Random(seed)
    # One entry per half-edge; sampling from it is degree-proportional.
    # Each arrival appends its m targets, then itself m times.
    repeated: list[int] = []
    targets = list(range(m))
    source = m
    while source < n:
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[rng.randrange(len(repeated))])
        targets = sorted(chosen)
        source += 1
    half_edges = np.array(repeated, dtype=np.int64).reshape(-1, 2, m)
    return _undirected(
        n, [(half_edges[:, 1].ravel(), half_edges[:, 0].ravel())]
    )
