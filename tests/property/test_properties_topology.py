"""Property-based tests (hypothesis) for topology generators and specs.

The generator contract the sweep service leans on: every family builds a
simple undirected graph (symmetric adjacency, no self-loops, no
duplicates), seeded families are deterministic in their seed, and specs
survive JSON/label round trips unchanged.  The cell-binned geometric
builder must agree with an O(n²) scan over every pair.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Topology, TopologySpec, parse_topology


def _assert_simple_symmetric(topology: Topology) -> None:
    assert topology.symmetric
    for node in range(topology.n):
        neighbors = topology.in_neighbors(node)
        assert node not in neighbors  # no self-loops
        assert len(set(neighbors)) == len(neighbors)  # no duplicates
        for neighbor in neighbors:
            assert node in topology.in_neighbors(neighbor)


class TestGeneratorProperties:
    @given(n=st.integers(min_value=1, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_complete_structure(self, n):
        topology = TopologySpec.of("complete", n=n).build()
        _assert_simple_symmetric(topology)
        assert topology.max_in_degree == max(0, n - 1)
        assert topology.edges == n * (n - 1)  # directed count

    @given(n=st.integers(min_value=3, max_value=80))
    @settings(max_examples=30, deadline=None)
    def test_ring_structure(self, n):
        topology = TopologySpec.of("ring", n=n).build()
        _assert_simple_symmetric(topology)
        assert all(
            topology.in_degree(node) == 2 for node in range(n)
        )

    @given(
        rows=st.integers(min_value=1, max_value=9),
        cols=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_structure(self, rows, cols):
        topology = TopologySpec.of("grid", rows=rows, cols=cols).build()
        _assert_simple_symmetric(topology)
        assert topology.n == rows * cols
        assert topology.max_in_degree <= 4
        # Exact 4-neighbor count: two directed edges per adjacent pair.
        assert topology.edges == 2 * (rows * (cols - 1) + cols * (rows - 1))

    @given(
        n=st.integers(min_value=1, max_value=120),
        radius=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_geometric_simple_and_seed_deterministic(self, n, radius, seed):
        spec = TopologySpec.of("geometric", n=n, radius=radius, seed=seed)
        topology = spec.build()
        _assert_simple_symmetric(topology)
        rebuilt = TopologySpec.of(
            "geometric", n=n, radius=radius, seed=seed
        ).build()
        assert topology.adjacency_lists() == rebuilt.adjacency_lists()

    @given(
        n=st.integers(min_value=1, max_value=60),
        radius=st.floats(min_value=1e-3, max_value=math.sqrt(2.0)),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_geometric_matches_brute_force(self, n, radius, seed):
        rng = random.Random(seed)
        points = [(rng.random(), rng.random()) for _ in range(n)]
        r2 = radius * radius
        expected = [[] for _ in range(n)]
        for i, (xi, yi) in enumerate(points):
            for j, (xj, yj) in enumerate(points):
                dx, dy = xi - xj, yi - yj
                if i != j and dx * dx + dy * dy <= r2:
                    expected[i].append(j)
        topology = TopologySpec.of(
            "geometric", n=n, radius=radius, seed=seed
        ).build()
        assert topology.adjacency_lists() == [tuple(row) for row in expected]

    @given(
        n=st.integers(min_value=6, max_value=100),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_scale_free_simple_and_degree_bounded(self, n, m, seed):
        spec = TopologySpec.of("scale-free", n=n, m=m, seed=seed)
        topology = spec.build()
        _assert_simple_symmetric(topology)
        # Each arriving node contributes at most m undirected edges.
        assert topology.edges <= 2 * m * n
        assert (
            topology.adjacency_lists()
            == TopologySpec.of(
                "scale-free", n=n, m=m, seed=seed
            ).build().adjacency_lists()
        )


class TestSpecProperties:
    @given(
        n=st.integers(min_value=1, max_value=10**6),
        radius=st.floats(min_value=0.001, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_dict_and_label_round_trips(self, n, radius, seed):
        spec = TopologySpec.of("geometric", n=n, radius=radius, seed=seed)
        assert TopologySpec.from_dict(spec.to_dict()) == spec
        assert parse_topology(spec.label()) == spec

    @given(
        rows=st.integers(min_value=1, max_value=1000),
        cols=st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_spec_pins_size(self, rows, cols):
        spec = TopologySpec.of("grid", rows=rows, cols=cols)
        assert spec.size == rows * cols
        assert spec.with_n(rows * cols) is spec
