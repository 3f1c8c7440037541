"""Unit tests for topology generators and the TopologySpec API."""

import hashlib
import json
import math
import pickle
import random

import numpy as np
import pytest

import repro.network.topology as topology_module
from repro.errors import ConfigurationError
from repro.network import TOPOLOGIES, Topology, TopologySpec, parse_topology


def _csr_digests(topology):
    """BLAKE2b-64 of each CSR array (in_ptr, in_idx, out_ptr, out_idx),
    over little-endian int64 so the pins hold on every platform."""
    return tuple(
        hashlib.blake2b(
            np.asarray(arr, dtype="<i8").tobytes(), digest_size=8
        ).hexdigest()
        for arr in topology.csr_arrays()
    )


#: CSR digests recorded from the pure-Python builders.  Every family's
#: CSR must stay bitwise identical, so every seed, pinned sweep result
#: and cached point stays valid.
_EMPTY = ("5250a507f994740e", "e4a6a0577479b2b4")
CSR_PINS = [
    ("complete", {"n": 1}, _EMPTY),
    ("complete", {"n": 2}, ("cf5ddb2411b6887b", "c3f5cc9bd28814a6")),
    ("complete", {"n": 17}, ("c4888381c1e7741b", "fdafdbd67f3ccc20")),
    ("ring", {"n": 3}, ("5185753fa5188cf3", "58ab54f867380ca9")),
    ("ring", {"n": 64}, ("d2919396deb1ceab", "b4213f3cb98df7e7")),
    ("grid", {"rows": 1, "cols": 1}, _EMPTY),
    ("grid", {"rows": 4, "cols": 5}, ("301225122988e125", "af85d1fdb4a0bde6")),
    ("grid", {"n": 10}, ("a4e05a790e9587fc", "683a3dd8cc93892f")),
    ("geometric", {"n": 1, "radius": 1.0, "seed": 0}, _EMPTY),
    (
        "geometric",
        {"n": 64, "radius": 0.25, "seed": 0},
        ("9ad84ef3c2e5b85d", "efbed0e74b4628d3"),
    ),
    (
        "geometric",
        {"n": 1000, "radius": 0.3, "seed": 0},
        ("9c3cc46c9ca67af5", "f32b15597739ba0d"),
    ),
    (
        "geometric",
        {"n": 1024, "radius": 0.05, "seed": 0},
        ("fc0b5f8ef952785f", "f88dadccb372e642"),
    ),
    (
        "geometric",
        {"n": 1024, "radius": 0.05, "seed": 3},
        ("bd2f41d56c0a1dac", "c5cb4dfbf4f45cbc"),
    ),
    (
        "geometric",
        {"n": 100000, "radius": 0.005046, "seed": 0},
        ("3af5ce0033559eff", "78a43d134e6409ec"),
    ),
    (  # radius sqrt(2): one cell, every pair in range
        "geometric",
        {"n": 50, "radius": math.sqrt(2.0), "seed": 0},
        ("7e9aef251f73f239", "4c0f1bd05ad00d74"),
    ),
    (
        "scale-free",
        {"n": 50, "m": 2, "seed": 0},
        ("a4cfa8771fe2ed6a", "078ef83355217d5e"),
    ),
    (
        "scale-free",
        {"n": 200, "m": 3, "seed": 0},
        ("a89c9f2c74735fba", "dc269a0dc8182c6f"),
    ),
]


def _directed_adjacency():
    rng = random.Random(5)
    return [
        [j for j in (rng.randrange(40) for _ in range(4)) if j != i]
        for i in range(40)
    ]


class TestCSRPins:
    @pytest.mark.parametrize(
        "kind, params, in_digests",
        CSR_PINS,
        ids=[f"{kind}-{params}" for kind, params, _ in CSR_PINS],
    )
    def test_generator_csr_bytes_pinned(self, kind, params, in_digests):
        topology = TOPOLOGIES[kind].builder(**params)
        # Every family is undirected: the out-CSR is the in-CSR.
        assert _csr_digests(topology) == in_digests + in_digests

    def test_directed_csr_bytes_pinned(self):
        topology = Topology.from_adjacency(_directed_adjacency())
        assert not topology.symmetric
        assert _csr_digests(topology) == (
            "492bb985f5efe2b8",
            "f51193626677edbf",
            "c3768bec2eb398f7",
            "8076ac1797b523d3",
        )


class TestFromEdges:
    def test_matches_from_adjacency(self):
        adjacency = _directed_adjacency()
        src = [i for i, row in enumerate(adjacency) for _ in row]
        dst = [j for row in adjacency for j in row]
        # Arc order is irrelevant: reversed input, same graph.
        built = Topology.from_edges(40, src[::-1], dst[::-1])
        assert _csr_digests(built) == _csr_digests(
            Topology.from_adjacency(adjacency)
        )

    def test_dedups_repeated_edges(self):
        topology = Topology.from_edges(3, [0, 0, 0, 1, 2], [2, 1, 2, 0, 0])
        assert topology.edges == 4
        assert topology.in_neighbors(0) == (1, 2)
        assert topology.out_neighbors(0) == (1, 2)
        assert topology.symmetric

    def test_csr_arrays_mirror_storage(self):
        """The numpy CSR is compact and read-only; the scalar
        ``array('l')`` copies hold the same entries."""
        topology = Topology.from_adjacency(_directed_adjacency())
        for arr, mirror in zip(topology.csr_arrays(), topology.scalar_csr()):
            assert arr.dtype == np.int32
            assert not arr.flags.writeable
            assert mirror.typecode == "l"
            assert mirror.tolist() == arr.tolist()

    @pytest.mark.parametrize(
        "adjacency",
        [
            [(1,), (0, 5)],  # out of range
            [(1,), (-1, 0)],  # negative
            [(1,), (1, 0)],  # self-loop
            [(0, 7), (0,)],  # self-loop before out-of-range in node 0
            [(2, 9), (5,), (0,)],  # first offending node wins
        ],
    )
    def test_same_errors_as_from_adjacency(self, adjacency):
        with pytest.raises(ConfigurationError) as expected:
            Topology.from_adjacency(adjacency)
        src = [i for i, row in enumerate(adjacency) for _ in row]
        dst = [j for row in adjacency for j in row]
        with pytest.raises(ConfigurationError) as raised:
            Topology.from_edges(len(adjacency), src, dst)
        assert str(raised.value) == str(expected.value)

    def test_error_messages(self):
        with pytest.raises(ConfigurationError, match="neighbor 5"):
            Topology.from_edges(2, [1], [5])
        with pytest.raises(ConfigurationError, match="node 1 lists itself"):
            Topology.from_edges(2, [0, 1], [1, 1])
        with pytest.raises(ConfigurationError, match="out-of-range neighbor"):
            Topology.from_adjacency([(2**70,), (0,)])
        with pytest.raises(ConfigurationError, match="arc source 2"):
            Topology.from_edges(2, [2], [0])
        with pytest.raises(ConfigurationError, match="equal-length"):
            Topology.from_edges(2, [0, 1], [1])
        with pytest.raises(ConfigurationError, match="at least one node"):
            Topology.from_edges(0, [], [])

    def test_edgeless_graph(self):
        topology = Topology.from_edges(3, [], [])
        assert topology.edges == 0
        assert topology.symmetric
        assert topology.max_in_degree == 0
        assert topology.bfs_distances(1) == [-1, 0, -1]


class TestTopologyClass:
    def test_from_adjacency_sorts_and_dedupes(self):
        topology = Topology.from_adjacency([(2, 1, 1), (0,), (0,)])
        assert topology.in_neighbors(0) == (1, 2)

    def test_symmetric_flag(self):
        assert Topology.from_adjacency([(1,), (0,)]).symmetric
        assert not Topology.from_adjacency([(1,), ()]).symmetric

    def test_directed_in_out_views(self):
        topology = Topology.from_adjacency([(1,), ()])
        # Node 0 hears node 1; so node 1's beeps go OUT to node 0.
        assert topology.in_neighbors(0) == (1,)
        assert topology.out_neighbors(1) == (0,)
        assert topology.out_neighbors(0) == ()

    def test_bfs_distances_and_unreachable(self):
        topology = Topology.from_adjacency([(1,), (0,), (3,), (2,)])
        distances = topology.bfs_distances(0)
        assert distances[:2] == [0, 1]
        assert distances[2:] == [-1, -1]

    def test_bfs_distances_on_grid(self):
        grid = TopologySpec.of("grid", rows=4, cols=5).build()
        assert grid.bfs_distances(0) == [
            0, 1, 2, 3, 4,
            1, 2, 3, 4, 5,
            2, 3, 4, 5, 6,
            3, 4, 5, 6, 7,
        ]
        assert grid.bfs_distances(12) == [
            4, 3, 2, 3, 4,
            3, 2, 1, 2, 3,
            2, 1, 0, 1, 2,
            3, 2, 1, 2, 3,
        ]
        assert grid.eccentricity(0) == 7

    def test_max_in_degree(self):
        star = Topology.from_adjacency([(1, 2, 3), (0,), (0,), (0,)])
        assert star.max_in_degree == 3


class TestGenerators:
    REQUIRED = {
        "geometric": {"radius": 0.35, "seed": 0},
        "scale-free": {"m": 2, "seed": 0},
    }

    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_all_families_build_symmetric_graphs(self, kind):
        spec = TopologySpec.of(kind, **self.REQUIRED.get(kind, {})).with_n(24)
        topology = spec.build()
        assert topology.n == 24
        assert topology.symmetric

    def test_grid_shape_matches_bare_n(self):
        shaped = TopologySpec.of("grid", rows=4, cols=6).build()
        assert shaped.n == 24
        assert shaped.max_in_degree == 4

    def test_grid_partial_last_row(self):
        topology = TopologySpec.of("grid", n=7).build()
        assert topology.n == 7
        assert topology.symmetric

    def test_geometric_radius_controls_degree(self):
        sparse = TopologySpec.of(
            "geometric", n=200, radius=0.05, seed=1
        ).build()
        dense = TopologySpec.of(
            "geometric", n=200, radius=0.4, seed=1
        ).build()
        assert dense.edges > sparse.edges

    def test_geometric_seed_determinism(self):
        a = TopologySpec.of("geometric", n=100, radius=0.2, seed=9)
        b = TopologySpec.of("geometric", n=100, radius=0.2, seed=9)
        c = TopologySpec.of("geometric", n=100, radius=0.2, seed=10)
        assert a.build().adjacency_lists() == b.build().adjacency_lists()
        assert a.build().adjacency_lists() != c.build().adjacency_lists()

    @pytest.mark.parametrize("cells", [200, 333, 70000])
    def test_cell_order_is_the_stable_int64_order(self, cells):
        """At most 2^16 cells, up to 2^32 and beyond: the 16-bit radix
        passes give the order of the stable int64 argsort, repeats
        included."""
        rng = np.random.default_rng(cells)
        ids = rng.integers(0, cells * cells, 3000)
        ids = np.concatenate((ids, ids[:1000], ids[::7]))
        np.testing.assert_array_equal(
            topology_module._cell_order(ids, cells),
            np.argsort(ids, kind="stable"),
        )

    def test_geometric_past_16_bit_cells_keeps_csr_bytes(self, monkeypatch):
        """A graph of more than 2^16 cells (333² here) gets the CSR bytes
        the int64 stable cell order gives."""
        params = {"n": 2000, "radius": 0.003, "seed": 0}
        assert int(1 / params["radius"]) ** 2 > 1 << 16
        built = TOPOLOGIES["geometric"].builder(**params)
        monkeypatch.setattr(
            topology_module,
            "_cell_order",
            lambda cell_of, cells: np.argsort(cell_of, kind="stable"),
        )
        reference = TOPOLOGIES["geometric"].builder(**params)
        assert built.edges > 0
        assert _csr_digests(built) == _csr_digests(reference)

    def test_scale_free_connected_and_bounded(self):
        topology = TopologySpec.of("scale-free", n=80, m=2, seed=3).build()
        assert topology.symmetric
        assert all(d >= 0 for d in topology.bfs_distances(0))
        # Preferential attachment adds <= m edges per arriving node.
        assert topology.edges <= 2 * (2 * 80)


class TestTopologySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.of("torus", n=9)

    def test_params_canonicalized(self):
        a = TopologySpec.of("geometric", seed=1, radius=0.2, n=10)
        b = TopologySpec.of("geometric", n=10, radius=0.2, seed=1)
        assert a == b and hash(a) == hash(b)

    def test_size_and_with_n(self):
        open_spec = TopologySpec.of("geometric", radius=0.2)
        assert open_spec.size is None
        pinned = open_spec.with_n(50)
        assert pinned.size == 50
        assert pinned.with_n(50) is pinned
        with pytest.raises(ConfigurationError):
            pinned.with_n(51)

    def test_grid_shape_pins_size(self):
        spec = TopologySpec.of("grid", rows=3, cols=5)
        assert spec.size == 15
        with pytest.raises(ConfigurationError):
            spec.with_n(16)

    def test_json_round_trip(self):
        spec = TopologySpec.of("geometric", n=64, radius=0.25, seed=7)
        payload = json.dumps(spec.to_dict(), sort_keys=True)
        revived = TopologySpec.from_dict(json.loads(payload))
        assert revived == spec
        assert revived.build() is spec.build()  # memoized builder

    def test_label_round_trip(self):
        spec = TopologySpec.of("geometric", n=64, radius=0.25, seed=7)
        assert parse_topology(spec.label()) == spec

    def test_pickles(self):
        spec = TopologySpec.of("grid", rows=8, cols=8)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_build_memoized(self):
        spec = TopologySpec.of("grid", rows=6, cols=6)
        assert spec.build() is TopologySpec.of(
            "grid", cols=6, rows=6
        ).build()


class TestParseTopology:
    def test_bare_kind(self):
        assert parse_topology("ring") == TopologySpec.of("ring")

    def test_bare_node_count(self):
        assert parse_topology("complete:64") == TopologySpec.of(
            "complete", n=64
        )

    def test_grid_shape_shorthand(self):
        assert parse_topology("grid:32x32") == TopologySpec.of(
            "grid", rows=32, cols=32
        )

    def test_key_value_params_with_aliases(self):
        spec = parse_topology("geometric:n=10000,r=0.02,seed=7")
        assert spec == TopologySpec.of(
            "geometric", n=10000, radius=0.02, seed=7
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_topology("moebius:8")

    def test_bad_param_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_topology("ring:wat")
        with pytest.raises(ConfigurationError):
            parse_topology("grid:3xpi")
