"""Unit tests for the multi-hop beeping network substrate."""

import random

import numpy as np
import pytest

from repro.channels import IndependentNoiseChannel, NoiselessChannel
from repro.channels.stats import ChannelStats
from repro.core import run_protocol
from repro.errors import ChannelError, ConfigurationError, TaskError
import repro.network.tasks as network_tasks
from repro.network import (
    BroadcastTask,
    MISTask,
    NeighborORTask,
    NetworkBeepingChannel,
    NetworkSizeEstimateTask,
    Topology,
    complete,
    grid,
    mis_protocol,
    parse_topology,
    ring,
)

_STAT_FIELDS = ("rounds", "beeps_sent", "or_ones", "flips_up", "flips_down")


def _stats_tuple(stats):
    return tuple(getattr(stats, name) for name in _STAT_FIELDS)


class TestTopologies:
    def test_ring_degrees(self):
        adjacency = ring(5)
        assert all(len(neighbors) == 2 for neighbors in adjacency)
        assert adjacency[0] == (1, 4)

    def test_ring_validation(self):
        with pytest.raises(ConfigurationError):
            ring(2)

    def test_grid_corner_and_center(self):
        adjacency = grid(3, 3)
        assert set(adjacency[0]) == {1, 3}  # corner
        assert set(adjacency[4]) == {1, 3, 5, 7}  # center

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            grid(0, 3)

    def test_complete(self):
        adjacency = complete(4)
        assert all(len(neighbors) == 3 for neighbors in adjacency)
        assert 0 not in adjacency[0]


class TestNetworkChannel:
    def test_neighborhood_or(self):
        channel = NetworkBeepingChannel(ring(4))
        # Node 0 beeps: only its neighbors 1 and 3 hear it.
        outcome = channel.transmit((1, 0, 0, 0))
        assert outcome.received == (0, 1, 0, 1)

    def test_hear_self(self):
        channel = NetworkBeepingChannel(ring(4), hear_self=True)
        outcome = channel.transmit((1, 0, 0, 0))
        assert outcome.received == (1, 1, 0, 1)

    def test_complete_graph_equals_single_hop(self):
        """Complete graph + hear_self reproduces the noiseless single-hop
        channel on arbitrary beep patterns."""
        rng = random.Random(0)
        network = NetworkBeepingChannel(complete(5), hear_self=True)
        single = NoiselessChannel()
        for _ in range(50):
            bits = tuple(rng.getrandbits(1) for _ in range(5))
            assert (
                network.transmit(bits).received
                == single.transmit(bits).received
            )

    def test_complete_graph_with_noise_matches_independent_model(self):
        """Statistically: complete graph + hear_self + epsilon behaves
        like IndependentNoiseChannel."""
        network = NetworkBeepingChannel(
            complete(3), epsilon=0.2, hear_self=True, rng=1
        )
        independent = IndependentNoiseChannel(0.2, rng=2)
        trials = 4000
        network_flips = sum(
            sum(network.transmit((0, 0, 0)).received)
            for _ in range(trials)
        )
        independent_flips = sum(
            sum(independent.transmit((0, 0, 0)).received)
            for _ in range(trials)
        )
        assert network_flips == pytest.approx(
            independent_flips, rel=0.15
        )

    def test_arity_enforced(self):
        channel = NetworkBeepingChannel(ring(4))
        with pytest.raises(ChannelError):
            channel.transmit((1, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkBeepingChannel([(0,), ()])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkBeepingChannel([(5,), (0,)])

    def test_noise_stats_counted_against_neighborhood(self):
        channel = NetworkBeepingChannel(ring(4), epsilon=0.3, rng=3)
        for _ in range(500):
            channel.transmit((0, 0, 0, 0))
        # All silent: every received 1 is an up-flip.
        assert channel.stats.flips_up > 0
        assert channel.stats.flips_down == 0

    def test_directed_interference_allowed(self):
        # Node 0 hears node 1 but not vice versa.
        channel = NetworkBeepingChannel([(1,), ()])
        outcome = channel.transmit((0, 1))
        assert outcome.received == (1, 0)


class TestSingleHopPin:
    """Complete graph + hear_self IS the single-hop independent channel.

    Not statistically — bitwise: same seed, same draws, same received
    words, same stats counters.  This is the equivalence that anchors
    the network substrate to the paper's channel.
    """

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
    def test_bitwise_identical_to_independent(self, n, epsilon):
        network = NetworkBeepingChannel(
            complete(n), epsilon=epsilon, hear_self=True, rng=42
        )
        single = IndependentNoiseChannel(epsilon, rng=42)
        rng = random.Random(n)
        for _ in range(200):
            bits = tuple(rng.getrandbits(1) for _ in range(n))
            ours, theirs = network.transmit(bits), single.transmit(bits)
            assert ours.received == theirs.received
            assert ours.or_value == theirs.or_value
        assert _stats_tuple(network.stats) == _stats_tuple(single.stats)

    def test_step_matches_transmit_draws(self):
        """The sparse API consumes the same randomness as the dense one."""
        topology = parse_topology("geometric:n=60,r=0.2,seed=1").build()
        dense = NetworkBeepingChannel(topology, epsilon=0.05, rng=9)
        sparse = NetworkBeepingChannel(topology, epsilon=0.05, rng=9)
        rng = random.Random(0)
        for _ in range(100):
            bits = tuple(
                rng.getrandbits(1) for _ in range(topology.n)
            )
            outcome = dense.transmit(bits)
            or_value, ones = sparse.step(
                [i for i, bit in enumerate(bits) if bit]
            )
            assert or_value == outcome.or_value
            assert sorted(ones) == [
                i for i, bit in enumerate(outcome.received) if bit
            ]
        assert _stats_tuple(dense.stats) == _stats_tuple(sparse.stats)


class TestEdgeAndNodeNoise:
    def test_edge_erasure_only_suppresses(self):
        channel = NetworkBeepingChannel(ring(6), edge_epsilon=0.5, rng=7)
        for _ in range(300):
            outcome = channel.transmit((1, 0, 0, 0, 0, 0))
            # Erasures can only silence edges: nobody outside the clean
            # neighborhood {1, 5} ever hears anything.
            assert all(
                outcome.received[i] == 0 for i in (0, 2, 3, 4)
            )
        assert channel.stats.flips_up == 0
        assert channel.stats.flips_down > 0

    def test_hear_self_immune_to_edge_erasure(self):
        channel = NetworkBeepingChannel(
            ring(4), edge_epsilon=0.99, hear_self=True, rng=0
        )
        for _ in range(50):
            assert channel.transmit((1, 0, 0, 0)).received[0] == 1

    def test_per_node_epsilons(self):
        channel = NetworkBeepingChannel(
            ring(4), node_epsilons=[0.5, 0.0, 0.0, 0.0], rng=3
        )
        for _ in range(200):
            outcome = channel.transmit((0, 0, 0, 0))
            assert outcome.received[1:] == (0, 0, 0)
        assert channel.stats.flips_up > 0

    def test_node_epsilons_arity_checked(self):
        with pytest.raises(ConfigurationError):
            NetworkBeepingChannel(ring(4), node_epsilons=[0.1, 0.1])


class TestNoiseAccounting:
    def test_topology_shadow_is_not_noise(self):
        """The documented conflation fix: on a non-complete graph, a node
        not hearing a far-away beep is topology, not noise."""
        channel = NetworkBeepingChannel(ring(6))
        outcome = channel.transmit((1, 0, 0, 0, 0, 0))
        # Global OR is 1 but nodes 2..4 hear 0 — and that is NOT noisy.
        assert outcome.or_value == 1
        assert outcome.flips == (0, 0)
        assert not outcome.noisy
        assert channel.stats.flips == 0

    def test_flips_field_sums_to_stats(self):
        channel = NetworkBeepingChannel(ring(8), epsilon=0.3, rng=11)
        up = down = 0
        rng = random.Random(1)
        for _ in range(200):
            bits = tuple(rng.getrandbits(1) for _ in range(8))
            outcome = channel.transmit(bits)
            up += outcome.flips[0]
            down += outcome.flips[1]
        assert (up, down) == (
            channel.stats.flips_up,
            channel.stats.flips_down,
        )

    def test_observed_from_transcript_reconstructs_network_stats(self):
        """The drift tripwire works with divergent per-node views because
        the channel routes its accounting through append_raw's flips."""
        task = MISTask(ring(6))
        channel = task.channel(epsilon=0.1, rng=2)
        inputs = task.sample_inputs(random.Random(0))
        result = run_protocol(
            task.noiseless_protocol(), inputs, channel
        )
        observed = ChannelStats.observed_from_transcript(result.transcript)
        assert observed.rounds == result.rounds
        assert observed.flips_up == result.channel_stats.flips_up
        assert observed.flips_down == result.channel_stats.flips_down
        assert observed.or_ones == result.channel_stats.or_ones


class TestNetworkTasks:
    @pytest.mark.parametrize(
        "spec",
        ["grid:4x5", "geometric:n=30,r=0.3,seed=2", "scale-free:n=25,m=2,seed=4"],
    )
    def test_broadcast_floods_noiselessly(self, spec):
        task = BroadcastTask(parse_topology(spec).build())
        for trial in range(10):
            inputs = task.sample_inputs(random.Random(trial))
            result = run_protocol(
                task.noiseless_protocol(), inputs, task.channel()
            )
            assert task.is_correct(inputs, result.outputs), spec

    def test_neighbor_or_is_one_round(self):
        task = NeighborORTask(parse_topology("grid:3x3").build())
        inputs = task.sample_inputs(random.Random(0))
        result = run_protocol(
            task.noiseless_protocol(), inputs, task.channel()
        )
        assert result.rounds == 1
        assert task.is_correct(inputs, result.outputs)

    @staticmethod
    def _loop_is_correct(task, inputs, outputs):
        """The per-node reference checker is_correct must agree with."""
        if len(outputs) != task.n_parties:
            return False
        for node, output in enumerate(outputs):
            heard = task.topology.in_neighbors(node)
            if output != int(any(inputs[j] for j in heard)):
                return False
        return True

    @pytest.mark.parametrize(
        "spec",
        [
            "grid:5x7",
            "geometric:n=120,r=0.08,seed=1",  # has isolated nodes
            "scale-free:n=60,m=2,seed=2",
            "complete:1",
            "edgeless",
            "isolated-ends",
            "directed",
        ],
    )
    def test_neighbor_or_is_correct_matches_loop(self, spec):
        path = np.arange(1, 6)
        none = np.zeros(0, dtype=np.int64)
        graphs = {
            "edgeless": lambda: Topology.from_edges(4, none, none),
            # Nodes 0 and 6 are isolated (empty first and last in-CSR
            # rows); 1..5 form a path.
            "isolated-ends": lambda: Topology.from_edges(
                7,
                np.concatenate((path[:-1], path[1:])),
                np.concatenate((path[1:], path[:-1])),
            ),
            # 0 hears 1 and 2, 2 hears 3, 4 hears 0; nobody hears 4.
            "directed": lambda: Topology.from_edges(
                5, np.array([0, 0, 2, 4]), np.array([1, 2, 3, 0])
            ),
        }
        build = graphs.get(spec) or parse_topology(spec).build
        topology = build()
        task = NeighborORTask(topology, density=0.3)
        rng = random.Random(spec)
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            clean = [
                int(any(inputs[j] for j in topology.in_neighbors(node)))
                for node in range(topology.n)
            ]
            node = rng.randrange(topology.n)
            flipped = list(clean)
            flipped[node] ^= 1
            candidates = [
                clean,
                flipped,
                clean[:-1],
                clean + [0],
                [bool(bit) for bit in clean],
                [bool(bit) for bit in flipped],
                list(np.array(clean, dtype=np.uint8)),
                list(np.array(flipped, dtype=np.uint8)),
                [float(bit) for bit in clean],
                clean[:node] + [None] + clean[node + 1 :],
                clean[:node] + [str(clean[node])] + clean[node + 1 :],
                clean[:node] + [[clean[node]]] + clean[node + 1 :],
                clean[:node] + [2] + clean[node + 1 :],
            ]
            for outputs in candidates:
                assert task.is_correct(inputs, outputs) == (
                    self._loop_is_correct(task, inputs, outputs)
                ), (trial, outputs)
            assert task.is_correct(inputs, clean)

    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 1000, 8193])
    def test_neighbor_or_sample_inputs_matches_per_node_loop(self, n, density):
        """The block-drawn bits are the per-node ``rng.random()`` loop's,
        and ``rng`` ends in the same state (gauss slot too)."""
        edgeless = Topology.from_edges(
            n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        task = NeighborORTask(edgeless, density=density)
        vectorized, looped = random.Random(n), random.Random(n)
        vectorized.gauss(0.0, 1.0)  # leaves a cached gauss to keep
        looped.gauss(0.0, 1.0)
        expected = [1 if looped.random() < density else 0 for _ in range(n)]
        inputs = task.sample_inputs(vectorized)
        assert inputs == expected
        assert all(type(bit) is int for bit in inputs)
        assert vectorized.getstate() == looped.getstate()

    def test_neighbor_or_reference_output_unavailable(self):
        task = NeighborORTask(parse_topology("grid:3x3").build())
        with pytest.raises(TaskError):
            task.reference_output([0] * 9)

    def test_net_size_estimate_noiseless(self):
        task = NetworkSizeEstimateTask(parse_topology("grid:6x6").build())
        wins = 0
        for trial in range(10):
            inputs = task.sample_inputs(random.Random(trial))
            result = run_protocol(
                task.noiseless_protocol(), inputs, task.channel()
            )
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 9

    @staticmethod
    def _loop_broadcast_is_correct(task, inputs, outputs):
        """The per-node reference checker BroadcastTask must agree with."""
        if len(outputs) != task.n_parties:
            return False
        bit = int(inputs[0])
        for node, output in enumerate(outputs):
            distance = task.distances[node]
            expected = bit if 0 <= distance <= task.rounds else 0
            if output != expected:
                return False
        return True

    @pytest.mark.parametrize(
        "spec, rounds",
        [
            ("grid:4x6", None),
            ("grid:4x6", 3),  # the far corner is out of reach
            ("geometric:n=80,r=0.12,seed=5", None),  # unreachable nodes
            ("scale-free:n=40,m=2,seed=1", 1),
            ("complete:1", None),
        ],
    )
    def test_broadcast_is_correct_matches_loop(self, spec, rounds):
        task = BroadcastTask(parse_topology(spec).build(), rounds=rounds)
        rng = random.Random(spec)
        verdicts = set()
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            bit = inputs[0]
            clean = [
                bit if 0 <= d <= task.rounds else 0 for d in task.distances
            ]
            node = rng.randrange(task.n_parties)
            flipped = list(clean)
            flipped[node] ^= 1
            candidates = [
                clean,
                flipped,
                clean[:-1],
                clean + [0],
                [bool(b) for b in clean],
                [float(b) for b in flipped],
                list(np.array(clean, dtype=np.uint8)),
                clean[:node] + [None] + clean[node + 1 :],
                clean[:node] + [str(clean[node])] + clean[node + 1 :],
                [rng.choice((0, 1, True, None)) for _ in clean],
            ]
            for outputs in candidates:
                verdict = task.is_correct(inputs, outputs)
                assert verdict == self._loop_broadcast_is_correct(
                    task, inputs, outputs
                ), (trial, outputs)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_output_checks_cross_node_blocks(self, monkeypatch):
        """With node blocks of 7, the three block-wise checkers keep the
        per-node loops' verdicts, whichever block a wrong node is in."""
        monkeypatch.setattr(network_tasks, "_CHECK_BLOCK", 7)
        topology = parse_topology("geometric:n=100,r=0.12,seed=5").build()
        rng = random.Random(3)
        neighbor_or = NeighborORTask(topology, density=0.3)
        broadcast = BroadcastTask(topology, rounds=4)
        mis = MISTask(topology)
        for trial in range(30):
            inputs = neighbor_or.sample_inputs(rng)
            outputs = [
                int(any(inputs[j] for j in topology.in_neighbors(node)))
                for node in range(topology.n)
            ]
            if trial % 2:
                outputs[rng.randrange(topology.n)] ^= 1
            assert neighbor_or.is_correct(inputs, outputs) == (
                self._loop_is_correct(neighbor_or, inputs, outputs)
            )
            inputs = broadcast.sample_inputs(rng)
            outputs = [
                inputs[0] if 0 <= d <= 4 else 0 for d in broadcast.distances
            ]
            if trial % 2:
                outputs[rng.randrange(topology.n)] ^= 1
            assert broadcast.is_correct(inputs, outputs) == (
                self._loop_broadcast_is_correct(broadcast, inputs, outputs)
            )
            outputs = TestMISTask._greedy_mis(topology, rng)
            if trial % 2:
                node = rng.randrange(topology.n)
                outputs[node] = not outputs[node]
            assert mis.is_correct([], outputs) == (
                TestMISTask._loop_is_correct(mis, outputs)
            )

    def test_broadcast_requires_connected_for_full_delivery(self):
        # Unreachable nodes must end with 0 and the checker knows it.
        task = BroadcastTask(
            [(1,), (0,), (3,), (2,)]  # two disconnected edges
        )
        inputs = [1, 0, 0, 0]
        result = run_protocol(
            task.noiseless_protocol(), inputs, task.channel()
        )
        assert task.is_correct(inputs, result.outputs)
        assert result.outputs[2:] == [0, 0]


class TestMISTask:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ConfigurationError):
            MISTask([(1,), ()])

    def test_reference_output_unavailable(self):
        with pytest.raises(TaskError):
            MISTask(ring(4)).reference_output([])

    def test_probability_schedule_cycles(self):
        task = MISTask(ring(8))
        assert task.candidate_probability(0) == 0.5
        assert task.candidate_probability(1) == 0.25
        assert task.candidate_probability(task.levels) == 0.5

    def test_checker_accepts_valid_mis(self):
        task = MISTask(ring(4))
        assert task.is_correct([], [True, False, True, False])

    def test_checker_rejects_dependent_set(self):
        task = MISTask(ring(4))
        assert not task.is_correct([], [True, True, False, False])

    def test_checker_rejects_non_maximal_set(self):
        task = MISTask(ring(6))
        # Nodes 3,4,5 all out with no in-neighbor.
        assert not task.is_correct(
            [], [True, False, False, False, False, False]
        )

    def test_checker_rejects_undecided(self):
        task = MISTask(ring(4))
        assert not task.is_correct([], [True, False, True, None])

    @staticmethod
    def _loop_is_correct(task, outputs):
        """The per-node reference checker MISTask must agree with."""
        if len(outputs) != task.n_parties:
            return False
        if any(decision is None for decision in outputs):
            return False
        for node in range(task.n_parties):
            neighbors = task.topology.in_neighbors(node)
            if outputs[node] is True:
                if any(outputs[j] is True for j in neighbors):
                    return False
            elif not any(outputs[j] is True for j in neighbors):
                return False
        return True

    @staticmethod
    def _greedy_mis(topology, rng):
        """A maximal independent set built in a random node order."""
        member = [False] * topology.n
        for node in rng.sample(range(topology.n), topology.n):
            if not any(member[j] for j in topology.in_neighbors(node)):
                member[node] = True
        return member

    @pytest.mark.parametrize(
        "spec",
        [
            "ring:9",
            "grid:5x5",
            "geometric:n=90,r=0.1,seed=3",  # has isolated nodes
            "scale-free:n=50,m=2,seed=6",
            "complete:1",
        ],
    )
    def test_checker_matches_per_node_loop(self, spec):
        """``is True`` membership, ``None`` and truthy-but-not-``True``
        outputs get the verdicts of the per-node loop, on valid sets and
        random perturbations of them."""
        task = MISTask(parse_topology(spec).build())
        rng = random.Random(spec)
        verdicts = set()
        for trial in range(25):
            valid = self._greedy_mis(task.topology, rng)
            node = rng.randrange(task.n_parties)
            flipped = list(valid)
            flipped[node] = not flipped[node]
            candidates = [
                valid,
                flipped,
                valid[:-1],
                valid[:node] + [None] + valid[node + 1 :],
                [1 if member else False for member in valid],
                [True if member else 0 for member in valid],
                [np.bool_(member) for member in valid],
                [rng.choice((True, False, False, 1, None)) for _ in valid],
                [rng.random() < 0.3 for _ in valid],
            ]
            for outputs in candidates:
                verdict = task.is_correct([], outputs)
                assert verdict == self._loop_is_correct(task, outputs), (
                    trial,
                    outputs,
                )
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_phase_validation(self):
        with pytest.raises(ConfigurationError):
            mis_protocol(4, 0)
        with pytest.raises(ConfigurationError):
            MISTask(ring(4), cycles=0)

    @pytest.mark.parametrize("cycles", [None, 2])
    @pytest.mark.parametrize("n", [1, 2, 37, 1024])
    def test_sample_inputs_matches_per_coin_loop(self, n, cycles):
        """The block-drawn coin tapes are the per-coin ``rng.random()``
        loop's, and ``rng`` ends in the same state (gauss slot too)."""
        adjacency = {1: [()], 2: [(1,), (0,)]}.get(n) or ring(n)
        task = MISTask(adjacency, cycles=cycles)
        vectorized, looped = random.Random(n), random.Random(n)
        vectorized.gauss(0.0, 1.0)  # leaves a cached gauss to keep
        looped.gauss(0.0, 1.0)
        expected = [
            tuple(
                1 if looped.random() < task.candidate_probability(phase) else 0
                for phase in range(task.phases)
            )
            for _ in range(n)
        ]
        assert task.sample_inputs(vectorized) == expected
        assert vectorized.getstate() == looped.getstate()


class TestMISExecution:
    @pytest.mark.parametrize(
        "name,adjacency",
        [
            ("ring", ring(10)),
            ("grid", grid(3, 4)),
            ("complete", complete(8)),
        ],
    )
    def test_high_success_noiseless(self, name, adjacency):
        task = MISTask(adjacency)
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(random.Random(trial))
            result = run_protocol(
                task.noiseless_protocol(), inputs, task.channel()
            )
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 19, name

    def test_round_count(self):
        task = MISTask(ring(6), cycles=3)
        inputs = task.sample_inputs(random.Random(0))
        result = run_protocol(
            task.noiseless_protocol(), inputs, task.channel()
        )
        assert result.rounds == 2 * task.phases

    def test_noise_degrades_mis(self):
        """Per-node noise breaks the election — phantom candidate beeps
        suppress legitimate winners and phantom victory beeps dominate
        nodes with no winning neighbor."""
        task = MISTask(ring(10))
        wins = 0
        trials = 20
        for trial in range(trials):
            inputs = task.sample_inputs(random.Random(trial))
            result = run_protocol(
                task.noiseless_protocol(),
                inputs,
                task.channel(epsilon=0.1, rng=trial),
            )
            wins += task.is_correct(inputs, result.outputs)
        assert wins <= trials * 0.7

    def test_deterministic_given_seeds(self):
        task = MISTask(grid(2, 3))
        inputs = task.sample_inputs(random.Random(5))
        a = run_protocol(
            task.noiseless_protocol(), inputs, task.channel()
        )
        b = run_protocol(
            task.noiseless_protocol(), inputs, task.channel()
        )
        assert a.outputs == b.outputs
