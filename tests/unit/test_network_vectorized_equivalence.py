"""Cross-backend equivalence for the batched network kernel.

The network route of :mod:`repro.vectorized.network` carries the same
contract as the single-hop collapses: *bitwise* agreement with the
scalar reference, per trial — same ``TrialRecord`` for the same
``(seed, index)`` regardless of backend.  These tests drive both
runners over the graph protocol grid:

* three topology families (grid, ring, geometric) crossed with the
  three batched protocol drivers (neighbor-OR, broadcast, MIS), the
  three single-noise channel configurations (noiseless, per-node
  independent, per-edge erasure), raw and under the local-broadcast
  repetition wrapper — every combination must run batched (no silent
  fallback making the test vacuous) and match the scalar records;
* batches the kernel does *not* cover — per-node epsilon vectors,
  combined node+edge noise, tasks and simulators outside the driver
  registry — must take the scalar fallback, with a reason, and still
  produce identical records;
* local-broadcast bursts under per-node noise on a 12×12 grid, with
  the repetition count forced to 1, 3 and 61: a 61-round burst draws
  61 × 144 = 8784 flips per trial, across the 4096-column prefetch and
  the 8192-draw refill block, and the scalar records must show both
  up- and down-flips so the noise accounting is really compared;
* sampled vectorized trials replay bitwise on the scalar engine from
  their ``(seed, index)`` alone.

Observer events and the pool backends' stripes are checked for every
registered backend in ``test_runner_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.network import (
    BroadcastTask,
    LocalBroadcastSimulator,
    MISTask,
    NeighborORTask,
    NetworkBeepingChannel,
    NetworkSizeEstimateTask,
    TopologySpec,
)
from repro.parallel import (
    ChannelSpec,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    run_trial,
)
from repro.simulation import RepetitionSimulator
from repro.simulation.params import SimulationParameters
from repro.vectorized import VectorizedRunner

TOPOLOGY_SPECS = {
    "grid": TopologySpec.of("grid", rows=3, cols=3),
    "ring": TopologySpec.of("ring", n=7),
    "geometric": TopologySpec.of("geometric", n=8, radius=0.7, seed=3),
}

#: The three single-noise channel configurations the kernel batches.
NOISE_KINDS = ("noiseless", "node", "edge")

TASKS = ("neighbor-or", "broadcast", "mis")

TRIALS = 5


def _channel_spec(topology_spec, noise):
    if noise == "node":
        return ChannelSpec.of(
            NetworkBeepingChannel, 0.05, topology=topology_spec
        )
    if noise == "edge":
        return ChannelSpec.of(
            NetworkBeepingChannel, topology=topology_spec, edge_epsilon=0.1
        )
    return ChannelSpec.of(
        NetworkBeepingChannel, topology=topology_spec, seed_kwarg=None
    )


def _task(name, topology_spec):
    topology = topology_spec.build()
    if name == "neighbor-or":
        return NeighborORTask(topology)
    if name == "broadcast":
        return BroadcastTask(topology)
    return MISTask(topology, cycles=2)


def _executor(task, channel_spec, wrapped):
    if wrapped:
        return SimulationExecutor(
            task=task,
            channel=channel_spec,
            simulator=SimulatorSpec.of(LocalBroadcastSimulator),
        )
    return ProtocolExecutor(task, channel_spec)


def _run(runner, task, executor, seed):
    """Records, or the raised exception (compared across backends)."""
    try:
        return runner.run_trials(task, executor, TRIALS, seed=seed).records
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return (type(exc), str(exc))


class TestNetworkCrossBackendEquivalence:
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_SPECS))
    @pytest.mark.parametrize("task_name", TASKS)
    @pytest.mark.parametrize("noise", NOISE_KINDS)
    @pytest.mark.parametrize("wrapped", [False, True], ids=["raw", "lb"])
    def test_records_bitwise_equal(self, family, task_name, noise, wrapped):
        topology_spec = TOPOLOGY_SPECS[family]
        task = _task(task_name, topology_spec)
        executor = _executor(
            task, _channel_spec(topology_spec, noise), wrapped
        )
        seed = 20260807
        serial = _run(SerialRunner(), task, executor, seed)
        vectorized_runner = VectorizedRunner()
        vectorized = _run(vectorized_runner, task, executor, seed)
        assert vectorized == serial
        # Every combination above has a batched form; a fallback here
        # would make the equivalence vacuous.
        assert vectorized_runner.last_fallback_reason is None

    def test_sampled_trials_replay_on_scalar_engine(self):
        """Any trial a batched network sweep records can be reproduced
        by the scalar ``run_trial`` from its ``(seed, index)`` alone."""
        topology_spec = TOPOLOGY_SPECS["grid"]
        for noise in NOISE_KINDS:
            task = MISTask(topology_spec.build(), cycles=2)
            executor = ProtocolExecutor(
                task, _channel_spec(topology_spec, noise)
            )
            runner = VectorizedRunner()
            batch = runner.run_trials(task, executor, 6, seed=99)
            assert runner.last_fallback_reason is None
            for index in (0, 2, 5):  # sampled subset
                assert batch.records[index] == run_trial(
                    task, executor, 99, index
                ), (noise, index)


#: 144 nodes: a k = 61 burst is 8784 flip draws per trial.
BURST_GRID = TopologySpec.of("grid", rows=12, cols=12)


class TestLocalBroadcastBursts:
    """Fused per-node-noise bursts against the scalar engine's ``k``
    physical rounds, at sizes where one burst's draws cross the
    prefetch and refill boundaries of the flip streams."""

    def _assert_bursts_equal(self, task, channel_spec, repetitions):
        executor = SimulationExecutor(
            task=task,
            channel=channel_spec,
            simulator=SimulatorSpec.of(
                LocalBroadcastSimulator,
                params=SimulationParameters(repetitions=repetitions),
            ),
        )
        seed = 1414
        serial = SerialRunner().run_trials(task, executor, 3, seed=seed)
        runner = VectorizedRunner()
        vectorized = runner.run_trials(task, executor, 3, seed=seed)
        assert runner.last_fallback_reason is None
        assert vectorized.records == serial.records
        assert {record.channel_rounds for record in serial.records} == {
            repetitions * task.noiseless_protocol().length()
        }
        assert sum(record.flips_up for record in serial.records) > 0
        assert sum(record.flips_down for record in serial.records) > 0

    @pytest.mark.parametrize("repetitions", [1, 3, 61])
    @pytest.mark.parametrize("task_name", ["neighbor-or", "mis"])
    def test_node_noise_bursts_bitwise_equal(self, task_name, repetitions):
        self._assert_bursts_equal(
            _task(task_name, BURST_GRID),
            _channel_spec(BURST_GRID, "node"),
            repetitions,
        )

    @pytest.mark.parametrize("repetitions", [1, 61])
    def test_hear_self_bursts_bitwise_equal(self, repetitions):
        self._assert_bursts_equal(
            NeighborORTask(BURST_GRID.build()),
            ChannelSpec.of(
                NetworkBeepingChannel,
                0.05,
                topology=BURST_GRID,
                hear_self=True,
            ),
            repetitions,
        )


class TestNetworkFallbacks:
    """Batches outside the kernel's coverage fall back — with a reason —
    and still match the scalar records (non-vacuity of the route)."""

    def _assert_fallback(self, task, executor, expect=None):
        seed = 404
        serial = _run(SerialRunner(), task, executor, seed)
        runner = VectorizedRunner()
        vectorized = _run(runner, task, executor, seed)
        assert vectorized == serial
        assert runner.last_fallback_reason is not None
        if expect is not None:
            assert expect in runner.last_fallback_reason

    def test_node_epsilon_vectors_fall_back(self):
        topology_spec = TOPOLOGY_SPECS["ring"]
        task = NeighborORTask(topology_spec.build())
        executor = ProtocolExecutor(
            task,
            ChannelSpec.of(
                NetworkBeepingChannel,
                topology=topology_spec,
                node_epsilons=[0.02] * 7,
            ),
        )
        self._assert_fallback(task, executor)

    def test_combined_node_and_edge_noise_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NeighborORTask(topology_spec.build())
        executor = ProtocolExecutor(
            task,
            ChannelSpec.of(
                NetworkBeepingChannel,
                0.05,
                topology=topology_spec,
                edge_epsilon=0.1,
            ),
        )
        self._assert_fallback(task, executor)

    def test_unregistered_protocol_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NetworkSizeEstimateTask(topology_spec.build())
        executor = ProtocolExecutor(
            task, _channel_spec(topology_spec, "node")
        )
        self._assert_fallback(task, executor)

    def test_non_local_broadcast_simulator_falls_back(self):
        topology_spec = TOPOLOGY_SPECS["grid"]
        task = NeighborORTask(topology_spec.build())
        executor = SimulationExecutor(
            task=task,
            channel=_channel_spec(topology_spec, "node"),
            simulator=SimulatorSpec.of(RepetitionSimulator),
        )
        self._assert_fallback(task, executor)
