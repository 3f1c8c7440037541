"""Declarative sweep grids: the serializable "what runs" of a sweep.

:func:`repro.analysis.sweep.run_sweep` takes a ``point_builder``
*callable*, which is perfect for programmatic use and useless for a
service — a callable cannot be hashed into a cache key, written into a
shard file, or reconstructed by ``repro sweep resume`` in a fresh
process.  :class:`SweepGrid` is the declarative equivalent: task,
channel, epsilon, simulator and the n-grid as plain data, with canonical
JSON round-tripping (:meth:`SweepGrid.to_json` / :meth:`SweepGrid.from_json`)
and a content address (:meth:`SweepGrid.grid_key`).

The task/channel/simulator registries here are the single source of
truth shared with the CLI: every command (``repro demo``/``trace``/
``overhead`` and the sweep verbs) builds a :class:`SweepGrid`, whose
construction is the one check of the names and of the single-hop/network
rules, and runs :meth:`SweepGrid.build_point`.  So every scenario the
CLI can run, the sweep service can cache and shard.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer
    from repro.parallel import TrialRunner
    from repro.tasks.base import Task

from repro._exports import load
from repro.analysis.sweep import Executor, SweepSpec
from repro.errors import ConfigurationError
from repro.network.topology import (
    TOPOLOGIES,
    TopologySpec,
    parse_topology,
)
from repro.parallel import (
    ChannelSpec,
    ProtocolExecutor,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.service.canon import canonical_json, content_key, point_key

__all__ = [
    "CHANNELS",
    "NETWORK_CHANNELS",
    "NETWORK_SIMULATORS",
    "NETWORK_TASKS",
    "SIMULATORS",
    "TASKS",
    "TOPOLOGIES",
    "TopologySpec",
    "parse_topology",
    "SweepGrid",
]

# The registries name every class by its import path and hold a builder
# taking the class: checking a grid's names (``SweepGrid.__post_init__``)
# reads only the keys, and ``build_point`` imports the one task, channel
# and simulator a point runs.

# Channel registry: name -> (channel class path, ChannelSpec builder).
# Specs (not closures) so every executor pickles and ``--workers`` > 1
# actually parallelises; the per-trial seed is injected by
# ChannelSpec.make.
CHANNELS: dict[str, tuple[str, Callable[[type, float], ChannelSpec]]] = {
    "noiseless": (
        "repro.channels.noiseless.NoiselessChannel",
        lambda cls, epsilon: ChannelSpec.of(cls, seed_kwarg=None),
    ),
    "correlated": (
        "repro.channels.correlated.CorrelatedNoiseChannel",
        ChannelSpec.of,
    ),
    "one-sided": (
        "repro.channels.one_sided.OneSidedNoiseChannel",
        ChannelSpec.of,
    ),
    "suppression": (
        "repro.channels.one_sided.SuppressionNoiseChannel",
        ChannelSpec.of,
    ),
    "independent": (
        "repro.channels.independent.IndependentNoiseChannel",
        ChannelSpec.of,
    ),
    "burst": (
        "repro.channels.burst.BurstNoiseChannel",
        lambda cls, epsilon: ChannelSpec.of(
            cls.matched_to, epsilon, burst_length=8
        ),
    ),
}

#: Simulator registry: name -> simulator class path (``None``: the raw
#: noiseless protocol over the noisy channel).
SIMULATORS: dict[str, str | None] = {
    "none": None,
    "repetition": "repro.simulation.repetition_sim.RepetitionSimulator",
    "chunk": "repro.simulation.chunked.ChunkCommitSimulator",
    "hierarchical": "repro.simulation.hierarchical.HierarchicalSimulator",
    "rewind": "repro.simulation.rewind.RewindSimulator",
    "local-broadcast": "repro.network.local_broadcast.LocalBroadcastSimulator",
}

#: Task registry: name -> (task class path, builder from the class and n).
TASKS: dict[str, tuple[str, Callable[[type, int], Task]]] = {
    "input-set": ("repro.tasks.input_set.InputSetTask", lambda cls, n: cls(n)),
    "or": ("repro.tasks.or_task.OrTask", lambda cls, n: cls(n)),
    "parity": ("repro.tasks.parity.ParityTask", lambda cls, n: cls(n)),
    "max-id": (
        "repro.tasks.leader_election.MaxIdTask",
        lambda cls, n: cls(n, id_bits=max(4, n.bit_length() + 2)),
    ),
    "bit-exchange": (
        "repro.tasks.multiplication.BitExchangeTask",
        lambda cls, n: cls(max(2, n)),
    ),
    "size-estimate": (
        "repro.tasks.counting.SizeEstimateTask",
        lambda cls, n: cls(n),
    ),
    "pointer-chasing": (
        "repro.tasks.pointer_chasing.PointerChasingTask",
        lambda cls, n: cls(depth=max(2, n), domain_bits=3),
    ),
}

# Network registries: what a scenario *with a topology* may combine.
# Tasks take the built Topology; channels wrap NetworkBeepingChannel with
# the TopologySpec kept declarative inside the ChannelSpec (picklable,
# content-addressable); simulators are the schemes that work with
# per-node views and no shared transcript.
NETWORK_TASKS: dict[str, str] = {
    "mis": "repro.network.mis.MISTask",
    "broadcast": "repro.network.tasks.BroadcastTask",
    "neighbor-or": "repro.network.tasks.NeighborORTask",
    "net-size": "repro.network.tasks.NetworkSizeEstimateTask",
}

#: Network channel registry: name -> ChannelSpec builder over
#: ``NetworkBeepingChannel`` (passed in as ``cls``).
NETWORK_CHANNELS: dict[
    str, Callable[[type, TopologySpec, float], ChannelSpec]
] = {
    "noiseless": lambda cls, spec, epsilon: ChannelSpec.of(
        cls, topology=spec, seed_kwarg=None
    ),
    "independent": lambda cls, spec, epsilon: ChannelSpec.of(
        cls, epsilon, topology=spec
    ),
    "edge-erasure": lambda cls, spec, epsilon: ChannelSpec.of(
        cls, topology=spec, edge_epsilon=epsilon
    ),
}

_NETWORK_CHANNEL = "repro.network.channel.NetworkBeepingChannel"

NETWORK_SIMULATORS = ("none", "repetition", "local-broadcast")


def _require(name: str, registry: Iterable[str], problem: str) -> None:
    """Unless ``name`` is in ``registry``, raise ``problem`` (formatted
    with the name) followed by the registry's choices."""
    if name not in registry:
        raise ConfigurationError(
            f"{problem.format(name)} (choose from {sorted(registry)})"
        )


@dataclass(frozen=True)
class SweepGrid:
    """A fully declarative sweep: scenario + n-grid + execution knobs.

    Everything that shapes the numbers, as plain data — so the whole
    sweep serializes canonically (:meth:`to_json`), revives in another
    process (:meth:`from_json`), and addresses its cached points
    (:meth:`point_key`).  Runner/observer choices are deliberately *not*
    part of a grid: they cannot change results.

    Attributes:
        task: Task registry name (see :data:`TASKS`).
        ns: Party counts, one grid point each (order is identity: the
            same values in a different order is a different sweep).
        channel: Channel registry name (see :data:`CHANNELS`).
        epsilon: Channel noise rate, in ``[0, 1)``.
        simulator: Simulator registry name; ``"none"`` runs the raw
            noiseless protocol over the noisy channel.
        trials: Trials per grid point.
        seed: Master seed (point ``i`` derives
            ``derive_seed(seed, f"point[{i}]")``).
        topology: Optional :class:`~repro.network.topology.TopologySpec`
            (or its dict form) turning the sweep into a network sweep:
            tasks resolve through :data:`NETWORK_TASKS`, channels through
            :data:`NETWORK_CHANNELS`, and each grid ``n`` builds the
            generator at that size (a size-pinned spec fixes ``n``).
    """

    SCHEMA_VERSION = 1

    task: str = "input-set"
    ns: tuple[int, ...] = (4, 8)
    channel: str = "correlated"
    epsilon: float = 0.1
    simulator: str = "chunk"
    trials: int = 10
    seed: int = 0
    topology: TopologySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        if not self.ns:
            raise ConfigurationError("SweepGrid needs at least one n")
        if any(n < 1 for n in self.ns):
            raise ConfigurationError(f"party counts must be >= 1: {self.ns}")
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {self.epsilon}"
            )
        topology = self.topology
        if topology is not None and not isinstance(topology, TopologySpec):
            topology = TopologySpec.from_dict(topology)
            object.__setattr__(self, "topology", topology)
        # The one place registry names and the single-hop/network rules
        # are checked: build_point and every CLI command rely on it.
        if topology is None:
            _require(self.task, TASKS, "unknown task {!r}")
            _require(self.channel, CHANNELS, "unknown channel {!r}")
            _require(self.simulator, SIMULATORS, "unknown simulator {!r}")
            if self.simulator == "local-broadcast":
                raise ConfigurationError(
                    "the local-broadcast scheme is topology-calibrated; "
                    "pass a topology (e.g. --topology grid:8x8)"
                )
            return
        _require(self.task, NETWORK_TASKS, "unknown network task {!r}")
        _require(
            self.channel, NETWORK_CHANNELS, "channel {!r} has no network form"
        )
        _require(self.simulator, SIMULATORS, "unknown simulator {!r}")
        _require(
            self.simulator,
            NETWORK_SIMULATORS,
            "simulator {!r} needs the single-hop shared transcript",
        )
        # Every grid n must be compatible with a size-pinned spec (with_n
        # raises on mismatch).
        for n in self.ns:
            topology.with_n(n)

    @property
    def total_points(self) -> int:
        """How many grid points this sweep has."""
        return len(self.ns)

    def spec(
        self,
        runner: "TrialRunner | None" = None,
        observe: "Observer | None" = None,
    ) -> SweepSpec:
        """The :class:`SweepSpec` this grid runs under."""
        return SweepSpec(
            trials=self.trials, seed=self.seed, runner=runner, observe=observe
        )

    def build_point(self, n: int) -> tuple[Task, Executor, dict[str, Any]]:
        """The ``point_builder`` contract for one grid value: the task at
        party count ``n`` and the picklable executor every run entry point
        shares.

        Names were checked at construction.  With a topology, the task is
        built on the spec's graph at size ``n`` and the channel embeds the
        spec declaratively.
        """
        params: dict[str, Any] = {"n": n, "epsilon": self.epsilon}
        if self.topology is None:
            task_path, build_task = TASKS[self.task]
            task = build_task(load(task_path), n)
            channel_path, build_channel = CHANNELS[self.channel]
            channel = build_channel(load(channel_path), self.epsilon)
        else:
            topology = self.topology.with_n(n)
            task = load(NETWORK_TASKS[self.task])(topology.build())
            channel = NETWORK_CHANNELS[self.channel](
                load(_NETWORK_CHANNEL), topology, self.epsilon
            )
            params["topology"] = topology.label()
        simulator = SIMULATORS[self.simulator]
        if simulator is None:
            return task, ProtocolExecutor(task=task, channel=channel), params
        executor = SimulationExecutor(
            task=task,
            channel=channel,
            simulator=SimulatorSpec.of(load(simulator)),
        )
        return task, executor, params

    # -- serialization / addressing -------------------------------------

    def workload(self) -> dict[str, Any]:
        """The canonical JSON-able description hashed into cache keys.

        The ``topology`` entry appears only on network sweeps, so every
        pre-existing single-hop cache key is unchanged.  The runner is
        deliberately absent: every backend — serial, process, vectorized
        (including the trial-batched network kernel), composed — is
        bitwise-identical per ``(seed, index)``, so a cache warmed by
        one backend hits from any other.
        """
        workload: dict[str, Any] = {
            "schema": self.SCHEMA_VERSION,
            "task": self.task,
            "ns": list(self.ns),
            "channel": self.channel,
            "epsilon": self.epsilon,
            "simulator": self.simulator,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.topology is not None:
            workload["topology"] = self.topology.to_dict()
        return workload

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, byte-stable) for this grid."""
        return canonical_json(self.workload())

    @classmethod
    def from_json(cls, payload: str | dict[str, Any]) -> "SweepGrid":
        """Rebuild a grid from :meth:`to_json` output (string or dict)."""
        data = json.loads(payload) if isinstance(payload, str) else payload
        schema = data.get("schema")
        if schema != cls.SCHEMA_VERSION:
            raise ConfigurationError(
                f"SweepGrid schema {schema!r} is not supported "
                f"(expected {cls.SCHEMA_VERSION})"
            )
        topology = data.get("topology")
        return cls(
            task=str(data["task"]),
            ns=tuple(int(n) for n in data["ns"]),
            channel=str(data["channel"]),
            epsilon=float(data["epsilon"]),
            simulator=str(data["simulator"]),
            trials=int(data["trials"]),
            seed=int(data["seed"]),
            topology=(
                None
                if topology is None
                else TopologySpec.from_dict(topology)
            ),
        )

    def grid_key(self) -> str:
        """The content address of the whole sweep (names manifests)."""
        return content_key(self.workload())

    def point_key(self, index: int) -> str:
        """The cache key of grid point ``index``."""
        if not 0 <= index < self.total_points:
            raise ConfigurationError(
                f"point index {index} outside [0, {self.total_points})"
            )
        return point_key(self.spec(), self.workload(), index)
