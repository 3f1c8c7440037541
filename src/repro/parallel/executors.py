"""Picklable sweep executors.

The sweep layer accepts any ``(inputs, trial_seed) -> ExecutionResult``
callable.  A closure works on the serial runner only: it cannot cross a
process boundary, so :class:`~repro.parallel.runner.ProcessPoolRunner`
degrades to its serial fallback, and the ``auto`` planner and the
vectorized backend cannot see what it runs, so they never collapse it.
The dataclasses here are the executors every in-package sweep (the CLI,
the sweep service, the experiments E1–E13) passes instead: they name the
task, the channel recipe, and (optionally) the simulator recipe as plain
data, and build everything fresh per trial from the per-trial seed.  A
fresh simulator per trial equals one shared instance, since simulators
keep no state across ``simulate`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.base import Channel
    from repro.core.result import ExecutionResult
    from repro.observe import Observer
    from repro.simulation.base import Simulator
    from repro.tasks.base import Task

__all__ = [
    "ChannelSpec",
    "SimulatorSpec",
    "ProtocolExecutor",
    "SimulationExecutor",
]


def _freeze_kwargs(kwargs: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class ChannelSpec:
    """A channel recipe: ``factory(*args, **kwargs, rng=trial_seed)``.

    ``factory`` is a channel class or classmethod (picklable by
    reference); the per-trial seed is injected under ``seed_kwarg``
    (``None`` for seedless channels such as ``NoiselessChannel``).

    Network channels carry their graph as a declarative
    :class:`~repro.network.topology.TopologySpec` under ``topology``
    rather than a live :class:`~repro.network.graph.Topology`: the
    spec is tiny, picklable and content-addressable (sweep cache keys
    hash the recipe, not the adjacency arrays), and :meth:`make` builds
    the graph inside the worker — memoized, so per-trial construction
    costs a cache lookup — and passes it as the factory's first
    positional argument.

    >>> from repro.channels import CorrelatedNoiseChannel
    >>> spec = ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
    >>> spec.make(7).epsilon
    0.1
    """

    factory: Callable[..., Channel]
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()
    seed_kwarg: str | None = "rng"
    topology: Any = None  # TopologySpec | None (Any: layering, picklability)

    @classmethod
    def of(
        cls,
        factory: Callable[..., Channel],
        *args: Any,
        seed_kwarg: str | None = "rng",
        topology: Any = None,
        **kwargs: Any,
    ) -> "ChannelSpec":
        """Convenience constructor mirroring the factory's call shape."""
        return cls(factory, args, _freeze_kwargs(kwargs), seed_kwarg, topology)

    def make(self, trial_seed: int) -> Channel:
        """Build the channel for one trial."""
        kwargs = dict(self.kwargs)
        if self.seed_kwarg is not None:
            kwargs[self.seed_kwarg] = trial_seed
        args = self.args
        if self.topology is not None:
            args = (self.topology.build(), *args)
        return self.factory(*args, **kwargs)


@dataclass(frozen=True)
class SimulatorSpec:
    """A simulator recipe: ``factory(*args, **kwargs)`` per trial.

    Simulators are stateless across ``simulate`` calls (all randomness
    comes from the channel and ``shared_seed``), so constructing one per
    trial is equivalent to sharing an instance — and safe under
    multiprocessing.
    """

    factory: Callable[..., Simulator]
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls, factory: Callable[..., Simulator], *args: Any, **kwargs: Any
    ) -> "SimulatorSpec":
        """Convenience constructor mirroring the factory's call shape."""
        return cls(factory, args, _freeze_kwargs(kwargs))

    def make(self) -> Simulator:
        """Build the simulator for one trial."""
        return self.factory(*self.args, **dict(self.kwargs))


@dataclass(frozen=True)
class ProtocolExecutor:
    """Run the task's noiseless protocol raw over a per-trial channel.

    ``record_sent=False`` is the memory lever for long Monte-Carlo sweeps:
    the columnar transcript then stores three bytes per round regardless
    of the party count, and trial outcomes (outputs, rounds, stats) are
    unaffected — the engine's fast path is bitwise identical either way.
    """

    task: Task
    channel: ChannelSpec
    record_sent: bool = True

    def __call__(
        self,
        inputs: Sequence[Any],
        trial_seed: int,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        # Imported here: a sweep whose points all come from the result
        # store never runs the engine.
        from repro.core.engine import run_protocol

        return run_protocol(
            self.task.noiseless_protocol(),
            inputs,
            self.channel.make(trial_seed),
            record_sent=self.record_sent,
            observe=observe,
        )


@dataclass(frozen=True)
class SimulationExecutor:
    """Run the task's protocol through a simulation scheme per trial."""

    task: Task
    channel: ChannelSpec
    simulator: SimulatorSpec

    def __call__(
        self,
        inputs: Sequence[Any],
        trial_seed: int,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        return self.simulator.make().simulate(
            self.task.noiseless_protocol(),
            inputs,
            self.channel.make(trial_seed),
            observe=observe,
        )
