"""Noise-resilient local broadcast over graph topologies (after Davies).

"Optimal Message-Passing with Noisy Beeps" (Davies, 2023) shows that in a
noisy beeping network each *local broadcast* — every node reliably
delivering one bit to its whole neighborhood — can be implemented at a
cost logarithmic in the neighborhood scale, not in the global network
size: the repetition budget needed for a majority vote to survive noise
in every neighborhood of a degree-``Δ`` graph over ``T`` virtual rounds
is ``Θ(log(ΔT))``, since a union bound only has to cover a node's own
receptions rather than all ``n`` parties ("Noisy Beeping Networks",
Ashkenazi–Gelles–Leshem, proves the matching model framework).

:class:`LocalBroadcastSimulator` realises that scheme in this package's
simulator form: every round of the inner (noiseless-network) protocol is
repeated ``k`` times over the noisy :class:`~repro.network.channel.
NetworkBeepingChannel` and each node majority-decodes its own receptions,
with

``k = Θ(log((Δ+1)·T))``  (smallest odd value whose Hoeffding bound meets
the configured error exponent; ``Δ`` = the topology's maximum in-degree,
``T`` = the inner length)

instead of the single-hop scheme's ``Θ(log n)``.  On bounded-degree
topologies (grids, geometric graphs below the connectivity threshold)
the overhead is therefore ``O(log T)`` regardless of ``n`` — the curve
:mod:`benchmarks.bench_micro` records into ``BENCH_network.json``.

The effective per-copy flip probability combines the channel's per-node
noise with its per-edge erasures (a reception can err because the node's
ear flipped, or because every delivery of the only supporting beep was
erased — union-bounded by ``ε_node + ε_edge``).  The per-round machinery
is shared with the single-hop repetition scheme
(:class:`~repro.simulation.repetition_sim.RepetitionWrappedProtocol`
driving :func:`~repro.simulation.primitives.repeated_bit` Burst tokens),
so executions run on the engine's scheduler.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError
from repro.network.channel import NetworkBeepingChannel
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.repetition_sim import RepetitionWrappedProtocol

__all__ = ["LocalBroadcastSimulator", "local_broadcast_repetitions"]


def local_broadcast_repetitions(
    max_degree: int,
    inner_length: int,
    epsilon: float,
    error_exponent: float = 3.0,
) -> int:
    """The ``Θ(log(ΔT))`` repetition count for neighborhood-local voting.

    Chooses the smallest odd ``k`` with
    ``exp(-2 k (1/2 - ε)²) ≤ ((Δ+1)·T)^{-error_exponent}``: a majority of
    ``k`` ε-noisy copies errs with at most that probability (Hoeffding),
    so a union bound over a node's ``T`` virtual-round decisions — the
    only decisions *its* correctness depends on — still vanishes.
    Compare :func:`~repro.simulation.params.repetitions_for`, whose union
    bound runs over all ``n`` parties; this one never mentions ``n``.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ConfigurationError(
            f"majority voting needs epsilon in [0, 0.5), got {epsilon}"
        )
    if max_degree < 0:
        raise ConfigurationError(
            f"max_degree must be >= 0, got {max_degree}"
        )
    if inner_length < 1:
        raise ConfigurationError(
            f"inner_length must be >= 1, got {inner_length}"
        )
    if epsilon == 0.0:
        return 1
    gap = 0.5 - epsilon
    scale = max((max_degree + 1) * inner_length, 2)
    needed = error_exponent * math.log(scale) / (2.0 * gap * gap)
    k = max(1, math.ceil(needed))
    return k if k % 2 == 1 else k + 1


class LocalBroadcastSimulator(Simulator):
    """Simulate a noiseless-network protocol over a noisy one by
    degree-calibrated repetition (Davies' local-broadcast scheme).

    Requires a :class:`~repro.network.channel.NetworkBeepingChannel`
    (the scheme's repetition count is a function of the topology's
    degree; there is nothing to calibrate against on a single-hop
    channel — use the single-hop schemes there).

    The repetition count is ``params.repetitions`` when set, else
    :func:`local_broadcast_repetitions` of the channel's maximum
    in-degree, the inner length, and the channel's effective per-copy
    flip probability (per-node ε plus per-edge erasure ε).
    """

    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, None]:
        if not isinstance(channel, NetworkBeepingChannel):
            raise ConfigurationError(
                "LocalBroadcastSimulator needs a NetworkBeepingChannel; "
                f"got {type(channel).__name__} (use the single-hop "
                "schemes for single-hop channels)"
            )
        inner_length = self._require_fixed_length(protocol)
        if self.noise_model is not None:
            epsilon = max(self.noise_model.up, self.noise_model.down)
        else:
            epsilon = channel.max_epsilon + channel.edge_epsilon
        max_degree = channel.topology.max_in_degree
        repetitions = self.params.repetitions
        if repetitions is None:
            repetitions = local_broadcast_repetitions(
                max_degree, inner_length, epsilon, self.params.error_exponent
            )
        report = self._report(
            inner_length,
            repetitions=repetitions,
            max_degree=max_degree,
            epsilon=epsilon,
        )
        return report, None

    def simulate(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        channel: Channel,
        *,
        shared_seed: int | None = None,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        report, _ = self.plan(protocol, channel)
        wrapped = RepetitionWrappedProtocol(
            protocol, report.extra["repetitions"]
        )
        return self._execute(
            wrapped, inputs, channel, report, shared_seed, observe
        )
