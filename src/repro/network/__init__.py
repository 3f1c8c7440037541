"""Multi-hop beeping networks — the general model behind the paper's channel.

The paper studies the *single-hop* beeping channel (every party hears
every other), which is the complete-graph case of the beeping **network**
model of [CK10] and the MIS/leader-election literature the paper cites
([AAB⁺13, FSW14, SJX13, ...]): nodes sit on a graph and each round every
node either beeps or listens, hearing a beep iff some *neighbor* beeped.

This subpackage provides that substrate end to end:

* :class:`Topology` / :class:`TopologySpec` — graphs as reproducible
  data: dual-CSR adjacency with sparse neighborhood evaluation, plus a
  declarative, JSON-round-trippable spec (generator name + params +
  seed) resolved through the :data:`TOPOLOGIES` registry (complete,
  ring, grid, random geometric, scale-free).
* :class:`NetworkBeepingChannel` — a graph-structured channel compatible
  with the package's :class:`~repro.channels.base.Channel` interface
  (per-node views; per-node flip noise and per-edge erasure noise, with
  genuine-noise accounting).  On the complete graph with
  ``hear_self=True`` it is bitwise identical to the single-hop
  independent-noise channel.
* Tasks — :class:`MISTask` (Luby-style election after [AAB⁺13]),
  :class:`BroadcastTask` (flooding), :class:`NeighborORTask` (one-round
  neighborhood OR), :class:`NetworkSizeEstimateTask` (flooded [BKK⁺16]
  size estimation).
* :class:`LocalBroadcastSimulator` — Davies' degree-calibrated
  repetition scheme, the multi-hop member of the simulation-scheme
  family (``Θ(log ΔT)`` overhead instead of ``Θ(log n)``).

The paper's own simulators remain single-hop constructions (they need
the OR-of-everyone channel and, mostly, a shared transcript); full
interactive coding for multi-hop beeping is the open frontier the
paper's related-work section points at ([CHHZ17, EKS19]).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "NetworkBeepingChannel": "repro.network.channel",
    "ring": "repro.network.channel",
    "grid": "repro.network.channel",
    "complete": "repro.network.channel",
    "MISTask": "repro.network.mis",
    "mis_protocol": "repro.network.mis",
    "BroadcastTask": "repro.network.tasks",
    "NeighborORTask": "repro.network.tasks",
    "NetworkSizeEstimateTask": "repro.network.tasks",
    "LocalBroadcastSimulator": "repro.network.local_broadcast",
    "local_broadcast_repetitions": "repro.network.local_broadcast",
    "TOPOLOGIES": "repro.network.topology",
    "Topology": "repro.network.topology",
    "TopologyFamily": "repro.network.topology",
    "TopologySpec": "repro.network.topology",
    "parse_topology": "repro.network.topology",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
