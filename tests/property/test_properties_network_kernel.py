"""Property tests for the batched network kernel's plan and step.

:meth:`~repro.vectorized.network.NetworkBatchKernel.step` takes one of
two paths per call, by the beeping set's delivery count: a sparse set
is planned (:meth:`~repro.vectorized.network.NetworkBatchKernel.plan`:
the out-neighborhood expansion grouped by a stable argsort, cached
while the set holds), a dense one gets no plan and every in-CSR row is
ORed blockwise over a masked copy of the beeping rows.  The plan must be
the tuple the test computes itself from the expansion + stable argsort,
and both paths must give every trial's brute-force OR over
in-neighbours of the ``active`` rows only: ``B`` carries stale 1-rows
outside ``active``, as the MIS driver leaves them, and no path may read
them.

Cases are seeded random ``Topology.from_edges`` graphs, directed and
symmetric, with isolated nodes (and the edgeless graph), crossed with
empty, single-node, sparse, dense and all-node beeping sets, both
``hear_self`` settings and 1–5, 8 or 16 trials (so :meth:`step` ORs
rows read as 1-, 2-, 4- and 8-byte words).  Each case is checked under the
kernel's own rule and with each path forced; the natural rule must
reach both paths over the case set, or the check would be vacuous for
one of them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.vectorized.network as vnetwork
from repro.network import Topology
from repro.vectorized.network import NetworkBatchKernel

SET_KINDS = ("empty", "single", "sparse", "dense", "all")

CASE_SEEDS = range(24)


def _graph(rng: random.Random) -> Topology:
    """A random graph with isolated nodes: arcs only among the first
    ``live`` nodes, so nodes ``live..n-1`` have no edges at all."""
    n = rng.randint(1, 120)
    live = rng.randint(0, n)
    arcs = rng.randint(0, 4 * live) if live > 1 else 0
    src = np.array([rng.randrange(live) for _ in range(arcs)], dtype=np.int64)
    dst = np.array([rng.randrange(live) for _ in range(arcs)], dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if rng.random() < 0.5:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # Relabel so the isolated nodes are spread over the id range, the
    # first and last ids included.
    relabel = np.array(rng.sample(range(n), n), dtype=np.int64)
    return Topology.from_edges(n, relabel[src], relabel[dst])


def _ring(n: int) -> Topology:
    nodes = np.arange(n)
    return Topology.from_edges(
        n,
        np.concatenate((nodes, (nodes + 1) % n)),
        np.concatenate(((nodes + 1) % n, nodes)),
    )


def _beeping_set(rng: random.Random, n: int, kind: str) -> np.ndarray:
    if kind == "empty":
        chosen: list[int] = []
    elif kind == "single":
        chosen = [rng.randrange(n)]
    elif kind == "sparse":
        chosen = rng.sample(range(n), max(1, n // 50))
    elif kind == "dense":
        chosen = [node for node in range(n) if rng.random() < 0.6]
    else:
        chosen = list(range(n))
    return np.array(sorted(chosen), dtype=np.int64)


def _beeps(
    rng: random.Random, n: int, trials: int, act, active
) -> np.ndarray:
    """``(n, trials)`` bits whose non-zero rows inside ``active`` are
    exactly ``act``, and whose rows outside ``active`` are stale: about
    half of them all ones."""
    B = np.zeros((n, trials), dtype=np.uint8)
    for node in act:
        row = [rng.randint(0, 1) for _ in range(trials)]
        row[rng.randrange(trials)] = 1
        B[node] = row
    for node in np.setdiff1d(np.arange(n), active):
        if rng.random() < 0.5:
            B[node] = 1
    return B


def _reference_plan(topology: Topology, act) -> tuple:
    """Expansion in beeper order, grouped by one stable argsort."""
    sources, targets = [], []
    for node in act:
        for target in topology.out_neighbors(int(node)):
            sources.append(int(node))
            targets.append(target)
    targets = np.array(targets, dtype=np.int64)
    order = np.argsort(targets, kind="stable")
    grouped = targets[order]
    starts = [
        k for k in range(len(grouped)) if k == 0 or grouped[k] != grouped[k - 1]
    ]
    return np.array(sources, dtype=np.int64)[order], starts, grouped[starts]


def _reference_heard(
    topology: Topology, B, hear_self: bool, active
) -> np.ndarray:
    """Every node's OR over its in-neighbours' rows of ``B``, reading
    only the ``active`` rows."""
    visible = np.zeros_like(B)
    visible[active] = B[active]
    heard = np.zeros_like(B)
    for node in range(topology.n):
        for source in topology.in_neighbors(node):
            heard[node] |= visible[source]
        if hear_self:
            heard[node] |= visible[node]
    return heard


def _assert_plan_equal(plan, reference) -> None:
    assert len(plan) == 3
    for got, want in zip(plan, reference):
        assert np.array_equal(got, want), (got, want)


def _cases():
    for seed in CASE_SEEDS:
        rng = random.Random(seed)
        topology = _graph(rng)
        for kind in SET_KINDS:
            act = _beeping_set(rng, topology.n, kind)
            yield seed, kind, topology, act, rng


def _counting(kernel: NetworkBatchKernel) -> list[int]:
    """Count the kernel's sparse plans (each expands its set once)."""
    calls = [0]
    gather = kernel._gather

    def counted(*args):
        calls[0] += 1
        return gather(*args)

    kernel._gather = counted
    return calls


@pytest.mark.parametrize("hear_self", [False, True])
def test_plan_and_step_match_references(hear_self):
    paths = {"dense": 0, "sparse": 0}
    for seed, kind, topology, act, rng in _cases():
        trials = rng.choice((1, 2, 3, 4, 5, 8, 16))
        reference = _reference_plan(topology, act)
        for forced in (None, "dense", "sparse"):
            kernel = NetworkBatchKernel(topology, trials, hear_self)
            if forced == "dense":
                kernel._dense_from = -1.0
            elif forced == "sparse":
                kernel._dense_from = float("inf")
            plans = _counting(kernel)
            plan = kernel.plan(act)
            dense = plan is None
            by_rule = len(reference[0]) > (
                vnetwork._DENSE_PLAN_SHARE
                * (1 + trials / vnetwork._DENSE_ROW_BYTES)
                * topology.edges
            )
            assert dense == (by_rule if forced is None else forced == "dense")
            assert plans[0] == (0 if dense else 1)
            if not dense:
                _assert_plan_equal(plan, reference)
            if forced is None and act.size and topology.edges:
                paths["dense" if dense else "sparse"] += 1

            # ``active`` may list silent rows too; the kernel drops them
            # and never reads the stale rows outside it.
            extra = [node for node in range(topology.n) if rng.random() < 0.2]
            active = np.union1d(act, np.array(extra, dtype=np.int64))
            B = _beeps(rng, topology.n, trials, act, active)
            heard, touched = kernel.step(B, active)
            assert np.array_equal(
                heard, _reference_heard(topology, B, hear_self, active)
            ), (seed, kind, forced)
            if dense:
                assert touched is None
            else:
                expected_touched = reference[2]
                if hear_self:
                    expected_touched = np.union1d(expected_touched, act)
                assert np.array_equal(touched, expected_touched)
            # The next step starts from a clean buffer whichever path ran.
            heard, _ = kernel.step(B, act[:1])
            assert np.array_equal(
                heard, _reference_heard(topology, B, hear_self, act[:1])
            ), (seed, kind, forced)
    # Both paths are reached by the kernel's own rule.
    assert paths["dense"] > 0 and paths["sparse"] > 0, paths


def test_sparse_and_dense_sets_on_one_graph_take_both_groupings():
    """One 4000-node ring: a beeper or two is planned, half is dense."""
    n = 4000
    topology = _ring(n)
    kernel = NetworkBatchKernel(topology, 2)
    plans = _counting(kernel)
    for act, dense in (
        (np.array([7, 1999]), False),
        (np.arange(0, n, 2), True),
        (np.arange(n), True),
    ):
        plan = kernel.plan(act)
        if dense:
            assert plan is None
        else:
            _assert_plan_equal(plan, _reference_plan(topology, act))
        B = np.zeros((n, 2), dtype=np.uint8)
        B[act] = 1
        heard, _ = kernel.step(B, act)
        assert np.array_equal(heard, _reference_heard(topology, B, False, act))
    assert plans[0] == 1


@pytest.mark.parametrize("edges", [1, 2, 3, 5, 16, 1 << 20])
def test_dense_blocks_cover_every_row(monkeypatch, edges):
    """With blocks of a few in-edges, a dense step still ORs every row,
    however the block bounds fall."""
    topology = _ring(60)
    B = np.zeros((60, 3), dtype=np.uint8)
    B[::2] = (1, 0, 1)
    B[1::2] = (0, 1, 0)
    active = np.arange(60)
    reference = _reference_heard(topology, B, False, active)
    # A block holds ``edges`` in-edges of 3 trial bytes and an index.
    monkeypatch.setattr(vnetwork, "_OR_BLOCK_BYTES", edges * (3 + 8))
    kernel = NetworkBatchKernel(topology, 3)
    # The blocks tile the rows; each holds at most ``edges`` in-edges
    # plus one row's (a ring row has two).
    bounds = [low for low, _ in kernel._blocks] + [kernel._blocks[-1][1]]
    assert bounds[0] == 0 and bounds[-1] == 60
    assert all(high - low == 1 or 2 * (high - low) <= edges + 2
               for low, high in kernel._blocks)
    heard, touched = kernel.step(B, active)
    assert touched is None
    assert np.array_equal(heard, reference)


def test_cached_plan_is_reused_only_for_the_same_beeping_set():
    rng = random.Random(7)
    topology = _graph(rng)
    while topology.edges < 20:
        topology = _graph(rng)
    kernel = NetworkBatchKernel(topology, 3)
    # Every set gets a sparse plan, so the cache is exercised on all.
    kernel._dense_from = float("inf")
    plans = _counting(kernel)
    sets = [
        _beeping_set(rng, topology.n, kind) for kind in SET_KINDS
    ] + [np.array([topology.n - 1], dtype=np.int64)]
    for act in sets:
        before = plans[0]
        plan = kernel.plan(act)
        _assert_plan_equal(plan, _reference_plan(topology, act))
        # The same set, even as a fresh array, returns the cached tuple.
        assert kernel.plan(act.copy()) is plan
        assert plans[0] == before + 1
    for previous, act in zip(sets, sets[1:]):
        if np.array_equal(previous, act):
            continue
        cached = kernel.plan(previous)
        plan = kernel.plan(act)
        assert plan is not cached
        _assert_plan_equal(plan, _reference_plan(topology, act))
        # Going back re-plans rather than returning the other set's plan.
        _assert_plan_equal(
            kernel.plan(previous), _reference_plan(topology, previous)
        )


def test_step_reuses_the_plan_while_the_beeping_set_holds():
    """Different bits on the same beeping rows keep one plan; a new
    beeping row within the same ``active`` rows makes a new one.  On a
    200-node ring a beeper or two is well under the dense share."""
    topology = _ring(200)
    kernel = NetworkBatchKernel(topology, 2)
    plans = _counting(kernel)
    active = np.array([0, 1, 3], dtype=np.int64)
    B = np.zeros((200, 2), dtype=np.uint8)
    B[150] = 1  # stale, outside ``active``
    B[1] = (1, 0)
    kernel.step(B, active)
    plan = kernel._plan
    assert plan is not None and plans[0] == 1
    B[1] = (0, 1)
    heard, _ = kernel.step(B, active)
    assert kernel._plan is plan and plans[0] == 1
    assert np.array_equal(heard, _reference_heard(topology, B, False, active))
    B[3] = (1, 1)
    heard, _ = kernel.step(B, active)
    assert kernel._plan is not plan and plans[0] == 2
    assert np.array_equal(heard, _reference_heard(topology, B, False, active))
