"""Property tests for the batched network kernel's plan and step.

:meth:`~repro.vectorized.network.NetworkBatchKernel.plan` builds one
delivery plan two ways — the out-neighborhood expansion grouped by a
stable argsort (sparse beeping sets), or the beeping in-edges read off
the in-CSR (dense sets) — and picks one per call by the set's
delivery count.  Both must give the tuple the test computes itself from
the expansion + stable argsort, and :meth:`step` must give every
trial's brute-force OR over in-neighbours.

Cases are seeded random ``Topology.from_edges`` graphs, directed and
symmetric, with isolated nodes (and the edgeless graph), crossed with
empty, single-node, sparse, dense and all-node beeping sets, both
``hear_self`` settings and 1–5, 8 or 16 trials (so :meth:`step` ORs
rows read as 1-, 2-, 4- and 8-byte words).  Each case is checked under the
kernel's own rule and with each grouping forced; the natural rule must
reach both groupings over the case set, or the check would be vacuous
for one of them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

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


def _beeps(rng: random.Random, n: int, trials: int, act) -> np.ndarray:
    """``(n, trials)`` bits whose non-zero rows are exactly ``act``."""
    B = np.zeros((n, trials), dtype=np.uint8)
    for node in act:
        row = [rng.randint(0, 1) for _ in range(trials)]
        row[rng.randrange(trials)] = 1
        B[node] = row
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


def _reference_heard(topology: Topology, B, hear_self: bool) -> np.ndarray:
    heard = np.zeros_like(B)
    for node in range(topology.n):
        for source in topology.in_neighbors(node):
            heard[node] |= B[source]
        if hear_self:
            heard[node] |= B[node]
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
    """Count the kernel's in-CSR plans (the dense grouping)."""
    calls = [0]
    in_csr_plan = kernel._in_csr_plan

    def counted(act):
        calls[0] += 1
        return in_csr_plan(act)

    kernel._in_csr_plan = counted
    return calls


@pytest.mark.parametrize("hear_self", [False, True])
def test_plan_and_step_match_references(hear_self):
    dense_plans = sparse_plans = 0
    for seed, kind, topology, act, rng in _cases():
        trials = rng.choice((1, 2, 3, 4, 5, 8, 16))
        reference = _reference_plan(topology, act)
        for forced in (None, "in-csr", "sort"):
            kernel = NetworkBatchKernel(topology, trials, hear_self)
            if forced == "in-csr":
                kernel._dense_from = -1.0
            elif forced == "sort":
                kernel._dense_from = float("inf")
            dense = _counting(kernel)
            _assert_plan_equal(kernel.plan(act), reference)
            if forced == "in-csr":
                assert dense[0] == 1
            elif forced == "sort":
                assert dense[0] == 0
            elif dense[0]:
                dense_plans += 1
            else:
                sparse_plans += 1

            B = _beeps(rng, topology.n, trials, act)
            # ``active`` may list silent rows too; the kernel drops them.
            extra = [node for node in range(topology.n) if rng.random() < 0.2]
            active = np.union1d(act, np.array(extra, dtype=np.int64))
            heard, touched = kernel.step(B, active)
            assert np.array_equal(
                heard, _reference_heard(topology, B, hear_self)
            ), (seed, kind, forced)
            expected_touched = reference[2]
            if hear_self:
                expected_touched = np.union1d(expected_touched, act)
            assert np.array_equal(touched, expected_touched)
    # Both groupings are reached by the kernel's own rule.
    assert dense_plans > 0 and sparse_plans > 0, (dense_plans, sparse_plans)


def test_sparse_and_dense_sets_on_one_graph_take_both_groupings():
    """One 4000-node ring: a beeper or two is sparse, half is dense."""
    n = 4000
    nodes = np.arange(n)
    topology = Topology.from_edges(
        n,
        np.concatenate((nodes, (nodes + 1) % n)),
        np.concatenate(((nodes + 1) % n, nodes)),
    )
    kernel = NetworkBatchKernel(topology, 2)
    dense = _counting(kernel)
    for act, in_csr in (
        (np.array([7, 1999]), 0),
        (np.arange(0, n, 2), 1),
        (np.arange(n), 2),
    ):
        _assert_plan_equal(kernel.plan(act), _reference_plan(topology, act))
        assert dense[0] == in_csr


def test_cached_plan_is_reused_only_for_the_same_beeping_set():
    rng = random.Random(7)
    topology = _graph(rng)
    while topology.edges < 20:
        topology = _graph(rng)
    kernel = NetworkBatchKernel(topology, 3)
    sets = [
        _beeping_set(rng, topology.n, kind) for kind in SET_KINDS
    ] + [np.array([topology.n - 1], dtype=np.int64)]
    for act in sets:
        plan = kernel.plan(act)
        _assert_plan_equal(plan, _reference_plan(topology, act))
        # The same set, even as a fresh array, returns the cached tuple.
        assert kernel.plan(act.copy()) is plan
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
    beeping row within the same ``active`` rows makes a new one."""
    topology = Topology.from_edges(
        5, np.array([0, 1, 1, 2, 3, 4]), np.array([1, 0, 2, 1, 4, 3])
    )
    kernel = NetworkBatchKernel(topology, 2)
    active = np.array([0, 1, 3], dtype=np.int64)
    B = np.zeros((5, 2), dtype=np.uint8)
    B[1] = (1, 0)
    kernel.step(B, active)
    plan = kernel._plan
    B[1] = (0, 1)
    heard, _ = kernel.step(B, active)
    assert kernel._plan is plan
    assert np.array_equal(heard, _reference_heard(topology, B, False))
    B[3] = (1, 1)
    heard, _ = kernel.step(B, active)
    assert kernel._plan is not plan
    assert np.array_equal(heard, _reference_heard(topology, B, False))
