"""Explicit per-trial seed pairs through every registered runner backend.

``run_trials(..., trial_seeds=pairs)`` runs trial ``i`` on
``pairs[i] = (input seed, executor seed)`` instead of the derived
``trial_seed_pair(seed, i)``.  Every entry of ``RUNNER_BACKENDS`` (at one
and two workers) must give the records of the scalar ``run_trial`` on the
same pairs, whatever route it takes: a collapsed simulation, the batched
network kernel, or the scalar fallback.
"""

from __future__ import annotations

import pytest

from repro.channels import CorrelatedNoiseChannel
from repro.errors import ConfigurationError
from repro.network import NetworkBeepingChannel, NeighborORTask, TopologySpec
from repro.parallel import (
    RUNNER_BACKENDS,
    ChannelSpec,
    ProtocolExecutor,
    SimulationExecutor,
    SimulatorSpec,
    make_runner,
    run_trial,
)
from repro.parallel.runner import resolve_trial_seeds, trial_seed_pair
from repro.simulation import ChunkCommitSimulator
from repro.tasks import InputSetTask, ParityTask

TRIALS = 8

BACKENDS = [
    (backend, workers) for backend in RUNNER_BACKENDS for workers in (1, 2)
]


def _batches():
    """One executor per route: collapsed scheme, raw scalar protocol,
    batched network kernel."""
    chunked = InputSetTask(4)
    parity = ParityTask(3)
    ring = TopologySpec.of("ring", n=7)
    network = NeighborORTask(ring.build())
    return {
        "chunk-commit": (
            chunked,
            SimulationExecutor(
                chunked,
                ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
                SimulatorSpec.of(ChunkCommitSimulator),
            ),
        ),
        "raw-protocol": (
            parity,
            ProtocolExecutor(
                parity, ChannelSpec.of(CorrelatedNoiseChannel, 0.1)
            ),
        ),
        "network": (
            network,
            ProtocolExecutor(
                network,
                ChannelSpec.of(NetworkBeepingChannel, 0.05, topology=ring),
            ),
        ),
    }


BATCHES = _batches()

#: Seeds no derivation produces: small, repeated and out of order.
EXPLICIT_PAIRS = [(5 + t, 3 + 977 * t) for t in (3, 0, 7, 1, 1, 4, 2, 9)]


@pytest.fixture(params=BACKENDS, ids=lambda p: f"{p[0]}-w{p[1]}")
def runner(request):
    backend, workers = request.param
    runner = make_runner(workers, backend=backend)
    yield runner
    runner.close()


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_explicit_pairs_give_the_scalar_records(runner, batch):
    task, executor = BATCHES[batch]
    records = runner.run_trials(
        task, executor, TRIALS, seed=123, trial_seeds=EXPLICIT_PAIRS
    ).records
    assert records == [
        run_trial(task, executor, 123, index, seeds=pair)
        for index, pair in enumerate(EXPLICIT_PAIRS)
    ]
    if batch != "raw-protocol":
        # Non-vacuity: collapsible batches did not fall back to scalar.
        assert getattr(runner, "last_fallback_reason", None) is None


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_derived_pairs_passed_explicitly_equal_seed_alone(runner, batch):
    task, executor = BATCHES[batch]
    derived = [trial_seed_pair(31, index) for index in range(TRIALS)]
    explicit = runner.run_trials(
        task, executor, TRIALS, trial_seeds=derived
    ).records
    assert explicit == (
        runner.run_trials(task, executor, TRIALS, seed=31).records
    )


@pytest.mark.parametrize("count", [TRIALS - 1, TRIALS + 1])
def test_wrong_number_of_pairs_raises(runner, count):
    task, executor = BATCHES["raw-protocol"]
    with pytest.raises(ConfigurationError):
        runner.run_trials(
            task, executor, TRIALS, trial_seeds=EXPLICIT_PAIRS[:1] * count
        )


def test_resolve_rejects_malformed_pairs():
    assert resolve_trial_seeds(7, 2) == [
        trial_seed_pair(7, 0),
        trial_seed_pair(7, 1),
    ]
    with pytest.raises(ConfigurationError):
        resolve_trial_seeds(0, 1, [(1, 2, 3)])
    with pytest.raises(ConfigurationError):
        resolve_trial_seeds(0, 1, [(1.5, 2)])
    with pytest.raises(ConfigurationError):
        resolve_trial_seeds(0, 0, [])
