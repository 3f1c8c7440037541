"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import random

import pytest


def pytest_collection_modifyitems(config, items):
    """Skip ``slow``-marked tests unless RUN_SLOW=1 is set."""
    if os.environ.get("RUN_SLOW") == "1":
        return
    skip_slow = pytest.mark.skip(
        reason="slow stress test; set RUN_SLOW=1 to run"
    )
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)

from repro.channels import (
    CorrelatedNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.tasks import InputSetTask


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for sampling test inputs."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def noiseless_channel() -> NoiselessChannel:
    return NoiselessChannel()


@pytest.fixture
def mild_noise_channel() -> CorrelatedNoiseChannel:
    """Two-sided ε = 0.1, the workhorse noise level of the fast tests."""
    return CorrelatedNoiseChannel(epsilon=0.1, rng=1234)


@pytest.fixture
def one_sided_channel() -> OneSidedNoiseChannel:
    return OneSidedNoiseChannel(epsilon=1.0 / 3.0, rng=1234)


@pytest.fixture
def suppression_channel() -> SuppressionNoiseChannel:
    return SuppressionNoiseChannel(epsilon=0.1, rng=1234)


@pytest.fixture
def small_input_set_task() -> InputSetTask:
    return InputSetTask(n_parties=5)


@pytest.fixture
def cyclic_garbage():
    """``count(fn)``: how many objects only the cycle collector can free
    after ``fn()`` runs with automatic collection off (0 = no cycles)."""

    def count(fn) -> int:
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fn()
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    return count
