"""Per-trial seed pairs: resolution and validation.

``run_trials(..., trial_seeds=pairs)`` runs trial ``i`` on
``pairs[i] = (input seed, executor seed)`` instead of the derived
``trial_seed_pair(seed, i)``.  That every registered backend honours the
pairs is checked in ``test_runner_conformance.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.parallel.runner import resolve_trial_seeds, trial_seed_pair


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
