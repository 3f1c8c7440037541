"""Good players: ``G₁(x)``, ``G₂(π)``, ``G(x, π)`` and the event 𝒢 (§C.2).

* ``G₁(x)`` — parties with *unique* inputs (no other party shares the
  value); changing such a party's input changes ``L(x)``.
* ``G₂(π)`` — parties whose feasible set given ``π`` is large
  (``> √n`` in the paper), i.e. about whom the transcript knows little.
* ``G = G₁ ∩ G₂``; the event 𝒢 is ``|G| ≥ n/4``, which Lemma C.5 shows
  holds with probability ≥ 1/3 for short protocols.

Also here: the Lemma B.8 sampler — the distribution of the number of
uniquely-held values among k uniform draws from a set of size |S|, which
drives the ``Pr[|G₁| small]`` bound.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.core.formal import FormalProtocol
from repro.lowerbound.feasible import feasible_sizes
from repro.rng import ensure_rng

__all__ = [
    "unique_input_players",
    "large_feasible_players",
    "good_players",
    "good_event_threshold",
    "sample_unique_counts",
    "lemma_b8_bound",
]


def unique_input_players(inputs: Sequence[int]) -> frozenset[int]:
    """``G₁(x)``: parties whose input no other party holds."""
    counts: dict[int, int] = {}
    for value in inputs:
        counts[value] = counts.get(value, 0) + 1
    return frozenset(
        index for index, value in enumerate(inputs) if counts[value] == 1
    )


def large_feasible_players(
    protocol: FormalProtocol,
    pi: Sequence[int],
    threshold: float | None = None,
) -> frozenset[int]:
    """``G₂(π)``: parties with ``|S^i(π)| > threshold`` (default ``√n``)."""
    if threshold is None:
        threshold = math.sqrt(protocol.n_parties)
    return frozenset(
        party
        for party, size in enumerate(feasible_sizes(protocol, pi))
        if size > threshold
    )


def good_players(
    protocol: FormalProtocol,
    inputs: Sequence[int],
    pi: Sequence[int],
    threshold: float | None = None,
) -> frozenset[int]:
    """``G(x, π) = G₁(x) ∩ G₂(π)``."""
    return unique_input_players(inputs) & large_feasible_players(
        protocol, pi, threshold
    )


def good_event_threshold(n_parties: int) -> float:
    """The 𝒢 threshold: ``|G| ≥ n/4``."""
    return n_parties / 4.0


def sample_unique_counts(
    k: int,
    universe_size: int,
    trials: int,
    rng: random.Random | int | None = None,
) -> list[int]:
    """Monte-Carlo samples of ``|I|`` from Lemma B.8.

    Draw ``k`` independent uniform values from a set of size
    ``universe_size`` and count how many are unique; repeat ``trials``
    times.  Lemma B.8 bounds ``Pr[|I| ≤ k/3]`` by
    ``(3/2)(1 - e^{-k/|S|})``.
    """
    generator = ensure_rng(rng)
    counts: list[int] = []
    for _ in range(trials):
        draws = [generator.randrange(universe_size) for _ in range(k)]
        tally: dict[int, int] = {}
        for value in draws:
            tally[value] = tally.get(value, 0) + 1
        counts.append(sum(1 for value in draws if tally[value] == 1))
    return counts


def lemma_b8_bound(k: int, universe_size: int) -> float:
    """The closed-form bound of Lemma B.8: ``(3/2)(1 - e^{-k/|S|})``."""
    return 1.5 * (1.0 - math.exp(-k / universe_size))
