"""The paper's main model: the ε-noisy beeping channel with correlated noise.

In every round the channel computes the OR of the beeped bits and XORs it
with an independent ε-noisy bit ``N_ε`` (``N_ε = 1`` with probability ε).
Crucially, *all* parties receive the same (possibly flipped) bit, so the
parties always share a transcript — the defining feature of correlated noise
(Appendix A.1.1).
"""

from __future__ import annotations

import random

from repro.channels.base import Channel
from repro.errors import ConfigurationError
from repro.util.bits import BitWord

__all__ = ["CorrelatedNoiseChannel"]


class CorrelatedNoiseChannel(Channel):
    """ε-noisy beeping channel: ``π_m = N_ε ⊕ OR(bits)``, shared by all.

    Args:
        epsilon: Flip probability per round; must lie in ``[0, 1)``.  The
            paper's lower bound fixes ε = 1/3 for exposition.
        rng: Noise source (seed, generator, or ``None`` for nondeterministic).
    """

    correlated = True

    def __init__(
        self, epsilon: float, rng: random.Random | int | None = None
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1), got {epsilon}"
            )
        super().__init__(rng)
        self.epsilon = epsilon

    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        noise = 1 if self._next_noise_float() < self.epsilon else 0
        return (or_value ^ noise,) * n_parties

    def _deliver_shared(self, or_value: int) -> int:
        # The engine's hot path: block-buffered draw, inlined to avoid a
        # second function call per round.  Same draw sequence as _deliver.
        pos = self._noise_pos
        floats = self._noise_floats
        if pos >= len(floats):
            rand = self._rng.random
            floats = [rand() for _ in range(self._NOISE_BLOCK)]
            self._noise_floats = floats
            pos = 0
        self._noise_pos = pos + 1
        if floats[pos] < self.epsilon:
            return or_value ^ 1
        return or_value

    def _deliver_shared_run(self, or_value: int, count: int) -> bytes:
        # Run-batched delivery for the engine's scheduler: a draw below
        # epsilon flips the round's OR.
        return self._threshold_run(count, or_value ^ 1, or_value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CorrelatedNoiseChannel(epsilon={self.epsilon})"
