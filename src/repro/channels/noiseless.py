"""The classic noiseless beeping channel [CK10].

Every party receives exactly the OR of the beeped bits.  This is the model in
which the protocols being simulated are designed, and the ε=0 special case of
every noisy channel in this package.
"""

from __future__ import annotations

import random

from repro.channels.base import ThresholdNoiseChannel

__all__ = ["NoiselessChannel"]


class NoiselessChannel(ThresholdNoiseChannel):
    """Delivers the true OR to every party, always.

    No round draws: ``flips = (False, False)``, at ε = 0.
    """

    flips = (False, False)

    def __init__(self, rng: random.Random | int | None = None) -> None:
        super().__init__(0.0, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NoiselessChannel()"
