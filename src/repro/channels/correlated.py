"""The paper's main model: the ε-noisy beeping channel with correlated noise.

In every round the channel computes the OR of the beeped bits and XORs it
with an independent ε-noisy bit ``N_ε`` (``N_ε = 1`` with probability ε).
Crucially, *all* parties receive the same (possibly flipped) bit, so the
parties always share a transcript — the defining feature of correlated noise
(Appendix A.1.1).
"""

from __future__ import annotations

from repro.channels.base import ThresholdNoiseChannel

__all__ = ["CorrelatedNoiseChannel"]


class CorrelatedNoiseChannel(ThresholdNoiseChannel):
    """ε-noisy beeping channel: ``π_m = N_ε ⊕ OR(bits)``, shared by all.

    Every round draws, whatever its OR: ``flips = (True, True)``.

    Args:
        epsilon: Flip probability per round; must lie in ``[0, 1)``.  The
            paper's lower bound fixes ε = 1/3 for exposition.
        rng: Noise source (seed, generator, or ``None`` for nondeterministic).
    """

    flips = (True, True)
