"""Independent per-party noise (§1.2).

Each party receives its *own* ε-noisy copy of the round's OR, so different
parties may witness different transcripts.  The paper's upper bound
(Theorem 1.2) still applies in this model, but the lower bound proof breaks
— indeed the paper conjectures the hard instance admits an O(log log n)
simulation here.  Experiment E7 contrasts the two noise models empirically.
"""

from __future__ import annotations

from repro.channels.base import ThresholdNoiseChannel
from repro.util.bits import BitWord

__all__ = ["IndependentNoiseChannel"]


class IndependentNoiseChannel(ThresholdNoiseChannel):
    """Every party independently receives ``OR ⊕ N_ε``.

    ``correlated`` is False: protocol code requiring a shared transcript
    (e.g. the owners phase bookkeeping) must tolerate divergent views or
    refuse to run over this channel.  Every reception draws:
    ``flips = (True, True)``, once per party.
    """

    correlated = False
    flips = (True, True)

    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        # One block-buffered draw per party, in party order — the seed
        # engine's exact draw sequence.
        next_float = self._next_noise_float
        epsilon = self.epsilon
        return tuple(
            or_value ^ 1 if next_float() < epsilon else or_value
            for _ in range(n_parties)
        )
