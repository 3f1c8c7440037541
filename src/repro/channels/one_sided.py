"""One-sided noise channels (Appendix A.1.2).

The paper's lower bound is proved in the *one-sided* model, where noise can
only turn silence into a beep (0→1): when at least one party beeps, the round
is delivered faithfully; when all are silent, the parties receive 1 with
probability ε.  A received 0 is therefore always trustworthy — every party
can be certain all parties beeped 0 — which is exactly the property the
feasible-set machinery of the lower bound exploits.

The mirror-image :class:`SuppressionNoiseChannel` (1→0 only) is also
implemented: the paper observes (§1.1) that this direction of noise is *easy*
— a constant-overhead simulation exists — because the party whose beep was
suppressed always detects the error itself.  The asymmetry between the two is
the conceptual heart of the paper and is measured by experiment E3.
"""

from __future__ import annotations

import random

from repro.channels.base import Channel
from repro.errors import ConfigurationError
from repro.util.bits import BitWord

__all__ = ["OneSidedNoiseChannel", "SuppressionNoiseChannel"]


class OneSidedNoiseChannel(Channel):
    """Noise flips 0→1 only: ``π_m = OR`` if ``OR = 1``, else ``N_ε``.

    This is the model of Theorem C.1; a received 0 is always correct.
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
        if or_value == 1:
            received = 1
        else:
            received = 1 if self._next_noise_float() < self.epsilon else 0
        return (received,) * n_parties

    def _deliver_shared(self, or_value: int) -> int:
        # A beep always gets through; only silent rounds draw noise (the
        # same data-dependent draw sequence as _deliver).
        if or_value == 1:
            return 1
        return 1 if self._next_noise_float() < self.epsilon else 0

    def _deliver_shared_run(self, or_value: int, count: int) -> bytes:
        # Beeping runs pass through draw-free; silent runs consume one
        # draw per round, same order as per-round.
        if or_value == 1:
            return b"\x01" * count
        return self._threshold_run(count, 1, 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OneSidedNoiseChannel(epsilon={self.epsilon})"


class SuppressionNoiseChannel(Channel):
    """Noise flips 1→0 only: a beep may be suppressed, silence never lies.

    A received 1 is always correct, so any party whose beep disappeared can
    raise a trustworthy alarm — the property behind the constant-overhead
    simulation (experiment E3).
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
        if or_value == 0:
            received = 0
        else:
            received = 0 if self._next_noise_float() < self.epsilon else 1
        return (received,) * n_parties

    def _deliver_shared(self, or_value: int) -> int:
        # Silence is never flipped; only beeping rounds draw noise.
        if or_value == 0:
            return 0
        return 0 if self._next_noise_float() < self.epsilon else 1

    def _deliver_shared_run(self, or_value: int, count: int) -> bytes:
        # Silent runs pass through draw-free; beeping runs consume one
        # draw per round, same order as per-round.
        if or_value == 0:
            return b"\x00" * count
        return self._threshold_run(count, 0, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SuppressionNoiseChannel(epsilon={self.epsilon})"
