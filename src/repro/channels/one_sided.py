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

from repro.channels.base import ThresholdNoiseChannel

__all__ = ["OneSidedNoiseChannel", "SuppressionNoiseChannel"]


class OneSidedNoiseChannel(ThresholdNoiseChannel):
    """Noise flips 0→1 only: ``π_m = OR`` if ``OR = 1``, else ``N_ε``.

    This is the model of Theorem C.1; a received 0 is always correct.
    Only silent rounds draw: ``flips = (True, False)``.
    """

    flips = (True, False)


class SuppressionNoiseChannel(ThresholdNoiseChannel):
    """Noise flips 1→0 only: a beep may be suppressed, silence never lies.

    A received 1 is always correct, so any party whose beep disappeared can
    raise a trustworthy alarm — the property behind the constant-overhead
    simulation (experiment E3).  Only beeping rounds draw:
    ``flips = (False, True)``.
    """

    flips = (False, True)
