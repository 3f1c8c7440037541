"""Beeping-channel substrate.

The beeping channel combines the bits beeped by the ``n`` parties with OR and
delivers (a possibly noisy version of) the result back to every party.  This
subpackage implements every channel variant the paper discusses:

* :class:`NoiselessChannel` — the classic beeping model [CK10].
* :class:`CorrelatedNoiseChannel` — the paper's main model: the OR is flipped
  with probability ε and *all* parties receive the same flipped bit.
* :class:`OneSidedNoiseChannel` — noise only turns silence into a beep
  (0→1); the model in which the lower bound (Theorem C.1) is proved.
* :class:`SuppressionNoiseChannel` — the mirror image (1→0 only), for which
  the paper notes a constant-overhead simulation exists.
* :class:`IndependentNoiseChannel` — every party receives its own
  independently ε-flipped copy of the OR (§1.2).
* :class:`CorrectingAdversaryChannel` — a two-sided channel plus an adversary
  that "corrects" a chosen direction of flips (the A.1.2 thought experiment).
* :class:`SharedFlipReductionChannel` — the A.1.2 reduction: a one-sided
  ε=1/3 channel plus shared-randomness down-flips, statistically identical to
  a two-sided ε=1/4 channel.
* :class:`BurstNoiseChannel` — Gilbert–Elliott bursty correlated noise,
  modelling §1.2's "global interferences" arriving in runs.

The noiseless, correlated, one-sided, suppression and independent channels
share one implementation, :class:`ThresholdNoiseChannel`, and differ only
in the ``flips`` pair they declare: which true OR values a ``u < ε`` draw
can flip.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Channel": "repro.channels.base",
    "RoundOutcome": "repro.channels.base",
    "ThresholdNoiseChannel": "repro.channels.base",
    "ChannelStats": "repro.channels.stats",
    "NoiselessChannel": "repro.channels.noiseless",
    "CorrelatedNoiseChannel": "repro.channels.correlated",
    "OneSidedNoiseChannel": "repro.channels.one_sided",
    "SuppressionNoiseChannel": "repro.channels.one_sided",
    "IndependentNoiseChannel": "repro.channels.independent",
    "CorrectingAdversaryChannel": "repro.channels.adversarial",
    "BudgetedAdversaryChannel": "repro.channels.adversarial",
    "SharedFlipReductionChannel": "repro.channels.reduction",
    "BurstNoiseChannel": "repro.channels.burst",
    "ScriptedChannel": "repro.channels.scripted",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
