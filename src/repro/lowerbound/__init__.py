"""The lower-bound machinery of Appendix C, made executable.

Theorem C.1 proves that any protocol for ``InputSet_n`` over the one-sided
ε-noisy beeping channel needs Ω(n log n) rounds.  The proof pivots on a
progress measure ζ(x, π) — the probability of the input ``x`` relative to
its feasible neighbors, given the transcript ``π`` — squeezed between two
theorems:

* **Theorem C.2** (short protocols ⇒ small ζ): for every ``(x, π)`` in the
  good event 𝒢, ``ζ(x, π) ≤ (4/n)·3^{4T/n}``.
* **Theorem C.3** (correct protocols ⇒ large ζ): if the protocol is correct
  with probability ≥ 2/3 + n^{-1/8} then ``E[ζ | 𝒢] ≥ n^{-3/4}``.

This package computes every object in that argument *exactly* on small
instances (via :class:`~repro.core.formal.FormalProtocol` enumeration) and
*by Monte Carlo* on larger ones:

* :mod:`~repro.lowerbound.neighbors` — the neighbor sets N(x), N^i(x) and
  the sensitivity counts of §2.3;
* :mod:`~repro.lowerbound.feasible` — the feasible sets S^i(π) (inputs not
  ruled out by the 0s of π);
* :mod:`~repro.lowerbound.good_players` — G₁(x), G₂(π), G(x,π), the event
  𝒢, and the Lemma B.8 sampler;
* :mod:`~repro.lowerbound.zeta` — Z(x,π), ζ(x,π), exact conditional
  expectations, and correctness probabilities;
* :mod:`~repro.lowerbound.theory` — the closed-form bounds of
  Theorems C.1/C.2/C.3 and Lemmas B.7/B.8/C.5.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "neighbor_inputs": "repro.lowerbound.neighbors",
    "differing_neighbors": "repro.lowerbound.neighbors",
    "neighbors_of_player": "repro.lowerbound.neighbors",
    "sensitivity_profile": "repro.lowerbound.neighbors",
    "feasible_set": "repro.lowerbound.feasible",
    "feasible_sizes": "repro.lowerbound.feasible",
    "unique_input_players": "repro.lowerbound.good_players",
    "large_feasible_players": "repro.lowerbound.good_players",
    "good_players": "repro.lowerbound.good_players",
    "sample_unique_counts": "repro.lowerbound.good_players",
    "LowerBoundAnalyzer": "repro.lowerbound.zeta",
    "ZetaPoint": "repro.lowerbound.zeta",
    "ZetaSummary": "repro.lowerbound.zeta",
    "SampledZetaSummary": "repro.lowerbound.sampling",
    "estimate_zeta": "repro.lowerbound.sampling",
    "sample_zeta_points": "repro.lowerbound.sampling",
    "theory": "repro.lowerbound.theory",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
