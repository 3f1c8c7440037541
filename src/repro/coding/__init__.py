"""Error-correcting codes for the owners phase (Appendix D).

Algorithm 1 has the current speaker beep a codeword ``C(j)`` identifying the
transcript position it claims to own, with ``C : [n] ∪ {Next} → {0,1}^{c·log n}``
a constant-rate code.  This subpackage provides:

* :class:`BlockCode` — the abstract code interface;
* :class:`RepetitionCode` — bits repeated ``r`` times (baseline/ablation);
* :class:`HadamardCode` — the Walsh–Hadamard code, relative distance 1/2,
  with the useful property that symbol 0 encodes to the all-zero word (which
  we reserve for "silence");
* :class:`GreedyRandomCode` — a Gilbert–Varshamov-style greedy random code at
  a configurable length/distance, the workhorse for the owners phase;
* :class:`MLDecoder` — channel-aware maximum-likelihood decoding for any
  correlated noise model (BSC, Z-channel, reverse Z-channel).

The paper asks for "relative distance 0.99", which the Plotkin bound rules
out for binary codes with more than a handful of codewords; what the proof of
Theorem D.1 actually needs is decoding error polynomially small in ``n`` at
length Θ(log n), which ML decoding of these codes provides (see DESIGN.md).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BlockCode": "repro.coding.code",
    "RepetitionCode": "repro.coding.repetition",
    "HadamardCode": "repro.coding.hadamard",
    "GreedyRandomCode": "repro.coding.random_code",
    "MLDecoder": "repro.coding.ml",
    "MinDistanceDecoder": "repro.coding.ml",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
