"""Noise-resilient simulation schemes — the paper's upper bound machinery.

Given a protocol designed for the *noiseless* beeping channel, a simulator
produces an execution over a *noisy* channel whose outputs match the
noiseless execution with high probability.  Four schemes are provided:

* :class:`RepetitionSimulator` — footnote 1 of the paper: repeat every round
  ``r = Θ(log n)`` times and take the majority.  Simple, works over
  correlated *and* independent noise, and suffices for protocols of length
  polynomial in n.
* :class:`ChunkCommitSimulator` — the Theorem 1.2 scheme, iterative form:
  simulate the protocol in chunks; after each chunk run Algorithm 1's
  *finding owners* phase so every 1 in the chunk transcript has a party
  responsible for verifying it; then a verification round-trip decides
  commit vs. rewind.  O(log n) overhead for poly-length protocols.
* :class:`HierarchicalSimulator` — the faithful Appendix-D.2 form: chunks
  are appended optimistically and binary-search progress checks with
  level-scaled vote reliability truncate bad prefixes — the structure
  that extends the guarantee to arbitrary lengths.
* :class:`RewindSimulator` — the constant-overhead scheme the paper's §1.1
  asserts for *suppression* (1→0-only) noise: simulate one round at a time,
  alternate with a one-round error vote; under suppression noise every
  alarm is genuine, so a simple rewind random walk converges with constant
  overhead.  Running the very same scheme over 0→1 noise fails — the
  asymmetry measured by experiment E3.

All schemes share the sub-coroutine toolbox in
:mod:`repro.simulation.primitives` and the parameter bundle in
:mod:`repro.simulation.params`.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "SimulationParameters": "repro.simulation.params",
    "repetitions_for": "repro.simulation.params",
    "Simulator": "repro.simulation.base",
    "SimulationReport": "repro.simulation.base",
    "RepetitionSimulator": "repro.simulation.repetition_sim",
    "OwnersProtocol": "repro.simulation.owners",
    "OwnersResult": "repro.simulation.owners",
    "owners_phase": "repro.simulation.owners",
    "ChunkCommitSimulator": "repro.simulation.chunked",
    "HierarchicalSimulator": "repro.simulation.hierarchical",
    "RewindSimulator": "repro.simulation.rewind",
    "OneSidedReductionProtocol": "repro.simulation.shared_reduction",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
