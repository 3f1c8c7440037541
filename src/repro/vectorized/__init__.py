"""The trial-batched vectorized backend.

A third :class:`~repro.parallel.runner.TrialRunner` backend that executes
Monte-Carlo batches through party-collapsed simulations and a
trial-batched graph kernel, bitwise-equivalent to the scalar engine trial
by trial:

* :mod:`repro.vectorized.noise` — MT19937 state transfer from
  ``random.Random`` into numpy, flip-indicator streams, batched prefetch;
* :mod:`repro.vectorized.schemes` — the collapsed chunk-commit and
  rewind simulations, the collapsed finding-owners phase
  (:func:`simulate_owners`), the replayable channel types and their
  flip sources, plus the shared phase-1/2 machinery;
* :mod:`repro.vectorized.schemes_repetition` /
  :mod:`repro.vectorized.schemes_hierarchical` — the collapsed
  repetition and Appendix-D.2 hierarchy simulations;
* :mod:`repro.vectorized.network` — the trial-batched CSR
  neighborhood-OR kernel and the batched graph drivers (neighbor-OR,
  broadcast, MIS, local-broadcast wrapper);
* :mod:`repro.vectorized.runner` — :class:`VectorizedRunner`, which
  runs single-hop batches through the scalar trial loop with the
  collapsed schemes as executor, network batches through the kernel,
  and everything else through the scalar loop as a fallback.

Select the backend with ``make_runner(backend="vectorized")``.  The
composed ``make_runner(backend="vectorized-process")`` is a
:class:`~repro.parallel.ProcessPoolRunner` with
``inner=VectorizedRunner``: it stripes a batch across a process pool,
each worker runs its stripe through its own cached
:class:`VectorizedRunner`, and the pool emits one ``worker_chunk`` trace
event per stripe.  The CLI's ``--backend`` takes the same names.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "numpy_stream": "repro.vectorized.noise",
    "FlipStream": "repro.vectorized.noise",
    "ChannelFlips": "repro.vectorized.noise",
    "BatchFlips": "repro.vectorized.noise",
    "CHANNEL_KINDS": "repro.vectorized.schemes",
    "simulate_chunked": "repro.vectorized.schemes",
    "simulate_owners": "repro.vectorized.schemes",
    "simulate_rewind": "repro.vectorized.schemes",
    "simulate_repetition": "repro.vectorized.schemes_repetition",
    "simulate_hierarchical": "repro.vectorized.schemes_hierarchical",
    "NetworkBatchKernel": "repro.vectorized.network",
    "NetworkRoute": "repro.vectorized.network",
    "classify_network": "repro.vectorized.network",
    "network_records": "repro.vectorized.network",
    "VectorizedRunner": "repro.vectorized.runner",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
