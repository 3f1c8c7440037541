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

from repro.vectorized.network import (
    NetworkBatchKernel,
    NetworkRoute,
    classify_network,
    network_records,
)
from repro.vectorized.noise import (
    BatchFlips,
    ChannelFlips,
    FlipStream,
    numpy_stream,
)
from repro.vectorized.runner import VectorizedRunner
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    simulate_chunked,
    simulate_owners,
    simulate_rewind,
)
from repro.vectorized.schemes_hierarchical import simulate_hierarchical
from repro.vectorized.schemes_repetition import simulate_repetition

__all__ = [
    "numpy_stream",
    "FlipStream",
    "ChannelFlips",
    "BatchFlips",
    "CHANNEL_KINDS",
    "simulate_chunked",
    "simulate_owners",
    "simulate_rewind",
    "simulate_repetition",
    "simulate_hierarchical",
    "NetworkBatchKernel",
    "NetworkRoute",
    "classify_network",
    "network_records",
    "VectorizedRunner",
]
