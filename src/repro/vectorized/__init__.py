"""The trial-batched vectorized backend.

A third :class:`~repro.parallel.runner.TrialRunner` backend that executes
Monte-Carlo batches through party-collapsed simulations over packed numpy
bit-matrices, bitwise-equivalent to the scalar engine trial by trial:

* :mod:`repro.vectorized.noise` — MT19937 state transfer from
  ``random.Random`` into numpy, flip-indicator streams, batched prefetch;
* :mod:`repro.vectorized.bitmatrix` — packed trial×round bit-matrices and
  the byte-per-position mask bridge to the scalar decoder;
* :mod:`repro.vectorized.decoder` — whole-codebook ML decoding;
* :mod:`repro.vectorized.schemes` — the collapsed chunk-commit and
  rewind simulations, the collapsed finding-owners phase
  (:func:`simulate_owners`), the replayable channel kinds and their
  flip sources, plus the shared phase-1/2 machinery;
* :mod:`repro.vectorized.schemes_repetition` /
  :mod:`repro.vectorized.schemes_hierarchical` — the collapsed
  repetition and Appendix-D.2 hierarchy simulations;
* :mod:`repro.vectorized.network` — the trial-batched CSR
  neighborhood-OR kernel and the batched graph drivers (neighbor-OR,
  broadcast, MIS, local-broadcast wrapper);
* :mod:`repro.vectorized.runner` — :class:`VectorizedRunner`, with
  scalar fallback for batches it cannot collapse;
* :mod:`repro.vectorized.process_runner` —
  :class:`VectorizedProcessRunner`, the composed backend striping a
  batch across a process pool of vectorized workers.

Select the backends with ``make_runner(backend="vectorized")`` /
``make_runner(backend="vectorized-process")`` or the matching
``--backend`` values on the CLI.
"""

from repro.vectorized.bitmatrix import (
    bits_from_mask,
    mask_int,
    pack_rows,
    popcount_rows,
    unpack_rows,
)
from repro.vectorized.decoder import VectorizedMLDecoder
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
from repro.vectorized.process_runner import VectorizedProcessRunner
from repro.vectorized.runner import VectorizedRunner
from repro.vectorized.schemes import (
    CHANNEL_KINDS,
    ChannelKind,
    CollapsedOutcome,
    flip_sources,
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
    "pack_rows",
    "unpack_rows",
    "mask_int",
    "bits_from_mask",
    "popcount_rows",
    "VectorizedMLDecoder",
    "CHANNEL_KINDS",
    "ChannelKind",
    "CollapsedOutcome",
    "flip_sources",
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
    "VectorizedProcessRunner",
]
