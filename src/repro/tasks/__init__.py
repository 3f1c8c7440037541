"""Communication tasks for the beeping model.

A :class:`Task` bundles an input distribution, the function the parties must
compute, and the canonical *noiseless* beeping protocol that computes it.
The star of the paper is :class:`InputSetTask` (Appendix A.2): every party
holds a uniform number in ``[2n]`` and all must output the set of numbers
held — the task whose noisy complexity is Θ(n log n) while its noiseless
complexity is 2n.

The other tasks exercise different protocol shapes:

* :class:`OrTask` — the 1-round primitive the beeping channel computes
  natively (and the reason a constant-rate scheme seems plausible at first,
  §2.1);
* :class:`ParityTask` — a non-adaptive round-robin protocol, the classic
  hard function of the noisy-broadcast literature [Gal88];
* :class:`BitExchangeTask` — a 2-party protocol over the channel viewed as
  Blackwell's multiplication channel (§1, "multi-party generalization");
* :class:`MaxIdTask` — adaptive bit-by-bit leader election, exercising
  protocols whose beeps depend on the received transcript;
* :class:`SizeEstimateTask` — network-size estimation by geometric beeping
  ([BKK+16] in the paper's related work), exercising private randomness
  modelled as coin-tape inputs;
* :class:`PointerChasingTask` — two-party alternating pointer chasing, the
  instance §1.2 nominates for a future independent-noise lower bound, and
  the most deeply adaptive protocol in the zoo.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Task": "repro.tasks.base",
    "InputSetTask": "repro.tasks.input_set",
    "OrTask": "repro.tasks.or_task",
    "ParityTask": "repro.tasks.parity",
    "BitExchangeTask": "repro.tasks.multiplication",
    "MaxIdTask": "repro.tasks.leader_election",
    "SizeEstimateTask": "repro.tasks.counting",
    "PointerChasingTask": "repro.tasks.pointer_chasing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
