"""The parity task — round-robin broadcast of one bit per party.

Parity (XOR of all input bits) is the classic hard function of the noisy
broadcast literature ([Gal88], cited in §1.2 for the O(log log n)
independent-noise upper bound).  The natural noiseless beeping protocol is
non-adaptive round-robin: party ``i`` beeps its bit in round ``i`` and is
silent otherwise, so the transcript *is* the input vector and every party
can output its parity.

Because each round is "owned" by exactly one party, this protocol is also
the cleanest example of the non-adaptive ownership structure the [EKS18]
verification phase relies on (§2.1).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.formal import FormalProtocol
from repro.core.protocol import Protocol
from repro.tasks.base import Task

__all__ = ["ParityTask", "parity_noiseless_protocol"]


def parity_noiseless_protocol(n_parties: int) -> FormalProtocol:
    """n rounds: party ``i`` beeps its bit in round ``i``; output the parity
    of the received transcript.  Non-adaptive, so its beep schedule is
    declared: party ``i`` on bit ``x`` beeps ``x << i``."""

    def broadcast(party: int, input_value: int, prefix: Sequence[int]) -> int:
        return input_value if len(prefix) == party else 0

    def schedule(party: int, input_value: int) -> int:
        return input_value << party

    def output(received: Sequence[int]) -> int:
        return sum(received) & 1

    return FormalProtocol(
        n_parties=n_parties,
        length=n_parties,
        input_spaces=[(0, 1)] * n_parties,
        broadcast=broadcast,
        output=output,
        schedule=schedule,
    )


class ParityTask(Task):
    """Compute the XOR of one uniform bit per party."""

    def sample_inputs(self, rng: random.Random) -> list[int]:
        return [rng.getrandbits(1) for _ in range(self.n_parties)]

    def reference_output(self, inputs: Sequence[int]) -> int:
        return sum(inputs) & 1

    def noiseless_protocol(self) -> Protocol:
        return parity_noiseless_protocol(self.n_parties)
