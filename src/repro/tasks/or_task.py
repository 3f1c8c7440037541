"""The n-party OR task — the beeping channel's native operation.

Each party holds one bit; all must output the OR.  The noiseless protocol is
a single round (everyone beeps their bit), which is the "(extremely)
efficient protocol for the 'or' of n bits" the paper points to in §2.1 when
explaining why a constant-rate coding scheme seems within reach — and why
the actual obstruction is verifying 1s, not computing ORs.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.formal import FormalProtocol
from repro.core.protocol import Protocol
from repro.errors import TaskError
from repro.tasks.base import Task
from repro.util.bits import or_reduce

__all__ = ["OrTask", "or_noiseless_protocol"]


def or_noiseless_protocol(n_parties: int) -> FormalProtocol:
    """One round: everyone beeps their bit; output the received bit.
    Non-adaptive, so its beep schedule (the bit itself) is declared."""

    def broadcast(_party: int, input_value: int, _prefix: Sequence[int]) -> int:
        return input_value

    def schedule(_party: int, input_value: int) -> int:
        return input_value

    def output(received: Sequence[int]) -> int:
        return received[0]

    return FormalProtocol(
        n_parties=n_parties,
        length=1,
        input_spaces=[(0, 1)] * n_parties,
        broadcast=broadcast,
        output=output,
        schedule=schedule,
    )


class OrTask(Task):
    """Compute the OR of one uniform bit per party.

    Args:
        n_parties: Number of parties.
        one_probability: Bernoulli parameter of each party's bit (default
            1/2).  Skewed settings are useful for stressing the noise
            direction that matters: with mostly-zero inputs, 0→1 channel
            flips dominate the error.
    """

    def __init__(self, n_parties: int, one_probability: float = 0.5) -> None:
        if not 0.0 <= one_probability <= 1.0:
            raise TaskError(
                f"one_probability must be in [0, 1], got {one_probability}"
            )
        super().__init__(n_parties)
        self.one_probability = one_probability

    def sample_inputs(self, rng: random.Random) -> list[int]:
        return [
            1 if rng.random() < self.one_probability else 0
            for _ in range(self.n_parties)
        ]

    def reference_output(self, inputs: Sequence[int]) -> int:
        return or_reduce(list(inputs))

    def noiseless_protocol(self) -> Protocol:
        return or_noiseless_protocol(self.n_parties)
