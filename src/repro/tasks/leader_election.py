"""Adaptive maximum-finding (leader election) in the beeping model.

Classic beeping-model primitive (cf. [FSW14, DBB18] in the paper's related
work): parties hold distinct identifiers and elect the maximum by bit-by-bit
elimination.  Scanning the identifier from the most significant bit, every
still-active candidate beeps its current bit; hearing a 1 eliminates the
candidates whose bit was 0.  After ``ceil(log2 id_bound)`` rounds the
received transcript spells out the maximum identifier.

Unlike ``InputSet`` and parity, this protocol is *adaptive* — what a party
beeps depends on the transcript it received — which makes it the key test
for the chunk-commit simulator's replay machinery (§2.2 points out that
general interactive coding must handle exactly this dependence).
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import Sequence

from repro.core.protocol import FunctionalProtocol, Protocol
from repro.errors import ConfigurationError, TaskError
from repro.tasks.base import Task
from repro.util.bits import bits_to_int, int_to_bits

__all__ = ["MaxIdTask", "max_id_noiseless_protocol"]


def max_id_noiseless_protocol(n_parties: int, id_bits: int) -> Protocol:
    """Bit-by-bit maximum election over ``id_bits`` rounds.

    A party stays a candidate while its identifier prefix matches the
    received prefix; candidates beep their next identifier bit.  The
    received transcript equals the binary expansion of ``max(x)``, which is
    every party's output.
    """

    # A party's identifier bits, built once per identifier rather than
    # once per round (broadcast runs every round of every replay).
    bits_of = lru_cache(maxsize=1 << 12)(partial(int_to_bits, width=id_bits))

    def broadcast(
        _party: int, input_value: int, prefix: Sequence[int]
    ) -> int:
        my_bits = bits_of(input_value)
        round_index = len(prefix)
        # Candidate iff my bits so far match the winning prefix.
        if my_bits[:round_index] != tuple(prefix):
            return 0
        return my_bits[round_index]

    def output(_party: int, _input_value: int, received: Sequence[int]) -> int:
        return bits_to_int(received)

    return FunctionalProtocol(
        n_parties=n_parties,
        length=id_bits,
        broadcast=broadcast,
        output=output,
    )


class MaxIdTask(Task):
    """Elect the maximum of distinct uniform identifiers in ``[0, 2^id_bits)``.

    Args:
        n_parties: Number of parties.
        id_bits: Identifier width; must satisfy ``2^id_bits >= n_parties``
            so that distinct identifiers exist.
    """

    def __init__(self, n_parties: int, id_bits: int) -> None:
        if id_bits < 1:
            raise ConfigurationError(f"id_bits must be >= 1, got {id_bits}")
        if (1 << id_bits) < n_parties:
            raise ConfigurationError(
                f"2^{id_bits} identifiers cannot be distinct for "
                f"{n_parties} parties"
            )
        super().__init__(n_parties)
        self.id_bits = id_bits

    def sample_inputs(self, rng: random.Random) -> list[int]:
        # Rejection sampling: random.sample would materialise the whole
        # range, which is infeasible for wide identifiers (id_bits >= 60).
        chosen: list[int] = []
        seen: set[int] = set()
        while len(chosen) < self.n_parties:
            candidate = rng.getrandbits(self.id_bits)
            if candidate not in seen:
                seen.add(candidate)
                chosen.append(candidate)
        return chosen

    def reference_output(self, inputs: Sequence[int]) -> int:
        if len(set(inputs)) != len(inputs):
            raise TaskError("identifiers must be distinct")
        return max(inputs)

    def noiseless_protocol(self) -> Protocol:
        return max_id_noiseless_protocol(self.n_parties, self.id_bits)
