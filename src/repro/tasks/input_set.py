"""The ``InputSet_n`` task (Appendix A.2) — the paper's hard instance.

Every party ``i`` holds a uniform, independent ``x^i ∈ [2n]`` and all parties
must output the set ``L(x) = {x^i | i ∈ [n]}``.

The task has a trivial 2n-round noiseless protocol: in round ``m`` party
``i`` beeps iff ``x^i = m``, so ``π_m = 1 ⟺ m ∈ L(x)`` and every party can
read the answer off the transcript.  :func:`input_set_formal_protocol`
builds it as the paper's ``(T, {f}, g)`` tuple with its beep schedule
declared: the engine runs its parties as batch tokens, every simulator
wraps it, the exact lower-bound analysis reads its beep masks, and the
party-collapsed schemes read its sent bits.  Theorem C.1 shows that over
the one-sided ε-noisy channel, *any* protocol needs Ω(n log n) rounds —
the multiplicative Ω(log n) separation of Theorem 1.1.

The function's hardness stems from its sensitivity (§2.3): for a constant
fraction of inputs, Θ(n) parties hold *unique* values, and changing any one
of them changes the output.  The helpers :meth:`InputSetTask.unique_holders`
and the neighbor machinery in :mod:`repro.lowerbound.neighbors` quantify
this.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.formal import FormalProtocol
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, TaskError
from repro.tasks.base import Task

__all__ = ["InputSetTask", "input_set_formal_protocol"]


def input_set_formal_protocol(
    n_parties: int, repetitions: int = 1, decision: str = "majority"
) -> FormalProtocol:
    """The noiseless ``InputSet`` protocol as a :class:`FormalProtocol`.

    Party ``i`` beeps in round ``x^i`` (rounds numbered 1..2n, as in the
    paper) and the output is the set of 1-rounds, read off the received
    transcript.  With ``repetitions = 1`` this is the task's own
    :meth:`InputSetTask.noiseless_protocol`.  It is consumable by the
    Appendix C machinery (feasible sets, ζ, entropy).  With
    ``repetitions > 1`` every round is beeped that many times
    back-to-back — the repetition-hardened protocol family whose
    correctness-vs-length tradeoff experiments E2 and E5 chart against
    the Theorem C.2/C.3 bounds.

    Args:
        n_parties: Number of parties.
        repetitions: Back-to-back copies of each virtual round.
        decision: How the output aggregates a virtual round's votes —
            ``"majority"`` (ties to 0; the right rule for two-sided noise)
            or ``"unanimous"`` (round is 1 only when every vote is 1; the
            maximum-likelihood rule under *one-sided* 0→1 noise, where a
            true 1 is never suppressed and a single 0 vote proves the
            round was silent).  Majority is non-monotone in ``repetitions``
            under one-sided ε = 1/3 (ties break toward 0, and flips only
            point up), which is why the E5 sweep uses ``"unanimous"``.
    """
    if repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    if decision not in ("majority", "unanimous"):
        raise ConfigurationError(
            f"decision must be 'majority' or 'unanimous', got {decision!r}"
        )
    # One tuple shared by every party: FormalProtocol keeps a tuple as is.
    universe = tuple(range(1, 2 * n_parties + 1))
    length = 2 * n_parties * repetitions

    def broadcast(_party: int, x: int, prefix) -> int:
        virtual_round = len(prefix) // repetitions + 1
        return 1 if x == virtual_round else 0

    # Non-adaptive: x ∈ [2n] beeps the ``repetitions`` rounds of virtual
    # round x, whatever it hears; inputs outside [2n] never beep.
    block = (1 << repetitions) - 1
    masks = {x: block << ((x - 1) * repetitions) for x in universe}

    def schedule(_party: int, x: int) -> int:
        return masks.get(x, 0)

    def output(pi) -> frozenset[int]:
        members = []
        for m in range(2 * n_parties):
            votes = pi[m * repetitions : (m + 1) * repetitions]
            if decision == "majority":
                is_member = 2 * sum(votes) > repetitions
            else:
                is_member = all(votes)
            if is_member:
                members.append(m + 1)
        return frozenset(members)

    return FormalProtocol(
        n_parties=n_parties,
        length=length,
        input_spaces=[universe] * n_parties,
        broadcast=broadcast,
        output=output,
        schedule=schedule,
    )


class InputSetTask(Task):
    """``InputSet_n``: compute ``{x^i}`` from uniform ``x^i ∈ [2n]``."""

    def __init__(self, n_parties: int) -> None:
        if n_parties < 1:
            raise ConfigurationError(
                f"InputSet needs at least one party, got {n_parties}"
            )
        super().__init__(n_parties)
        self.universe_size = 2 * n_parties

    @property
    def universe(self) -> range:
        """The input domain ``[2n] = {1, ..., 2n}``."""
        return range(1, self.universe_size + 1)

    def sample_inputs(self, rng: random.Random) -> list[int]:
        return [
            rng.randint(1, self.universe_size)
            for _ in range(self.n_parties)
        ]

    def validate_inputs(self, inputs: Sequence[int]) -> None:
        """Raise :class:`TaskError` on inputs outside ``[2n]``."""
        if len(inputs) != self.n_parties:
            raise TaskError(
                f"expected {self.n_parties} inputs, got {len(inputs)}"
            )
        for index, value in enumerate(inputs):
            if not 1 <= value <= self.universe_size:
                raise TaskError(
                    f"input of party {index} is {value}, outside "
                    f"[1, {self.universe_size}]"
                )

    def reference_output(self, inputs: Sequence[int]) -> frozenset[int]:
        """``L(x) = {x^i | i ∈ [n]}``."""
        self.validate_inputs(inputs)
        return frozenset(inputs)

    def noiseless_protocol(self) -> Protocol:
        return input_set_formal_protocol(self.n_parties)

    def unique_holders(self, inputs: Sequence[int]) -> frozenset[int]:
        """``G_1(x)``: parties whose input no other party shares (§C.2).

        These are the parties whose input change is guaranteed to change
        ``L(x)`` — the sensitivity core of the lower bound.
        """
        self.validate_inputs(inputs)
        counts: dict[int, int] = {}
        for value in inputs:
            counts[value] = counts.get(value, 0) + 1
        return frozenset(
            index
            for index, value in enumerate(inputs)
            if counts[value] == 1
        )
