"""The A.1.2 reduction as a *protocol* wrapper (shared randomness).

Appendix A.1.2 shows how parties sharing a random string can run any
protocol designed for the two-sided ε = 1/4 channel over the *one-sided*
ε = 1/3 channel: whenever they receive a 1, all parties flip it to 0 with
probability 1/4 using the next shared coin.  The two flip sources compose
to exactly the two-sided ε = 1/4 law (see
:mod:`repro.channels.reduction` for the arithmetic; that module implements
the same construction as a channel).

This module implements the construction where the paper actually puts it:
in the *parties*.  :class:`OneSidedReductionProtocol` wraps any inner
protocol; each wrapped party derives an identical coin stream from the
execution's ``shared_seed`` (the shared random string of the randomized-
protocol definition in A.1.1) and applies the common down-flips before
handing the bit to its inner party.  Because every party flips the same
rounds, the inner parties still see a common transcript — the wrapped
protocol remains a correlated-model protocol.

This is the one place in the package where the ``shared_seed`` plumbing
carries real semantics, so its tests double as the shared-randomness
contract tests of the engine.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.party import InnerReplay, Party
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError, ProtocolError
from repro.rng import derive_seed

__all__ = ["OneSidedReductionProtocol"]

_COIN_STREAM_LABEL = "a12-shared-downflips"


class _ReductionParty(Party):
    """Runs an inner party, down-flipping received 1s with shared coins."""

    def __init__(self, inner: Party, p_down: float, coin_seed: int) -> None:
        self.inner = inner
        self.p_down = p_down
        self.coin_seed = coin_seed

    def run(self):
        # Every party seeds an identical generator and draws one coin per
        # round, used or not, so the stream position is round-indexed and
        # view-independent.  The inner party is stepped a round at a time
        # (a batch token's rounds each get their own coin).
        coins = random.Random(self.coin_seed)
        replay = InnerReplay(self.inner)
        while not replay.finished:
            received = yield replay.next_bit
            coin = coins.random()
            if received == 1 and coin < self.p_down:
                received = 0
            replay.advance(received)
        return replay.output


class OneSidedReductionProtocol(Protocol):
    """Wrap a two-sided-channel protocol to run over a one-sided channel.

    With the paper's parameters (inner designed for two-sided ε = 1/4, run
    over the one-sided ε = 1/3 channel, ``p_down = 1/4``) the inner
    protocol sees exactly the channel law it was designed for.

    Args:
        inner: The protocol to wrap.
        p_down: Shared-coin probability of flipping a received 1 to 0
            (paper: 1/4).

    The execution **must** provide a ``shared_seed`` — the construction is
    exactly a use of the shared random string, and running it without one
    is a logic error (raised at party-creation time).
    """

    def __init__(self, inner: Protocol, p_down: float = 0.25) -> None:
        super().__init__(inner.n_parties)
        if not 0.0 <= p_down < 1.0:
            raise ConfigurationError(
                f"p_down must be in [0, 1), got {p_down}"
            )
        self.inner = inner
        self.p_down = p_down

    def length(self) -> int | None:
        return self.inner.length()

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        if shared_seed is None:
            raise ProtocolError(
                "OneSidedReductionProtocol needs shared randomness: pass "
                "shared_seed to the execution (A.1.2's shared string)"
            )
        coin_seed = derive_seed(shared_seed, _COIN_STREAM_LABEL)
        inner_parties = self.inner.create_parties(
            inputs, shared_seed=derive_seed(shared_seed, "inner")
        )
        return [
            _ReductionParty(inner, self.p_down, coin_seed)
            for inner in inner_parties
        ]
