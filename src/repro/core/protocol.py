"""Protocol abstractions.

A :class:`Protocol` is a *factory* of parties: given the tuple of inputs and
an optional shared-randomness seed it creates one :class:`Party` per
participant.  Keeping protocols as factories (rather than live objects) is
what makes rewind-if-error simulation possible — the simulator can re-create
and replay a party deterministically from ``(input, transcript prefix)``.

Randomized protocols in the paper are distributions over deterministic
protocols, realised here by the ``shared_seed`` argument: all parties receive
the same seed and therefore can derive identical random streams (a shared
random string), while remaining jointly deterministic given the seed.

A *non-adaptive* protocol — every party's sent bits a function of its
input alone, whatever it hears — is written as a
:class:`~repro.core.formal.FormalProtocol` with a beep ``schedule``; that
class documents what reads it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, Sequence

from repro.core.party import (
    BroadcastFunction,
    FunctionalParty,
    OutputFunction,
    Party,
)
from repro.errors import ConfigurationError, ProtocolError

__all__ = ["Protocol", "FunctionalProtocol"]


class Protocol(ABC):
    """A beeping protocol for a fixed number of parties.

    Attributes:
        n_parties: Number of participants.
    """

    def __init__(self, n_parties: int) -> None:
        if n_parties < 1:
            raise ConfigurationError(
                f"a protocol needs at least one party, got {n_parties}"
            )
        self.n_parties = n_parties

    @abstractmethod
    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        """Instantiate fresh parties for one execution.

        Args:
            inputs: One input per party (``len(inputs) == n_parties``).
            shared_seed: Seed of the shared random string, identical for all
                parties; ``None`` for deterministic protocols.
        """

    def create_party(
        self,
        index: int,
        inputs: Sequence[Any],
        shared_seed: int | None = None,
    ) -> Party:
        """Party ``index`` of ``create_parties(inputs, shared_seed)``,
        alone.

        For the simulators that rebuild one inner party per replay.  The
        default builds them all and keeps one; a protocol whose parties
        can be built one at a time overrides it.  It takes every input,
        not just ``inputs[index]``: a wrapper may build its parties from
        another party's input (``announce_input`` reads the announcer's).
        """
        return self.create_parties(inputs, shared_seed=shared_seed)[index]

    def length(self) -> int | None:
        """Number of rounds, when fixed and known a priori; else ``None``.

        The engine uses this only as metadata (overhead accounting); the
        actual round count is driven by the party coroutines.
        """
        return None

    def _check_inputs(self, inputs: Sequence[Any]) -> None:
        """Shared validation for ``create_parties`` implementations."""
        if len(inputs) != self.n_parties:
            raise ProtocolError(
                f"expected {self.n_parties} inputs, got {len(inputs)}"
            )


class FunctionalProtocol(Protocol):
    """A protocol given by per-party broadcast/output functions.

    This is the executable twin of the paper's ``(T, {f_m^i}, {g^i})``
    definition.  Broadcast functions may be shared across parties (the
    common case for symmetric protocols) or given per party.

    Args:
        n_parties: Number of parties.
        length: Round count ``T``.
        broadcast: Either one function used by all parties, with signature
            ``f(party_index, input, received_prefix) -> bit``, or a sequence
            of ``n_parties`` functions ``f(input, received_prefix) -> bit``.
        output: Same convention for the output functions ``g``.
    """

    def __init__(
        self,
        n_parties: int,
        length: int,
        broadcast: (
            Callable[[int, Any, Sequence[int]], int]
            | Sequence[BroadcastFunction]
        ),
        output: (
            Callable[[int, Any, Sequence[int]], Any]
            | Sequence[OutputFunction]
        ),
    ) -> None:
        super().__init__(n_parties)
        if length < 0:
            raise ConfigurationError(f"length must be >= 0, got {length}")
        self._length = length
        self.broadcast = broadcast
        self._output = output

    def length(self) -> int:
        return self._length

    def _broadcast_for(self, index: int) -> BroadcastFunction:
        if callable(self.broadcast):
            # partial() binds the party index at C level; the broadcast
            # function is called once per round in the engine's hot loop,
            # where a Python closure's extra frame is measurable.
            return partial(self.broadcast, index)
        return self.broadcast[index]

    def _output_for(self, index: int) -> OutputFunction:
        if callable(self._output):
            return partial(self._output, index)
        return self._output[index]

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        return [
            self.create_party(index, inputs, shared_seed)
            for index in range(self.n_parties)
        ]

    def create_party(
        self,
        index: int,
        inputs: Sequence[Any],
        shared_seed: int | None = None,
    ) -> Party:
        return FunctionalParty(
            input_value=inputs[index],
            length=self._length,
            broadcast=self._broadcast_for(index),
            output=self._output_for(index),
        )
