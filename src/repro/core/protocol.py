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
input alone, whatever it hears — may declare them as a beep
:attr:`Protocol.schedule`.  Its own parties decide whether they read it
(:class:`~repro.core.formal.FormalProtocol`'s yield batch tokens over
it; :class:`FunctionalProtocol`'s keep calling ``broadcast`` round by
round).  The party-collapsed schemes of :mod:`repro.vectorized.schemes`
read their sent-bit columns off it and compute outputs with
:meth:`Protocol.party_output` instead of running ``n`` coroutines.
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

__all__ = ["BeepSchedule", "Protocol", "FunctionalProtocol"]

# s(i, x_i) -> int whose bit m is party i's round-m beep for every π.
BeepSchedule = Callable[[int, Any], int]


class Protocol(ABC):
    """A beeping protocol for a fixed number of parties.

    Attributes:
        n_parties: Number of participants.
    """

    _schedule: BeepSchedule | None = None
    _scheduled_broadcast: Any = None

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

    def length(self) -> int | None:
        """Number of rounds, when fixed and known a priori; else ``None``.

        The engine uses this only as metadata (overhead accounting); the
        actual round count is driven by the party coroutines.
        """
        return None

    @property
    def schedule(self) -> BeepSchedule | None:
        """The declared beep schedule of a non-adaptive protocol, or
        ``None``.

        ``schedule(i, y)`` is an int whose bit ``m`` is the bit party
        ``i`` beeps in round ``m`` on input ``y``, for every received
        prefix.  It must agree with the protocol's parties.  It is bound
        to the protocol's ``broadcast`` attribute current when it is set
        (``None`` on protocols without one), so reassigning ``broadcast``
        switches it off and this reads ``None`` again.  A protocol that
        declares a schedule also implements :meth:`party_output`.
        """
        if getattr(self, "broadcast", None) is not self._scheduled_broadcast:
            return None
        return self._schedule

    @schedule.setter
    def schedule(self, schedule: BeepSchedule | None) -> None:
        self._schedule = schedule
        self._scheduled_broadcast = getattr(self, "broadcast", None)

    def party_output(
        self, index: int, input_value: Any, received: Sequence[int]
    ) -> Any:
        """Party ``index``'s output ``g^i(x^i, received)`` on its full
        received transcript — what its party returns after the last
        round.  Required of protocols that declare a :attr:`schedule`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no output function"
        )

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
        schedule: Optional beep schedule of a *non-adaptive* protocol
            (see :attr:`Protocol.schedule`), bound to ``broadcast``.
            Parties still run ``broadcast`` round by round; the
            party-collapsed schemes read the schedule instead.
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
        schedule: BeepSchedule | None = None,
    ) -> None:
        super().__init__(n_parties)
        if length < 0:
            raise ConfigurationError(f"length must be >= 0, got {length}")
        self._length = length
        self.broadcast = broadcast
        self.schedule = schedule
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

    def party_output(
        self, index: int, input_value: Any, received: Sequence[int]
    ) -> Any:
        return self._output_for(index)(input_value, received)

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        return [
            FunctionalParty(
                input_value=inputs[index],
                length=self._length,
                broadcast=self._broadcast_for(index),
                output=self._output_for(index),
            )
            for index in range(self.n_parties)
        ]
