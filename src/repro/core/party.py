"""Party abstractions.

A :class:`Party` is one participant of a beeping protocol.  Its behaviour is
a generator returned by :meth:`Party.run`:

* the generator **yields** the bit the party beeps this round;
* the engine **sends** back the bit the party received from the channel;
* the generator **returns** (via ``StopIteration``) the party's final output.

This coroutine style lets complex multi-phase protocols be written as
ordinary sequential code.  Example::

    class EchoParty(Party):
        def __init__(self, bit):
            self.bit = bit

        def run(self):
            received = yield self.bit     # beep my bit, hear the OR
            return received               # output what I heard

For protocols given in the paper's functional form (a broadcast function per
round plus an output function), :class:`FunctionalParty` adapts the
``(T, f, g)`` formalism to the coroutine interface.

Batch tokens
------------

Besides a plain bit, a party may yield a **batch token** covering several
consecutive rounds in one step:

* ``Burst(bit, count)`` — beep the constant ``bit`` for ``count`` rounds;
* ``Silence(count)`` — stay silent for ``count`` rounds (sugar for
  ``Burst(0, count)``).

The engine then *sleeps* the party: its generator is not resumed during the
covered rounds, and on wake-up it is sent the ``count`` received bits as one
``bytes`` sequence (a single slice of the transcript's received column)
instead of one ``int`` per round.  A token is exactly equivalent to yielding
its bit ``count`` times — same rounds on the channel, same received bits,
same energy accounting — but the engine's per-round work scales with the
number of *awake* parties, which is what makes the Theorem 1.2 simulators'
long repetition/listening stretches cheap.  See ``docs/api.md`` for the
contract and :mod:`repro.simulation.primitives` for the canonical users.

Stepping a party outside the engine
-----------------------------------

Wrappers and simulators that run an inner party inside their own rounds
step it with :class:`InnerReplay`, which follows the same contract: a
batch token is served as its bit for ``count`` steps, after which the
party is sent the ``count`` heard bits as one ``bytes``.  So every
wrapper runs a token party exactly as it runs the same party yielding
plain bits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator, Sequence, Union

from repro.errors import ProtocolError

__all__ = [
    "Party",
    "FunctionalParty",
    "PartyProgram",
    "Burst",
    "Silence",
    "InnerReplay",
]


class Burst:
    """Yield token: beep the constant ``bit`` for ``count`` rounds.

    The engine validates ``bit`` (must be 0/1) and ``count`` (must be a
    positive ``int``) when the token is accepted; the constructor stays
    trivial because tokens are created once per multi-round batch inside
    party hot loops.
    """

    __slots__ = ("bit", "count")

    def __init__(self, bit: int, count: int) -> None:
        self.bit = bit
        self.count = count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Burst(bit={self.bit}, count={self.count})"


class Silence(Burst):
    """Yield token: stay silent for ``count`` rounds (``Burst(0, count)``)."""

    __slots__ = ()

    def __init__(self, count: int) -> None:
        Burst.__init__(self, 0, count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Silence(count={self.count})"


# The coroutine type of a party: yields beeped bits or batch tokens,
# receives channel bits (an ``int`` per awake round, a ``bytes`` sequence
# on wake-up from a batch), returns the party's output.
PartyProgram = Generator[Union[int, Burst], Any, Any]

# f_m^i in the paper: (input, received prefix) -> bit to beep in round m.
BroadcastFunction = Callable[[Any, Sequence[int]], int]
# g^i in the paper: (input, full received transcript) -> output.
OutputFunction = Callable[[Any, Sequence[int]], Any]


class Party(ABC):
    """One participant in a beeping protocol.

    Subclasses implement :meth:`run`.  A party instance is single-use: the
    engine calls ``run`` exactly once per execution.  Simulators that need to
    re-run a party from scratch (rewind-if-error) re-create it through its
    protocol's factory.
    """

    @abstractmethod
    def run(self) -> PartyProgram:
        """The party's program; see the module docstring for the calling
        convention."""


class FunctionalParty(Party):
    """A party defined by the paper's ``(T, {f_m}, g)`` formalism.

    Args:
        input_value: The party's input ``x^i``.
        length: Number of rounds ``T``.
        broadcast: ``f(input, received_prefix) -> bit``; called once per
            round with the received bits of all *previous* rounds (so in
            round ``m`` the prefix has length ``m - 1``, matching
            ``f_m^i : X^i × {0,1}^{m-1} → {0,1}``).
        output: ``g(input, received) -> output``; called after the last
            round with the party's full received transcript.
    """

    def __init__(
        self,
        input_value: Any,
        length: int,
        broadcast: BroadcastFunction,
        output: OutputFunction,
    ) -> None:
        self.input_value = input_value
        self.length = length
        self.broadcast = broadcast
        self.output = output

    def run(self) -> PartyProgram:
        # This generator body runs once per party per round — the innermost
        # loop of every Monte-Carlo trial — so attribute lookups are hoisted
        # out of the loop.
        received: list[int] = []
        broadcast = self.broadcast
        input_value = self.input_value
        append = received.append
        for _ in range(self.length):
            heard = yield broadcast(input_value, received)
            append(heard)
        return self.output(input_value, received)


class InnerReplay:
    """Steps one party's program a round at a time, outside the engine.

    ``next_bit`` is the bit the party beeps next, or ``None`` once it has
    finished (its output is then ``output``); :meth:`advance` delivers
    one received bit.  A batch token is served as its ``bit`` for
    ``count`` steps, then the party is sent the ``count`` heard bits as
    one ``bytes``, as the engine sends them.  ``prefix`` is delivered
    first.

    Advancing a finished party raises :class:`ProtocolError` when
    ``strict`` (the chunk schemes need exactly ``length()`` rounds) and
    does nothing otherwise.
    """

    __slots__ = (
        "next_bit",
        "finished",
        "output",
        "_send",
        "_strict",
        "_heard",
        "_left",
    )

    def __init__(
        self,
        party: Party,
        prefix: Sequence[int] = (),
        *,
        strict: bool = True,
    ) -> None:
        self.next_bit: int | None = None
        self.finished = False
        self.output: Any = None
        self._send = party.run().send
        self._strict = strict
        # The heard bits of the current token, or None between tokens.
        self._heard: bytearray | None = None
        self._left = 0
        # Priming: a generator's first send is None.
        self.advance(None)
        for received in prefix:
            self.advance(received)

    def advance(self, received: int) -> None:
        """Deliver one received bit to the party."""
        heard = self._heard
        if heard is not None:
            heard.append(received)
            self._left -= 1
            if self._left:
                return
            self._heard = None
            received = bytes(heard)
        elif self.finished:
            if self._strict:
                raise ProtocolError(
                    "inner party finished before its declared length"
                )
            return
        try:
            item = self._send(received)
        except StopIteration as stop:
            self.finished = True
            self.next_bit = None
            self.output = stop.value
            return
        if isinstance(item, Burst):
            count = item.count
            if type(count) is not int or count < 1:
                raise ProtocolError(
                    f"batch token count must be a positive int, got "
                    f"{count!r}"
                )
            self._heard = bytearray()
            self._left = count
            item = item.bit
        self.next_bit = item
