"""Protocol combinators.

Small structural transforms used by the analyses and handy for users:

* :func:`announce_input` — the paper's §C.2 WLOG step: prepend rounds in
  which one party beeps its own input bit by bit (everyone else silent),
  making that party's output computable *from the transcript alone* at an
  additive O(log |X|) cost.  This is the normalisation that lets the lower
  bound treat player 1's output as a function ``g(π)``.
* :class:`SequentialProtocol` — run two protocols back to back; outputs
  are the pair of the two outputs.
* :class:`TruncatedProtocol` — only the first ``k`` rounds of a protocol,
  outputting the received prefix.  The lower-bound experiments use it to
  hand a protocol an explicit round *budget* (A.2's remark that
  distributional protocols can be truncated at twice their expected length
  with constant error blowup).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.party import InnerReplay, Party, PartyProgram
from repro.core.protocol import Protocol
from repro.errors import ConfigurationError
from repro.util.bits import int_to_bits

__all__ = ["announce_input", "SequentialProtocol", "TruncatedProtocol"]


class _AnnouncingParty(Party):
    """Beeps ``bits`` (or silence) for the announcement prefix, then runs
    the inner party."""

    def __init__(self, inner: Party, bits: tuple[int, ...]) -> None:
        self.inner = inner
        self.bits = bits

    def run(self) -> PartyProgram:
        heard: list[int] = []
        for bit in self.bits:
            heard.append((yield bit))
        inner_output = yield from self.inner.run()
        return (tuple(heard), inner_output)


class _AnnouncedInputProtocol(Protocol):
    def __init__(
        self, inner: Protocol, announcer: int, width: int
    ) -> None:
        super().__init__(inner.n_parties)
        if not 0 <= announcer < inner.n_parties:
            raise ConfigurationError(
                f"announcer {announcer} out of range"
            )
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.inner = inner
        self.announcer = announcer
        self.width = width

    def length(self) -> int | None:
        inner_length = self.inner.length()
        if inner_length is None:
            return None
        return inner_length + self.width

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        inner_parties = self.inner.create_parties(
            inputs, shared_seed=shared_seed
        )
        announced = int_to_bits(int(inputs[self.announcer]), self.width)
        silence = (0,) * self.width
        return [
            _AnnouncingParty(
                inner,
                announced if index == self.announcer else silence,
            )
            for index, inner in enumerate(inner_parties)
        ]


def announce_input(
    inner: Protocol, announcer: int = 0, width: int | None = None
) -> Protocol:
    """The §C.2 normalisation: prepend ``width`` announcement rounds.

    Party ``announcer`` beeps its (integer) input MSB-first during the
    prefix; everyone stays silent otherwise.  Every party's output becomes
    ``(announced_prefix_bits, inner_output)`` — over a noiseless channel
    the prefix *is* the announcer's input, so any output that previously
    needed the announcer's private input is now transcript-determined.

    Args:
        inner: The protocol to normalise (integer inputs for the
            announcer).
        announcer: Which party announces (paper: player 1).
        width: Announcement width in bits; must be provided (there is no
            universal bound on input sizes).
    """
    if width is None:
        raise ConfigurationError(
            "width is required: pass ceil(log2(max input + 1))"
        )
    return _AnnouncedInputProtocol(inner, announcer, width)


class _SequentialParty(Party):
    def __init__(self, first: Party, second: Party) -> None:
        self.first = first
        self.second = second

    def run(self) -> PartyProgram:
        first_output = yield from self.first.run()
        second_output = yield from self.second.run()
        return (first_output, second_output)


class SequentialProtocol(Protocol):
    """Run ``first`` then ``second`` on the same inputs; outputs pair up.

    Both protocols must have the same party count.  Inputs are passed to
    both (wrap one side in an adapter if they need different inputs).
    """

    def __init__(self, first: Protocol, second: Protocol) -> None:
        if first.n_parties != second.n_parties:
            raise ConfigurationError(
                "sequential composition needs equal party counts "
                f"({first.n_parties} vs {second.n_parties})"
            )
        super().__init__(first.n_parties)
        self.first = first
        self.second = second

    def length(self) -> int | None:
        first_length = self.first.length()
        second_length = self.second.length()
        if first_length is None or second_length is None:
            return None
        return first_length + second_length

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        firsts = self.first.create_parties(inputs, shared_seed=shared_seed)
        seconds = self.second.create_parties(
            inputs, shared_seed=shared_seed
        )
        return [
            _SequentialParty(first, second)
            for first, second in zip(firsts, seconds)
        ]


class _TruncatedParty(Party):
    def __init__(self, inner: Party, budget: int) -> None:
        self.inner = inner
        self.budget = budget

    def run(self) -> PartyProgram:
        # Stepped a round at a time: the budget counts rounds, also
        # inside an inner batch token.
        replay = InnerReplay(self.inner)
        heard: list[int] = []
        while not replay.finished and len(heard) < self.budget:
            received = yield replay.next_bit
            heard.append(received)
            replay.advance(received)
        if replay.finished:
            return replay.output
        # Budget exhausted mid-protocol: output the received prefix (the
        # caller decides what to make of a truncated run).
        return tuple(heard)


class TruncatedProtocol(Protocol):
    """The first ``budget`` rounds of ``inner``.

    If the inner protocol finishes within the budget its output is
    returned unchanged; otherwise each party outputs the received prefix.
    """

    def __init__(self, inner: Protocol, budget: int) -> None:
        super().__init__(inner.n_parties)
        if budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {budget}")
        self.inner = inner
        self.budget = budget

    def length(self) -> int | None:
        inner_length = self.inner.length()
        if inner_length is None:
            return None
        return min(inner_length, self.budget)

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        return [
            _TruncatedParty(inner, self.budget)
            for inner in self.inner.create_parties(
                inputs, shared_seed=shared_seed
            )
        ]
