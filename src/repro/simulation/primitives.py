"""Sub-coroutines shared by the simulation schemes.

Parties are generators (yield the beeped bit, receive the channel bit), so
multi-round building blocks compose with ``yield from``: a party writes

    decoded = yield from repeated_bit(bit, repetitions)

and the party's code reads like a single logical operation.

By default each primitive emits **batch tokens**
(:class:`~repro.core.party.Burst` / :class:`~repro.core.party.Silence`)
instead of one bit per round: the engine's scheduler then sleeps the
party for the whole constant-bit stretch and hands back the heard bits as
one ``bytes`` slice on wake-up.  The results are bitwise identical to the
per-round form — the tokens are pure scheduling sugar — and the desugared
per-round generators remain available through :func:`batch_tokens`:

    with batch_tokens(False):
        result = simulator.simulate(...)   # pre-token round-by-round engine

which is what the equivalence suites and the before/after simulation
benchmark use as their reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Iterator, Sequence

from repro.core.party import Burst, Silence
from repro.util.bits import BitWord

__all__ = [
    "repeated_bit",
    "transmit_word",
    "silent_rounds",
    "batch_tokens",
    "batch_tokens_enabled",
]

# Module-level switch: True -> primitives yield Burst/Silence batch tokens,
# False -> they yield one bit per round (the pre-token desugared form).
_BATCH_TOKENS = True


def batch_tokens_enabled() -> bool:
    """Whether the primitives currently emit batch tokens."""
    return _BATCH_TOKENS


@contextmanager
def batch_tokens(enabled: bool) -> Iterator[None]:
    """Context manager toggling batch-token emission by the primitives.

    Applies process-wide (it flips a module-level flag read each time a
    primitive starts), so only toggle it around whole executions — parties
    already mid-flight keep the mode they started with only until their
    next primitive call.
    """
    global _BATCH_TOKENS
    previous = _BATCH_TOKENS
    _BATCH_TOKENS = bool(enabled)
    try:
        yield
    finally:
        _BATCH_TOKENS = previous


def repeated_bit(
    bit: int, repetitions: int
) -> Generator[int, int, int]:
    """Beep ``bit`` for ``repetitions`` rounds; return the majority received.

    This is the footnote-1 primitive: a single virtual round of the
    simulated protocol, hardened by repetition + majority vote.  It doubles
    as the error-flag OR vote of the verification phases (beep the flag,
    majority-decode the OR of all flags).

    In token mode the whole vote is one ``Burst`` — the engine sleeps the
    party and returns the ``repetitions`` heard bits in one sequence; the
    majority is then a single C-level ``sum``.  The desugared form keeps
    the vote as a running count — same majority (strict, ties to 0), no
    per-round allocation.
    """
    if _BATCH_TOKENS and repetitions > 0:
        heard = yield Burst(bit, repetitions)
        ones = sum(heard)
    else:
        ones = 0
        for _ in range(repetitions):
            ones += yield bit
    return 1 if 2 * ones > repetitions else 0


def transmit_word(
    word: Sequence[int],
) -> Generator[int, int, BitWord]:
    """Beep a codeword bit-by-bit; return the received word.

    Used by the owners phase: the speaker transmits ``C(j)`` while everyone
    else transmits silence (the all-zero word), and every party collects the
    channel's output for decoding.

    In token mode the word is decomposed into maximal constant-bit runs,
    one ``Burst``/``Silence`` token per run — a listener's all-zero word
    becomes a single ``Silence(len(word))``, and a speaker's codeword costs
    one engine wake-up per run instead of one per bit.
    """
    if _BATCH_TOKENS:
        length = len(word)
        received: list[int] = []
        start = 0
        while start < length:
            bit = word[start]
            stop = start + 1
            while stop < length and word[stop] == bit:
                stop += 1
            run = stop - start
            heard = yield (Burst(bit, run) if bit else Silence(run))
            received.extend(heard)
            start = stop
        return tuple(received)
    received = []
    for bit in word:
        received.append((yield bit))
    return tuple(received)


def silent_rounds(count: int) -> Generator[int, int, BitWord]:
    """Stay silent for ``count`` rounds; return what was heard.

    In token mode this is a single ``Silence(count)`` — the canonical
    sleeping listener.
    """
    if _BATCH_TOKENS and count > 0:
        heard = yield Silence(count)
        return tuple(heard)
    received: list[int] = []
    for _ in range(count):
        received.append((yield 0))
    return tuple(received)
