"""Party-collapsed form of the repetition simulator (footnote 1).

The scalar :class:`~repro.simulation.repetition_sim.RepetitionSimulator`
wraps each inner party in a coroutine that beeps every inner bit
``repetitions`` times and majority-decodes the channel's answers, then
drives the wrapped protocol through the full engine.  On the shared-bit
channels (every party hears the same bit — each family in
:data:`~repro.vectorized.schemes.CHANNEL_KINDS` but independent noise)
all parties decode the same majority, so the per-party work is
redundant: one live inner-party set plus one windowed draw per virtual
round reproduces the execution bitwise — same RNG draw order, rounds,
channel statistics, per-party energy and outputs, including the
engine's :class:`~repro.errors.ProtocolDesyncError` when parties
disagree on when to stop.

Under independent noise each party majority-votes its *own* receptions.
A scalar round draws one noise value per party, in party order, so a
virtual round's whole vote window is one ``r × n`` block of the flip
stream, summed per party; each party then advances on its own majority
(``advance_each`` of the trial's inner programs, which delivers party
``i`` its own bit), and the views may diverge exactly as in the scalar
run.  Adversarial channels have no replay and take the runner's scalar
fallback.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as _np

from repro.channels.base import Channel
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.errors import ProtocolDesyncError
from repro.simulation.repetition_sim import RepetitionSimulator
from repro.vectorized.noise import FlipSource
from repro.vectorized.schemes import (
    _finish,
    _inner_programs,
    _shared_channel,
)

__all__ = ["simulate_repetition"]


def simulate_repetition(
    simulator: RepetitionSimulator,
    protocol: Protocol,
    inputs: Sequence[Any],
    channel: Channel,
    *,
    shared_seed: int | None = None,
    flips: FlipSource | None = None,
) -> ExecutionResult:
    """The repetition scheme, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels, with ``transcript=None``.

    ``flips`` optionally injects a pre-built noise stream (the runner's
    per-trial stream).
    """
    report, _ = simulator.plan(protocol, channel)
    repetitions = report.extra["repetitions"]
    n_parties = protocol.n_parties

    shared = _shared_channel(channel, flips)
    per_party = not channel.correlated
    programs = _inner_programs(protocol, inputs, shared_seed, strict=False)
    energy = [0] * n_parties

    while True:
        bits = programs.bits
        finished_count = sum(1 for bit in bits if bit is None)
        if finished_count == n_parties:
            break
        if finished_count:
            laggards = [
                index for index, bit in enumerate(bits) if bit is not None
            ]
            raise ProtocolDesyncError(
                f"parties {laggards} still communicating after others "
                f"finished at round {shared.stats.rounds}"
            )
        beeps = 0
        for index, bit in enumerate(bits):
            beeps += bit
            energy[index] += bit * repetitions
        if per_party:
            ones = shared.votes(bits, repetitions)
            programs.advance_each(
                (2 * ones > repetitions).astype(_np.int64).tolist()
            )
            continue
        or_value = 1 if beeps else 0
        ones = shared.window(or_value, beeps, repetitions)
        decoded = 1 if 2 * ones > repetitions else 0
        programs.advance(decoded)

    return _finish(simulator, report, shared, energy, programs.outputs())
