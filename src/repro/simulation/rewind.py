"""Constant-overhead rewind simulation for suppression (1→0) noise.

Section 1.1 of the paper observes a striking asymmetry: while 0→1 noise
forces an Ω(log n) simulation overhead (Theorem 1.1), noise that only turns
beeps into silence admits a **constant**-overhead simulation.  The reason
(§2.1): a 1→0 flip is always *detected by its victim* — the party whose beep
vanished knows it — and under 1→0-only noise a received 1 is always genuine,
so an error alarm can itself be trusted.

This module implements the classic Schulman-style rewind random walk built
on that observation.  Each iteration spends exactly two rounds:

* **Alarm round** — every party compares the *entire* working transcript
  against its own beeps; a party that ever beeped 1 where the transcript
  shows 0 beeps an alarm.  A received alarm pops the last transcript
  position (and the iteration's second round is a silent dummy).
* **Simulation round** (only on a clean alarm vote) — parties beep the next
  bit of the inner protocol (replayed against the current working
  transcript) and append the received bit.

Voting before extending matters: a corrupted round buried under later
appends is only reachable if pops can outnumber appends, i.e. if an
alarm-bearing iteration moves the frontier strictly backwards.

Under suppression noise the alarm logic is sound and complete:

* a received alarm proves some party's beep was suppressed somewhere in the
  working prefix (alarms cannot be fabricated by noise), so a pop is always
  warranted — at worst it discards a correct suffix that will be resimulated;
* a corrupted position keeps its victim alarming every iteration, and each
  alarm gets through with probability ``1 - ε``, so the walk drifts forward
  and reaches a fully correct length-T transcript after O(T) iterations with
  probability exponentially close to 1.

The same scheme run over a 0→1-noisy channel is *unsound twice over*: noise
fabricates alarms (popping good rounds) and fabricates transcript 1s that no
party can dispute (§2.1's unverifiable 1s).  Experiment E3 runs exactly this
head-to-head to exhibit the paper's asymmetry.

Unlike the chunk-based schemes, rewind stays **per-round** and emits no
batch tokens: every alarm bit depends on the received bit of the previous
round (an alarm pops the transcript, changing what every party compares
against next iteration), so no party ever knows its next two beeps in
advance — there is no constant run to batch.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel
from repro.core.party import InnerReplay, Party
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError
from repro.simulation.base import (
    ReplayingProtocol,
    SimulationReport,
    Simulator,
)

__all__ = ["RewindSimulator"]


class _RewindParty(Party):
    """One party of the rewind random walk."""

    def __init__(
        self,
        party_index: int,
        make_inner: Callable[[], Party],
        report: SimulationReport,
        trace: list | None = None,
    ) -> None:
        self.party_index = party_index
        self.make_inner = make_inner
        self.report = report
        # Per-pop trace log (party 0 only; pure bookkeeping over shared
        # state, consumes no RNG draws — see repro.observe).
        self.trace = trace if party_index == 0 else None

    def _replay(self, working: Sequence[int]) -> InnerReplay:
        """A fresh inner party stepped past ``working``; its ``next_bit``
        is the beep for round ``len(working)``, or ``None`` once the
        protocol has ended."""
        return InnerReplay(self.make_inner(), working, strict=False)

    def run(self):
        inner_length = self.report.inner_length
        # Incremental state.  ``my_beeps[m]`` is what I beeped in round
        # ``m`` given ``working[:m]``; it stays valid under append/pop
        # because a round's beep depends only on the prefix before it.
        # ``disputed`` holds the positions I would alarm about; ``replay``
        # is a live inner party aligned with ``working`` (rebuilt after
        # pops, the only operation a coroutine cannot undo).
        working: list[int] = []  # shared working transcript
        my_beeps: list[int] = []
        disputed: set[int] = set()
        rewinds = 0
        replay = self._replay(working)
        stale = False

        for iteration in range(self.report.extra["iterations"]):
            if stale:
                replay = self._replay(working)
                stale = False

            # Alarm round first: dispute any 0 in the working transcript
            # where I beeped 1.  Voting *before* extending is what lets the
            # walk move net-backwards and unwind a corrupted round that got
            # buried under later appends.
            alarm = 1 if disputed else 0
            heard_alarm = yield alarm

            if heard_alarm == 1:
                if working:
                    popped = len(working) - 1
                    working.pop()
                    my_beeps.pop()
                    disputed.discard(popped)
                    rewinds += 1
                    stale = True
                    if self.trace is not None:
                        self.trace.append(
                            {"iteration": iteration, "position": popped}
                        )
                # Keep the iteration at a fixed two rounds: a silent dummy
                # round replaces the simulation round after a rewind.
                yield 0
            else:
                # Simulation round: extend the working transcript by one
                # round (parties past the protocol's end stay silent).
                position = len(working)
                simulating = position < inner_length
                my_bit = (
                    replay.next_bit
                    if simulating and replay.next_bit is not None
                    else 0
                )
                received = yield my_bit
                if simulating:
                    working.append(received)
                    my_beeps.append(my_bit)
                    if received == 0 and my_bit == 1:
                        disputed.add(position)
                    replay.advance(received)

        if self.party_index == 0:
            self.report.rewinds = rewinds
            self.report.completed = (
                len(working) == inner_length and not disputed
            )
            self.report.extra["working_length"] = len(working)

        padded = working + [0] * (inner_length - len(working))
        return self._replay(padded).output


class RewindSimulator(Simulator):
    """The constant-overhead rewind scheme (sound under 1→0-only noise).

    Runs ``ceil(rewind_budget_factor · T) + rewind_budget_extra`` iterations
    of (simulate one round, alarm vote), i.e. a fixed round count of
    ``2·(budget_factor·T + extra)`` — a *constant* multiple of T, the
    separation from the Θ(log n) chunk scheme that experiment E3 measures.
    The report's ``extra["working_length"]`` is the walk's final
    working-prefix length, the committed prefix an incomplete run reports.

    The scheme is well-defined over any correlated channel, but its
    correctness argument needs suppression noise; over 0→1 noise it serves
    as the negative control demonstrating the paper's asymmetry.
    """

    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, None]:
        if not channel.correlated:
            raise ConfigurationError(
                "RewindSimulator requires a correlated channel (the working "
                "transcript must be shared)"
            )
        inner_length = self._require_fixed_length(protocol)
        iterations = (
            math.ceil(self.params.rewind_budget_factor * inner_length)
            + self.params.rewind_budget_extra
        )
        return self._report(inner_length, iterations=iterations), None

    def simulate(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        channel: Channel,
        *,
        shared_seed: int | None = None,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        report, _ = self.plan(protocol, channel)
        trace: list | None = [] if self._tracing(observe) else None
        wrapped = ReplayingProtocol(
            protocol,
            partial(_RewindParty, report=report, trace=trace),
            length=2 * report.extra["iterations"],
        )
        return self._execute(
            wrapped, inputs, channel, report, shared_seed, observe, trace
        )

    @staticmethod
    def _emit_trace(observe: "Observer", trace: list) -> None:
        """Replay party 0's pop log as ``rewind`` events."""
        for entry in trace:
            observe.emit(
                "rewind", iteration=entry["iteration"], position=entry["position"]
            )
