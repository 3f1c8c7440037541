"""The Theorem 1.2 scheme: chunked simulation with owners and rewind.

The noiseless protocol is simulated chunk by chunk (chunk = n rounds, the
paper's choice).  Each *chunk attempt* has three phases:

1. **Simulation phase** — every virtual round of the chunk is repeated
   ``Θ(log n)`` times and majority-decoded, producing a tentative chunk
   transcript ``π`` shared by all parties (Algorithm 1, phase 1).
2. **Finding owners** — Algorithm 1's second phase
   (:func:`~repro.simulation.owners.owners_phase`): every 1 in ``π`` gets an
   owner, i.e. a party that beeped 1 in that round.  Owners are what make
   0→1 flips detectable: a 1 nobody owns is a noise artifact.
3. **Verification** — each party raises an error flag when ``π`` conflicts
   with its own beeps: a 0 where it beeped 1 (a suppressed beep), a 1 with
   no owner (a phantom beep), or an ownership it never claimed (a decoding
   error).  The OR of the flags is computed by a repeated vote; a clean
   vote **commits** the chunk, a dirty one discards it (rewind-if-error).

Because every phase is driven by commonly received bits, all parties walk
through identical shared state (committed prefix, owner tables, attempt
counter) — this is exactly the advantage of the *correlated* noise model the
paper highlights in §1.2, and the scheme therefore requires a correlated
channel.  (Independent noise is served by
:class:`~repro.simulation.repetition_sim.RepetitionSimulator` for the
poly-length protocols this repository runs; see DESIGN.md.)

All three phases speak through the batch-token primitives
(:mod:`repro.simulation.primitives`): phase 1 is one ``Burst``/``Silence``
per party per virtual round, the owners phase one token per constant run
of each codeword (listeners yield a single ``Silence`` for the whole
word), and the verification vote one token per party per vote — so the
engine's per-round Python work collapses onto the few parties awake at
run boundaries.

Inner parties are *replayed*: each attempt re-creates the party and feeds it
the committed prefix, so adaptive protocols — whose beeps depend on the
transcript — are simulated correctly after rewinds.

Cost per committed chunk: ``n·r`` simulation rounds + ``(|J| + n)·L`` owner
rounds + ``r_v`` verification rounds with ``r, L, r_v = Θ(log n)``, i.e.
O(log n) overhead per noiseless round, matching Theorem 1.2.  The failure
probability is polynomially small in n for protocols of length poly(n) (the
regime of every experiment here); the paper's [EKS18]-style hierarchy, which
extends this to arbitrary lengths, is discussed in DESIGN.md.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel
from repro.core.formal import NoiseModel
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.chunk_common import (
    ChunkSchemeParty,
    emit_owners_phase,
    plan_chunks,
)
from repro.simulation.primitives import repeated_bit

__all__ = ["ChunkCommitSimulator"]


class _ChunkParty(ChunkSchemeParty):
    """One party of the chunk-commit scheme."""

    def run(self):
        max_attempts = self.report.extra["max_attempts"]
        committed: list[int] = []  # shared committed received prefix
        attempts = 0
        while len(committed) < self.inner_length and attempts < max_attempts:
            attempts += 1
            committed_before = len(committed)
            chunk_rounds = min(
                self.chunk_length, self.inner_length - len(committed)
            )

            # Phases 1 + 2 (Algorithm 1): replay the committed prefix,
            # simulate the chunk by repetition + majority, find owners.
            chunk = yield from self.simulate_chunk(committed, chunk_rounds)

            # Phase 3: verification vote; commit on a clean vote.
            flag = chunk.party_flag(self.party_index)
            verdict = yield from repeated_bit(
                flag, self.verification_repetitions
            )
            if verdict == 0:
                committed.extend(chunk.pi)
                if self.party_index == 0:
                    self.report.chunk_commits += 1
            if self.party_index == 0:
                self.report.chunk_attempts = attempts
            if self.trace is not None:
                entry = self.chunk_trace(chunk, attempts, committed_before)
                entry.update(
                    verify_rounds=self.verification_repetitions,
                    verdict=verdict,
                    committed=verdict == 0,
                )
                self.trace.append(entry)

        if self.party_index == 0:
            self.report.completed = len(committed) == self.inner_length
        return self.output_over(committed)


class ChunkCommitSimulator(Simulator):
    """Theorem 1.2's O(log n)-overhead simulation scheme.

    See the module docstring for the scheme; see
    :class:`~repro.simulation.params.SimulationParameters` for the knobs.
    """

    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, NoiseModel]:
        report, noise, num_chunks = plan_chunks(
            self,
            protocol,
            channel,
            "ChunkCommitSimulator relies on a shared transcript and "
            "requires a correlated channel; use RepetitionSimulator "
            "for independent noise",
        )
        report.extra["max_attempts"] = (
            math.ceil(self.params.attempt_slack * num_chunks)
            + self.params.attempt_extra
        )
        return report, noise

    def simulate(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        channel: Channel,
        *,
        shared_seed: int | None = None,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        report, noise = self.plan(protocol, channel)
        trace: list | None = [] if self._tracing(observe) else None
        wrapped = _ChunkParty.outer_protocol(
            protocol, self, report, noise, trace
        )
        return self._execute(
            wrapped, inputs, channel, report, shared_seed, observe, trace
        )

    @staticmethod
    def _emit_trace(observe: "Observer", trace: list) -> None:
        """Replay party 0's attempt log as ``chunk_attempt`` +
        ``owners_phase`` event pairs."""
        for entry in trace:
            observe.emit(
                "chunk_attempt",
                attempt=entry["attempt"],
                committed_rounds=entry["committed_rounds"],
                chunk_rounds=entry["chunk_rounds"],
                sim_rounds=entry["sim_rounds"],
                owner_rounds=entry["owner_rounds"],
                verify_rounds=entry["verify_rounds"],
                flag=entry["flag"],
                verdict=entry["verdict"],
                committed=entry["committed"],
            )
            emit_owners_phase(observe, entry)
