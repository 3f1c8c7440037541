"""The Appendix D.2 hierarchy: ``A_l`` with binary-search progress checks.

This is the paper's actual construction (following [EKS18]), of which
:class:`~repro.simulation.chunked.ChunkCommitSimulator` is the simplified
per-chunk-verified variant:

* ``A_0`` simulates the *next* chunk of the noiseless protocol — phase 1
  repetition + phase 2 finding owners (Algorithm 1) — and appends it to the
  working prefix **without verifying it**.
* ``A_l`` (l > 0) runs ``A_{l-1}`` twice, then a **progress check**: the
  parties binary-search for the longest prefix of the working chunks that
  is consistent with everyone's beeps and owner claims, and truncate to it.
  Each membership query of the binary search is an error-flag OR vote;
  votes at level ``l`` are repeated ``Θ(log n) + c·l`` times, so a check at
  level ``l`` fails with probability exponentially small in ``l`` — the
  geometric error/cost balance that makes the paper's progress measure
  double from level to level.

Consistency of a prefix is monotone (a bad chunk poisons every longer
prefix), so binary search applies; a party's flag for a prefix is the OR of
its per-chunk flags (:func:`~repro.simulation.chunk_common.chunk_error_flag`),
computable locally because each party remembers its own beeps per appended
chunk (beeps for chunk ``c`` depend only on chunks before ``c``, and
truncation only ever removes suffixes, so remembered beeps stay valid).

The recursion depth is ``L = ceil(log₂(num_chunks)) + extra`` so that the
``2^L`` leaf invocations comfortably cover ``num_chunks`` first-time
simulations plus retries of truncated chunks.  Leaves past the protocol's
end are idle (zero rounds; the decision is shared state, so lock-step is
preserved).
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
from repro.errors import ConfigurationError
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.chunk_common import (
    ChunkSchemeParty,
    SimulatedChunk,
    emit_owners_phase,
    plan_chunks,
)
from repro.simulation.primitives import repeated_bit

__all__ = ["HierarchicalSimulator"]


class _HierarchicalParty(ChunkSchemeParty):
    """One party of the A_L hierarchy."""

    def __init__(
        self, *args: Any, level_repetition_step: int, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.level_repetition_step = level_repetition_step
        # Working state (chunks[i].pi / .owners are shared-consistent).
        self.chunks: list[SimulatedChunk] = []
        self._leaf_calls = 0
        self._truncated_chunks = 0
        self._checks = 0

    # ------------------------------------------------------------------
    # Working-prefix helpers
    # ------------------------------------------------------------------

    def _working_rounds(self) -> int:
        return sum(len(chunk.pi) for chunk in self.chunks)

    def _working_bits(self) -> list[int]:
        return [bit for chunk in self.chunks for bit in chunk.pi]

    def _prefix_flag(self, num_chunks: int) -> int:
        """1 iff this party sees an inconsistency in the first
        ``num_chunks`` working chunks."""
        for chunk in self.chunks[:num_chunks]:
            if chunk.party_flag(self.party_index):
                return 1
        return 0

    # ------------------------------------------------------------------
    # The recursion
    # ------------------------------------------------------------------

    def _leaf(self):
        """``A_0``: simulate the next chunk (if any) and append it."""
        self._leaf_calls += 1
        done = self._working_rounds()
        if done >= self.inner_length:
            return  # idle leaf; shared decision, zero rounds
        chunk_rounds = min(self.chunk_length, self.inner_length - done)
        chunk = yield from self.simulate_chunk(
            self._working_bits(), chunk_rounds
        )
        self.chunks.append(chunk)
        if self.trace is not None:
            entry = self.chunk_trace(chunk, self._leaf_calls, done)
            entry["kind"] = "leaf"
            self.trace.append(entry)

    def _progress_check(self, level: int):
        """Binary-search the longest consistent working prefix; truncate.

        Votes are repeated ``verification_repetitions +
        level_repetition_step · level`` times — the level-scaled reliability
        of Appendix D.2.
        """
        self._checks += 1
        votes = self.verification_repetitions + (
            self.level_repetition_step * level
        )
        chunks_before = len(self.chunks)
        low, high = 0, len(self.chunks)
        while low < high:
            mid = (low + high + 1) // 2
            flag = self._prefix_flag(mid)
            verdict = yield from repeated_bit(flag, votes)
            if verdict == 0:
                low = mid
            else:
                high = mid - 1
        if low < len(self.chunks):
            self._truncated_chunks += len(self.chunks) - low
            del self.chunks[low:]
        if self.trace is not None:
            self.trace.append(
                {
                    "kind": "check",
                    "level": level,
                    "votes": votes,
                    "chunks_before": chunks_before,
                    "chunks_after": len(self.chunks),
                    "truncated": chunks_before - len(self.chunks),
                }
            )

    def _run_level(self, level: int):
        if level == 0:
            yield from self._leaf()
            return
        yield from self._run_level(level - 1)
        yield from self._run_level(level - 1)
        yield from self._progress_check(level)

    def run(self):
        yield from self._run_level(self.report.extra["depth"])

        if self.party_index == 0:
            self.report.chunk_attempts = self._leaf_calls
            self.report.chunk_commits = len(self.chunks)
            self.report.rewinds = self._truncated_chunks
            self.report.completed = (
                self._working_rounds() == self.inner_length
            )
            self.report.extra["progress_checks"] = self._checks
        return self.output_over(self._working_bits())


class HierarchicalSimulator(Simulator):
    """The faithful Appendix-D.2 scheme: ``A_L`` with progress checks.

    Compared with :class:`~repro.simulation.chunked.ChunkCommitSimulator`:

    * chunks are appended *optimistically* (no per-chunk verification) —
      errors are caught later by a progress check at some level;
    * progress checks re-examine the *entire* working prefix by binary
      search, so even an error that slipped past lower levels is eventually
      rolled back — the property that extends Theorem 1.2 beyond
      poly(n)-length protocols;
    * check reliability scales with the level (``+ level_repetition_step``
      votes per level), keeping the total check cost geometric.

    Extra knobs (on top of :class:`SimulationParameters`): the recursion
    depth is ``ceil(log₂ num_chunks) + extra_levels``.
    """

    def __init__(
        self,
        params=None,
        noise_model=None,
        on_incomplete: str = "pad",
        *,
        extra_levels: int = 1,
        level_repetition_step: int = 2,
    ) -> None:
        super().__init__(params, noise_model, on_incomplete)
        if extra_levels < 0:
            raise ConfigurationError("extra_levels must be >= 0")
        if level_repetition_step < 0:
            raise ConfigurationError("level_repetition_step must be >= 0")
        self.extra_levels = extra_levels
        self.level_repetition_step = level_repetition_step

    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, NoiseModel]:
        report, noise, num_chunks = plan_chunks(
            self,
            protocol,
            channel,
            "HierarchicalSimulator relies on a shared transcript and "
            "requires a correlated channel",
        )
        depth = math.ceil(math.log2(num_chunks)) + self.extra_levels
        report.extra.update(depth=depth, leaf_budget=1 << depth)
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
        wrapped = _HierarchicalParty.outer_protocol(
            protocol,
            self,
            report,
            noise,
            trace,
            level_repetition_step=self.level_repetition_step,
        )
        return self._execute(
            wrapped, inputs, channel, report, shared_seed, observe, trace
        )

    @staticmethod
    def _emit_trace(observe: "Observer", trace: list) -> None:
        """Replay party 0's log: non-idle leaves as ``chunk_attempt`` +
        ``owners_phase`` (no verdict — verification arrives later via a
        progress check), checks as ``progress_check``."""
        for entry in trace:
            if entry["kind"] == "leaf":
                observe.emit(
                    "chunk_attempt",
                    attempt=entry["attempt"],
                    committed_rounds=entry["committed_rounds"],
                    chunk_rounds=entry["chunk_rounds"],
                    sim_rounds=entry["sim_rounds"],
                    owner_rounds=entry["owner_rounds"],
                )
                emit_owners_phase(observe, entry)
            else:
                observe.emit(
                    "progress_check",
                    level=entry["level"],
                    votes=entry["votes"],
                    chunks_before=entry["chunks_before"],
                    chunks_after=entry["chunks_after"],
                    truncated=entry["truncated"],
                )
