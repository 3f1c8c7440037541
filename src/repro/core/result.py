"""Execution results.

:class:`ExecutionResult` bundles everything the engine produces for one run:
the parties' outputs, the transcript, and a snapshot of the channel
statistics.  It is the single return type of :func:`repro.core.engine.run_protocol`
and of the simulators' ``simulate`` entry points.

The transcript arrives in columnar form; ``to_dict(include_transcript=True)``
serialises it through the O(T) bulk accessors (``or_values``, ``view``) —
one column conversion per row, no per-round record objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.channels.stats import ChannelStats
from repro.core.transcript import Transcript
from repro.errors import ConfigurationError

__all__ = ["ExecutionResult"]


@dataclass
class ExecutionResult:
    """The outcome of running a protocol over a channel.

    Attributes:
        outputs: One output per party, in party order.
        transcript: Full round-by-round record; ``None`` for a
            party-collapsed execution (:mod:`repro.vectorized.schemes`),
            which records none.
        rounds: Number of channel rounds consumed (== len(transcript)).
        channel_stats: Snapshot of the channel counters for this execution
            (the delta over the run, not the channel's lifetime totals).
        beeps_per_party: Energy spent by each party (number of 1-bits it
            beeped) — the beeping literature's energy complexity measure.
        metadata: Scheme-specific extras (e.g. the chunk-commit simulator
            reports retry counts and committed-chunk progress here).
    """

    outputs: list[Any]
    transcript: Transcript | None
    rounds: int
    channel_stats: ChannelStats
    beeps_per_party: tuple[int, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def total_energy(self) -> int:
        """Total beeps across all parties."""
        return sum(self.beeps_per_party)

    def outputs_agree(self) -> bool:
        """True when every party produced the same output."""
        if not self.outputs:
            return True
        first = self.outputs[0]
        return all(output == first for output in self.outputs[1:])

    def common_output(self) -> Any:
        """The unanimous output; raises ``ValueError`` on disagreement.

        Tasks in the beeping model typically require all parties to output
        the same value; this accessor makes that expectation explicit.
        """
        if not self.outputs_agree():
            raise ValueError(
                "parties disagree on the output; inspect .outputs"
            )
        return self.outputs[0]

    def to_dict(self, include_transcript: bool = False) -> dict[str, Any]:
        """A JSON-serialisable view of the execution.

        Outputs are stringified (they may be arbitrary Python values —
        frozensets, tuples); the transcript, included on request, is
        encoded as parallel bit rows.  Simulator reports in ``metadata``
        are serialised through their own ``to_dict``.  Asking for the
        transcript of a result without one raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if include_transcript and self.transcript is None:
            raise ConfigurationError(
                "this execution recorded no transcript (a party-collapsed "
                "run); call to_dict() without include_transcript"
            )
        payload: dict[str, Any] = {
            "outputs": [repr(output) for output in self.outputs],
            "outputs_agree": self.outputs_agree(),
            "rounds": self.rounds,
            "beeps_per_party": list(self.beeps_per_party),
            "total_energy": self.total_energy,
            "channel_stats": {
                "rounds": self.channel_stats.rounds,
                "beeps_sent": self.channel_stats.beeps_sent,
                "or_ones": self.channel_stats.or_ones,
                "flips_up": self.channel_stats.flips_up,
                "flips_down": self.channel_stats.flips_down,
            },
        }
        report = self.metadata.get("report")
        if report is not None and hasattr(report, "to_dict"):
            payload["report"] = report.to_dict()
        if include_transcript:
            payload["transcript"] = {
                "or_values": list(self.transcript.or_values()),
                "received": [
                    list(self.transcript.view(party))
                    for party in range(self.transcript.n_parties)
                ],
            }
        return payload
