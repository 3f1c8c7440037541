"""Simulator interface and shared plumbing.

A :class:`Simulator` takes a protocol written for the noiseless beeping
channel and executes it over a noisy channel, returning the usual
:class:`~repro.core.result.ExecutionResult` whose ``metadata`` carries a
:class:`SimulationReport` (overhead, retries, committed progress).  Each
scheme derives its round budget once, in :meth:`Simulator.plan`; the
scalar ``simulate`` and the party-collapsed forms in
:mod:`repro.vectorized` both run on that plan.

:class:`ReplayingProtocol` is the outer protocol of the schemes whose
parties re-create their inner party to replay a received prefix.

:func:`infer_noise_model` recovers the per-round flip probabilities of the
standard channels so simulators can build matched ML decoders without the
caller repeating the channel's parameters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel, ThresholdNoiseChannel
from repro.channels.burst import BurstNoiseChannel
from repro.channels.reduction import SharedFlipReductionChannel
from repro.core.engine import run_protocol
from repro.core.formal import NoiseModel
from repro.core.party import Party
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError, SimulationBudgetExceeded
from repro.simulation.params import SimulationParameters

__all__ = [
    "ReplayingProtocol",
    "Simulator",
    "SimulationReport",
    "infer_noise_model",
]


def infer_noise_model(channel: Channel) -> NoiseModel:
    """The per-round flip probabilities of a standard channel.

    Raises :class:`ConfigurationError` for channel types whose noise law is
    not known here — pass an explicit ``noise_model`` to the simulator in
    that case.  A :class:`~repro.channels.base.ThresholdNoiseChannel`
    flips with probability ε exactly the true OR values its ``flips``
    pair declares.
    """
    if isinstance(channel, ThresholdNoiseChannel):
        up, down = channel.flips
        return NoiseModel(
            up=channel.epsilon * up, down=channel.epsilon * down
        )
    if isinstance(channel, SharedFlipReductionChannel):
        down, up = channel.emulated_epsilon
        return NoiseModel(up=up, down=down)
    if isinstance(channel, BurstNoiseChannel):
        # The schemes are designed for i.i.d. noise; the stationary flip
        # rate is the honest i.i.d. approximation of a bursty channel and
        # what experiment E10 hands them on purpose.
        return NoiseModel.two_sided(channel.stationary_flip_rate)
    # Imported lazily: the network package builds on the channel layer
    # and imports this module for its local-broadcast scheme.
    from repro.network.channel import NetworkBeepingChannel

    if isinstance(channel, NetworkBeepingChannel):
        # Per-node flips act both ways; per-edge erasures only suppress
        # (a reception can lose its sole supporting beep, never gain one).
        up = channel.max_epsilon
        down = min(0.999, channel.max_epsilon + channel.edge_epsilon)
        return NoiseModel(up=up, down=down)
    raise ConfigurationError(
        f"cannot infer a noise model for {type(channel).__name__}; "
        "pass noise_model explicitly"
    )


@dataclass
class SimulationReport:
    """Bookkeeping a simulator exposes through ``result.metadata``.

    Attributes:
        scheme: Simulator class name.
        inner_length: Rounds of the simulated noiseless protocol.
        simulated_rounds: Channel rounds actually used.
        overhead: ``simulated_rounds / inner_length`` (the quantity
            Theorems 1.1/1.2 bound).
        completed: Whether the full inner protocol was committed.
        chunk_attempts: Chunk attempts run (chunk-commit scheme).
        chunk_commits: Chunks committed (chunk-commit scheme).
        rewinds: Rewind steps taken (rewind scheme).
        extra: Scheme-specific details.
    """

    scheme: str
    inner_length: int
    simulated_rounds: int = 0
    completed: bool = True
    chunk_attempts: int = 0
    chunk_commits: int = 0
    rewinds: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        if self.inner_length == 0:
            return 0.0
        return self.simulated_rounds / self.inner_length

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view (for results artifacts and logs)."""
        return {
            "scheme": self.scheme,
            "inner_length": self.inner_length,
            "simulated_rounds": self.simulated_rounds,
            "overhead": self.overhead,
            "completed": self.completed,
            "chunk_attempts": self.chunk_attempts,
            "chunk_commits": self.chunk_commits,
            "rewinds": self.rewinds,
            "extra": dict(self.extra),
        }


class ReplayingProtocol(Protocol):
    """The outer protocol of a scheme whose parties replay their inner party.

    Outer party ``i`` is ``make_party(i, make_inner)``; each
    ``make_inner()`` call builds a fresh copy of the inner protocol's
    party ``i`` alone, on the same inputs and shared seed
    (:meth:`~repro.core.protocol.Protocol.create_party`), which is what a
    party needs to replay a received prefix after a rewind.  ``length`` is
    the outer round count when the scheme fixes it in advance.
    """

    def __init__(
        self,
        inner: Protocol,
        make_party: Callable[[int, Callable[[], Party]], Party],
        length: int | None = None,
    ) -> None:
        super().__init__(inner.n_parties)
        self.inner = inner
        self.make_party = make_party
        self._length = length

    def length(self) -> int | None:
        return self._length

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        self._check_inputs(inputs)
        inputs = list(inputs)
        return [
            self.make_party(
                index,
                partial(self.inner.create_party, index, inputs, shared_seed),
            )
            for index in range(self.n_parties)
        ]


class Simulator(ABC):
    """Base class of the noise-resilient simulation schemes.

    Args:
        params: Tunables; defaults are the paper-guided choices.
        noise_model: Flip probabilities the scheme should assume; ``None``
            infers them from the channel at ``simulate`` time.
        on_incomplete: What to do when the scheme's round budget runs out
            before the whole inner protocol is committed — ``"pad"``
            (default: return best-effort outputs over a zero-padded
            transcript, with ``report.completed = False``) or ``"raise"``
            (raise :class:`~repro.errors.SimulationBudgetExceeded`
            carrying the committed prefix length).
    """

    def __init__(
        self,
        params: SimulationParameters | None = None,
        noise_model: NoiseModel | None = None,
        on_incomplete: str = "pad",
    ) -> None:
        if on_incomplete not in ("pad", "raise"):
            raise ConfigurationError(
                f"on_incomplete must be 'pad' or 'raise', got "
                f"{on_incomplete!r}"
            )
        self.params = params if params is not None else SimulationParameters()
        self.noise_model = noise_model
        self.on_incomplete = on_incomplete

    @abstractmethod
    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, NoiseModel | None]:
        """Check ``channel`` and derive the scheme's round plan.

        Returns a fresh :class:`SimulationReport` whose ``extra`` holds
        every count the scheme runs on (repetitions, chunk length,
        attempt cap, depth, iterations), and the noise model the scheme's
        decoder assumes (``None`` for schemes without a decoder).  Raises
        :class:`ConfigurationError` for a channel the scheme rejects or an
        inner protocol without a fixed length.  The scalar ``simulate``
        and the party-collapsed forms both run on this plan.
        """

    def _report(self, inner_length: int, **extra: Any) -> SimulationReport:
        """A fresh report of this scheme carrying the plan's counts."""
        return SimulationReport(type(self).__name__, inner_length, extra=extra)

    def _execute(
        self,
        wrapped: Protocol,
        inputs: Sequence[Any],
        channel: Channel,
        report: SimulationReport,
        shared_seed: int | None,
        observe: "Observer | None",
        trace: list | None = None,
    ) -> ExecutionResult:
        """Run the outer protocol and finish ``report``: record its rounds,
        attach it to the result, emit the trace events and apply the
        ``on_incomplete`` policy.

        ``record_sent=False``: no scheme reads its own sent bits, so the
        columnar transcript stores three bytes per round regardless of n.
        """
        result = run_protocol(
            wrapped,
            inputs,
            channel,
            shared_seed=shared_seed,
            record_sent=False,
            observe=observe,
        )
        report.simulated_rounds = result.rounds
        result.metadata["report"] = report
        if self._tracing(observe):
            self._emit_trace(observe, trace)
            self._emit_simulation(observe, report)
        self._enforce_completion(report)
        return result

    def _enforce_completion(self, report: SimulationReport) -> None:
        """Apply the ``on_incomplete`` policy after an execution.

        The committed prefix is the rewind walk's final working length
        (``extra["working_length"]``), else the committed chunks times
        the chunk length.
        """
        if self.on_incomplete == "raise" and not report.completed:
            extra = report.extra
            committed = int(
                extra.get(
                    "working_length",
                    report.chunk_commits * extra.get("chunk_length", 0),
                )
            )
            raise SimulationBudgetExceeded(
                f"{report.scheme} exhausted its budget after "
                f"{report.simulated_rounds} rounds with only "
                f"{committed} of {report.inner_length} rounds committed",
                committed_rounds=committed,
            )

    def _resolve_noise_model(self, channel: Channel) -> NoiseModel:
        if self.noise_model is not None:
            return self.noise_model
        return infer_noise_model(channel)

    @staticmethod
    def _tracing(observe: "Observer | None") -> bool:
        """Whether to collect trace detail for this ``simulate`` call."""
        return observe is not None and observe.enabled

    @staticmethod
    def _emit_trace(observe: "Observer", trace: list | None) -> None:
        """Replay party 0's scheme-specific trace log as events (schemes
        without one emit only the ``simulation`` summary)."""

    def _emit_simulation(
        self, observe: "Observer", report: SimulationReport
    ) -> None:
        """The per-``simulate`` summary event, shared by every scheme."""
        observe.emit(
            "simulation",
            scheme=report.scheme,
            inner_length=report.inner_length,
            simulated_rounds=report.simulated_rounds,
            overhead=report.overhead,
            completed=report.completed,
            chunk_attempts=report.chunk_attempts,
            chunk_commits=report.chunk_commits,
            rewinds=report.rewinds,
        )

    @staticmethod
    def _require_fixed_length(protocol: Protocol) -> int:
        length = protocol.length()
        if length is None:
            raise ConfigurationError(
                "simulators need the inner protocol's length to be fixed "
                "and known (Protocol.length() returned None)"
            )
        return length

    @abstractmethod
    def simulate(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        channel: Channel,
        *,
        shared_seed: int | None = None,
        observe: "Observer | None" = None,
    ) -> ExecutionResult:
        """Run ``protocol`` on ``inputs`` over the noisy ``channel``.

        Returns an :class:`ExecutionResult` whose ``outputs`` aim to equal
        the noiseless execution's outputs, and whose
        ``metadata['report']`` is a :class:`SimulationReport`.

        ``observe`` (optional :class:`~repro.observe.Observer`) receives
        the scheme's trace events — ``simulation`` always, plus
        scheme-specific detail (``chunk_attempt`` / ``owners_phase`` /
        ``progress_check`` / ``rewind``) — and is forwarded to the engine
        for its ``protocol_run`` / ``noise_flip`` events.  Tracing
        consumes no RNG draws; traced runs are bitwise identical.
        """
