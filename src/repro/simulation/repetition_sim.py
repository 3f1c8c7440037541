"""The repetition simulator (footnote 1 of the paper).

Every round of the noiseless protocol is repeated ``r`` times over the noisy
channel and each party feeds its inner protocol the majority of what it
heard.  With ``r = Θ(log n)`` each virtual round errs with probability
polynomially small in ``n``, so a union bound covers protocols of length
polynomial in ``n`` — which is why the paper calls this case "trivial" and
reserves the chunk/owners machinery for arbitrary lengths.

This scheme needs no shared transcript: each party majority-votes its *own*
receptions, so it runs unchanged over correlated and independent noise — it
is the workhorse of experiment E7's noise-model comparison.

Each virtual round is a single engine yield per party: the repeated beep
is one :class:`~repro.core.party.Burst` (via
:func:`~repro.simulation.primitives.repeated_bit`), so over independent
noise this exercises the engine's per-party word-delivery loop with
tokens, end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.channels.base import Channel
from repro.core.party import Burst, Party
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.simulation.base import SimulationReport, Simulator
from repro.simulation.primitives import repeated_bit

__all__ = ["RepetitionSimulator", "RepetitionWrappedProtocol"]


class _RepetitionParty(Party):
    """Runs an inner party, repeating each of its rounds ``repetitions``
    times and majority-decoding the channel's answers.

    Inner batch tokens pass straight through: an inner
    ``Burst(bit, count)`` becomes one ``Burst(bit, count·k)`` outer
    token, and the wake-up payload is majority-decoded per group of
    ``k`` receptions back into the ``count`` virtual heard bits the
    inner party expects — so token-sparse inner protocols (flooders,
    decided MIS nodes) stay sparse through the wrapper."""

    def __init__(self, inner: Party, repetitions: int) -> None:
        self.inner = inner
        self.repetitions = repetitions

    def run(self):
        k = self.repetitions
        program = self.inner.run()
        try:
            item = next(program)
        except StopIteration as stop:
            return stop.value
        while True:
            if isinstance(item, Burst):
                count = item.count
                heard = yield Burst(item.bit, count * k)
                decoded = bytes(
                    1
                    if 2 * sum(heard[group * k : (group + 1) * k]) > k
                    else 0
                    for group in range(count)
                )
            else:
                decoded = yield from repeated_bit(item, k)
            try:
                item = program.send(decoded)
            except StopIteration as stop:
                return stop.value


class RepetitionWrappedProtocol(Protocol):
    """``inner`` with every round repeated ``repetitions`` times.

    Exposed as a protocol (not only through the simulator) so that the
    lower-bound experiments can treat "repetition-hardened InputSet protocol
    truncated to a round budget" as just another protocol.
    """

    def __init__(self, inner: Protocol, repetitions: int) -> None:
        super().__init__(inner.n_parties)
        self.inner = inner
        self.repetitions = repetitions

    def length(self) -> int | None:
        inner_length = self.inner.length()
        if inner_length is None:
            return None
        return inner_length * self.repetitions

    def create_parties(
        self, inputs: Sequence[Any], shared_seed: int | None = None
    ) -> list[Party]:
        inner_parties = self.inner.create_parties(
            inputs, shared_seed=shared_seed
        )
        return [
            _RepetitionParty(inner, self.repetitions)
            for inner in inner_parties
        ]


class RepetitionSimulator(Simulator):
    """Simulate by per-round repetition + majority (footnote 1).

    The repetition count is ``params.repetitions`` when set, else derived as
    Θ(log n) from the channel's ε via
    :func:`~repro.simulation.params.repetitions_for`.
    """

    def plan(
        self, protocol: Protocol, channel: Channel
    ) -> tuple[SimulationReport, None]:
        inner_length = self._require_fixed_length(protocol)
        noise = self._resolve_noise_model(channel)
        # Repetition must beat the worse of the two flip directions.
        epsilon = max(noise.up, noise.down)
        repetitions = self.params.resolve_repetitions(
            protocol.n_parties, epsilon
        )
        return self._report(inner_length, repetitions=repetitions), None

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
        wrapped = RepetitionWrappedProtocol(
            protocol, report.extra["repetitions"]
        )
        return self._execute(
            wrapped, inputs, channel, report, shared_seed, observe
        )
