"""Old-vs-new engine equivalence.

The columnar fast-path engine (:func:`repro.core.run_protocol`) must be
*bitwise equivalent* to the seed repository's loop, preserved verbatim in
:mod:`repro.core._legacy_engine`: same outputs, same transcript contents,
same beep counts, same channel-stats deltas, for every channel family and
both ``record_sent`` modes.  These tests drive both engines over identical
(protocol, channel, seed) grids and compare everything observable.
"""

import pytest

from repro.channels import (
    BudgetedAdversaryChannel,
    BurstNoiseChannel,
    CorrectingAdversaryChannel,
    CorrelatedNoiseChannel,
    ChannelStats,
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    ScriptedChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.core import (
    Burst,
    FunctionalProtocol,
    Party,
    Protocol,
    Silence,
    run_protocol,
)
from repro.core._legacy_engine import legacy_run_protocol
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.simulation.primitives import batch_tokens
from repro.tasks import ParityTask


def _noise_sensitive_protocol(n, length=40):
    """A protocol whose behaviour depends on every received bit, so any
    divergence between engines compounds instead of washing out."""

    def broadcast(index, bit, prefix):
        return (bit + sum(prefix) + index) % 2

    def output(index, bit, received):
        return (tuple(received), sum(received), bit)

    return FunctionalProtocol(
        n_parties=n, length=length, broadcast=broadcast, output=output
    )


def _assert_equivalent(result_fast, result_legacy):
    assert result_fast.outputs == result_legacy.outputs
    assert result_fast.rounds == result_legacy.rounds
    assert result_fast.beeps_per_party == result_legacy.beeps_per_party
    assert result_fast.channel_stats == result_legacy.channel_stats

    fast_t, legacy_t = result_fast.transcript, result_legacy.transcript
    assert len(fast_t) == len(legacy_t)
    assert list(fast_t) == list(legacy_t)
    assert fast_t.or_values() == legacy_t.or_values()
    assert fast_t.noisy_count == legacy_t.noisy_count
    assert fast_t.noise_positions() == legacy_t.noise_positions()
    for party in range(fast_t.n_parties):
        assert fast_t.view(party) == legacy_t.view(party)


CHANNEL_FACTORIES = {
    "noiseless": lambda seed: NoiselessChannel(),
    "correlated": lambda seed: CorrelatedNoiseChannel(0.15, rng=seed),
    "one-sided": lambda seed: OneSidedNoiseChannel(1 / 3, rng=seed),
    "suppression": lambda seed: SuppressionNoiseChannel(0.2, rng=seed),
    "independent": lambda seed: IndependentNoiseChannel(0.15, rng=seed),
    "burst": lambda seed: BurstNoiseChannel(0.01, 0.5, 0.05, 0.2, rng=seed),
    "reduction": lambda seed: SharedFlipReductionChannel(rng=seed),
    "correcting": lambda seed: CorrectingAdversaryChannel(0.25, rng=seed),
    "budgeted": lambda seed: BudgetedAdversaryChannel(5),
    "scripted": lambda seed: ScriptedChannel([3, 7, 11]),
}


class TestLegacyEquivalence:
    @pytest.mark.parametrize("channel_name", sorted(CHANNEL_FACTORIES))
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("record_sent", [True, False])
    def test_engines_bitwise_equal(self, channel_name, n, record_sent):
        make_channel = CHANNEL_FACTORIES[channel_name]
        protocol = _noise_sensitive_protocol(n)
        inputs = [i % 2 for i in range(n)]
        seed = 1000 * n + 7
        fast = run_protocol(
            protocol, inputs, make_channel(seed), record_sent=record_sent
        )
        legacy = legacy_run_protocol(
            protocol, inputs, make_channel(seed), record_sent=record_sent
        )
        _assert_equivalent(fast, legacy)
        if record_sent:
            for party in range(n):
                assert fast.transcript.sent_bits(
                    party
                ) == legacy.transcript.sent_bits(party)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.4])
    def test_correlated_epsilon_grid(self, epsilon):
        for n in (2, 8):
            protocol = _noise_sensitive_protocol(n, length=60)
            inputs = [1] * n
            fast = run_protocol(
                protocol, inputs, CorrelatedNoiseChannel(epsilon, rng=n)
            )
            legacy = legacy_run_protocol(
                protocol, inputs, CorrelatedNoiseChannel(epsilon, rng=n)
            )
            _assert_equivalent(fast, legacy)

    def test_stats_match_transcript_observation(self):
        """The engine's stats delta agrees with what the transcript's
        columnar mask shows (the noisy_count consumer in stats.py)."""
        n = 6
        protocol = _noise_sensitive_protocol(n, length=80)
        result = run_protocol(
            protocol,
            [i % 2 for i in range(n)],
            CorrelatedNoiseChannel(0.2, rng=42),
        )
        observed = ChannelStats.observed_from_transcript(result.transcript)
        assert observed == result.channel_stats
        assert observed.flips == result.transcript.noisy_count

    def test_zero_round_protocol(self):
        protocol = FunctionalProtocol(
            n_parties=3,
            length=0,
            broadcast=lambda i, x, p: 0,
            output=lambda i, x, r: x,
        )
        fast = run_protocol(protocol, [4, 5, 6], NoiselessChannel())
        legacy = legacy_run_protocol(protocol, [4, 5, 6], NoiselessChannel())
        _assert_equivalent(fast, legacy)
        assert fast.outputs == [4, 5, 6]


class _TokenPatternProtocol(Protocol):
    """Parties replay fixed bit patterns, either as batch tokens (one
    Burst/Silence per constant run) or desugared one bit per round."""

    class _P(Party):
        def __init__(self, pattern, tokens):
            self.pattern = pattern
            self.tokens = tokens

        def run(self):
            heard = []
            pattern = self.pattern
            if self.tokens:
                length = len(pattern)
                start = 0
                while start < length:
                    bit = pattern[start]
                    stop = start + 1
                    while stop < length and pattern[stop] == bit:
                        stop += 1
                    run = stop - start
                    heard.extend(
                        (yield Burst(bit, run) if bit else Silence(run))
                    )
                    start = stop
            else:
                for bit in pattern:
                    heard.append((yield bit))
            return tuple(heard)

    def __init__(self, patterns, tokens):
        super().__init__(len(patterns))
        self.patterns = patterns
        self.tokens = tokens

    def create_parties(self, inputs, shared_seed=None):
        return [self._P(pattern, self.tokens) for pattern in self.patterns]


def _staggered_patterns(n, length=48):
    """Per-party patterns with long constant runs at mutually offset
    boundaries, so awake/asleep mixes, simultaneous wake-ups and all-asleep
    stretches all occur."""
    patterns = []
    for party in range(n):
        run = 2 + (party % 5)
        bits = []
        value = party % 2
        while len(bits) < length:
            bits.extend([value] * run)
            value ^= 1
            run = 2 + ((run + party) % 7)
        patterns.append(tuple(bits[:length]))
    return patterns


class TestTokenLegacyEquivalence:
    """The sparse token engine against the seed repository's loop.

    The token protocol runs on the new engine (the legacy loop predates
    tokens); its desugared twin runs on the legacy loop.  Everything
    observable must be bitwise identical across every channel family.
    """

    @pytest.mark.parametrize("channel_name", sorted(CHANNEL_FACTORIES))
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("record_sent", [True, False])
    def test_token_engine_matches_seed_loop(
        self, channel_name, n, record_sent
    ):
        make_channel = CHANNEL_FACTORIES[channel_name]
        patterns = _staggered_patterns(n)
        inputs = [None] * n
        seed = 2000 * n + 13
        tokened = run_protocol(
            _TokenPatternProtocol(patterns, tokens=True),
            inputs,
            make_channel(seed),
            record_sent=record_sent,
        )
        legacy = legacy_run_protocol(
            _TokenPatternProtocol(patterns, tokens=False),
            inputs,
            make_channel(seed),
            record_sent=record_sent,
        )
        _assert_equivalent(tokened, legacy)
        if record_sent:
            for party in range(n):
                assert tokened.transcript.sent_bits(
                    party
                ) == legacy.transcript.sent_bits(party)


SIMULATOR_FACTORIES = {
    "chunked": ChunkCommitSimulator,
    "hierarchical": HierarchicalSimulator,
    "repetition": RepetitionSimulator,
    "rewind": RewindSimulator,
}


class TestSimulatorTokenEquivalence:
    """All four simulation schemes, token mode vs desugared per-round mode.

    The primitives' batch tokens are pure scheduling sugar; with identical
    seeds, a simulation must produce bitwise-identical transcripts,
    outputs, beep counts and channel stats either way.
    """

    @pytest.mark.parametrize("scheme", sorted(SIMULATOR_FACTORIES))
    def test_bitwise_identical_simulation(self, scheme):
        simulator = SIMULATOR_FACTORIES[scheme]()
        task = ParityTask(4)
        inputs = [1, 0, 1, 1]

        def simulate():
            return simulator.simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(0.05, rng=97),
                shared_seed=123,
            )

        tokened = simulate()
        with batch_tokens(False):
            desugared = simulate()
        _assert_equivalent(tokened, desugared)

    def test_rewind_over_suppression_noise(self):
        # Rewind's sound regime (1→0 noise only).
        task = ParityTask(4)
        inputs = [0, 1, 1, 0]

        def simulate():
            return RewindSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                SuppressionNoiseChannel(0.1, rng=31),
                shared_seed=7,
            )

        tokened = simulate()
        with batch_tokens(False):
            desugared = simulate()
        _assert_equivalent(tokened, desugared)

    def test_repetition_over_independent_noise(self):
        # The engine's word-delivery loop with tokens, end to end.
        task = ParityTask(3)
        inputs = [1, 1, 0]

        def simulate():
            return RepetitionSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                IndependentNoiseChannel(0.1, rng=59),
                shared_seed=11,
            )

        tokened = simulate()
        with batch_tokens(False):
            desugared = simulate()
        _assert_equivalent(tokened, desugared)
