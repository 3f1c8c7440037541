"""Unit tests for the lock-step engine and core protocol runtime."""

import pytest

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
    ScriptedChannel,
)
from repro.core import (
    Burst,
    FunctionalProtocol,
    Party,
    Protocol,
    Silence,
    run_protocol,
)
from repro.errors import (
    ChannelError,
    ConfigurationError,
    ProtocolDesyncError,
    ProtocolError,
)


class _EchoParty(Party):
    """Beeps its input once and outputs what it heard."""

    def __init__(self, bit):
        self.bit = bit

    def run(self):
        heard = yield self.bit
        return heard


class _EchoProtocol(Protocol):
    def length(self):
        return 1

    def create_parties(self, inputs, shared_seed=None):
        self._check_inputs(inputs)
        return [_EchoParty(bit) for bit in inputs]


class _SilentParty(Party):
    """Zero communication; outputs a constant."""

    def run(self):
        return "done"
        yield  # pragma: no cover - makes this a generator


class _SilentProtocol(Protocol):
    def create_parties(self, inputs, shared_seed=None):
        return [_SilentParty() for _ in inputs]


class _VariableLengthProtocol(Protocol):
    """Party i talks for i+1 rounds — deliberately desynchronized."""

    class _P(Party):
        def __init__(self, rounds):
            self.rounds = rounds

        def run(self):
            for _ in range(self.rounds):
                yield 0
            return None

    def create_parties(self, inputs, shared_seed=None):
        return [self._P(i + 1) for i in range(len(inputs))]


class TestRunProtocolBasics:
    def test_or_is_broadcast(self):
        result = run_protocol(
            _EchoProtocol(3), [0, 1, 0], NoiselessChannel()
        )
        assert result.outputs == [1, 1, 1]

    def test_all_silent(self):
        result = run_protocol(
            _EchoProtocol(2), [0, 0], NoiselessChannel()
        )
        assert result.outputs == [0, 0]

    def test_round_count(self):
        result = run_protocol(
            _EchoProtocol(2), [1, 0], NoiselessChannel()
        )
        assert result.rounds == 1
        assert len(result.transcript) == 1

    def test_zero_round_protocol(self):
        result = run_protocol(
            _SilentProtocol(2), [None, None], NoiselessChannel()
        )
        assert result.outputs == ["done", "done"]
        assert result.rounds == 0

    def test_transcript_records_sent_bits(self):
        result = run_protocol(
            _EchoProtocol(3), [0, 1, 1], NoiselessChannel()
        )
        assert result.transcript[0].sent == (0, 1, 1)
        assert result.transcript[0].or_value == 1

    def test_record_sent_off(self):
        result = run_protocol(
            _EchoProtocol(2),
            [1, 0],
            NoiselessChannel(),
            record_sent=False,
        )
        assert result.transcript[0].sent is None

    def test_channel_stats_delta(self):
        channel = NoiselessChannel()
        channel.transmit((1,))  # pre-existing traffic
        result = run_protocol(_EchoProtocol(2), [1, 1], channel)
        assert result.channel_stats.rounds == 1
        assert result.channel_stats.beeps_sent == 2


class TestRunProtocolErrors:
    def test_desync_raises(self):
        with pytest.raises(ProtocolDesyncError):
            run_protocol(
                _VariableLengthProtocol(2), [None, None], NoiselessChannel()
            )

    def test_max_rounds_guard(self):
        class _Forever(Protocol):
            class _P(Party):
                def run(self):
                    while True:
                        yield 0

            def create_parties(self, inputs, shared_seed=None):
                return [self._P() for _ in inputs]

        with pytest.raises(ProtocolError):
            run_protocol(
                _Forever(1), [None], NoiselessChannel(), max_rounds=10
            )

    def test_invalid_beep_raises(self):
        class _Bad(Protocol):
            class _P(Party):
                def run(self):
                    yield 7
                    return None

            def create_parties(self, inputs, shared_seed=None):
                return [self._P() for _ in inputs]

        with pytest.raises(ChannelError):
            run_protocol(_Bad(1), [None], NoiselessChannel())

    def test_wrong_input_count(self):
        with pytest.raises(ProtocolError):
            run_protocol(_EchoProtocol(3), [0, 1], NoiselessChannel())


class _FixedPatternProtocol(Protocol):
    """Each party beeps a scripted bit pattern and returns its hearings."""

    class _P(Party):
        def __init__(self, pattern):
            self.pattern = pattern

        def run(self):
            heard = []
            for bit in self.pattern:
                heard.append((yield bit))
            return tuple(heard)

    def __init__(self, patterns):
        super().__init__(len(patterns))
        self.patterns = patterns

    def length(self):
        return len(self.patterns[0])

    def create_parties(self, inputs, shared_seed=None):
        return [self._P(pattern) for pattern in self.patterns]


class TestEngineEdgeCases:
    """Transcript shape, round-limit boundaries, and beep accounting."""

    def test_record_sent_off_keeps_or_values_and_length(self):
        patterns = [(1, 0, 1), (0, 0, 1)]
        result = run_protocol(
            _FixedPatternProtocol(patterns),
            [None, None],
            NoiselessChannel(),
            record_sent=False,
        )
        assert result.rounds == 3
        assert len(result.transcript) == 3
        assert all(record.sent is None for record in result.transcript)
        assert list(result.transcript.or_values()) == [1, 0, 1]
        assert [record.received for record in result.transcript] == [
            (1, 1),
            (0, 0),
            (1, 1),
        ]

    def test_record_sent_off_still_counts_beeps(self):
        patterns = [(1, 0, 1), (0, 0, 1)]
        result = run_protocol(
            _FixedPatternProtocol(patterns),
            [None, None],
            NoiselessChannel(),
            record_sent=False,
        )
        assert result.beeps_per_party == (2, 1)
        assert result.total_energy == 3
        assert result.channel_stats.beeps_sent == 3

    def test_zero_round_parties_leave_channel_untouched(self):
        channel = NoiselessChannel()
        result = run_protocol(_SilentProtocol(3), [0, 0, 0], channel)
        assert result.rounds == 0
        assert len(result.transcript) == 0
        assert result.outputs == ["done"] * 3
        assert result.beeps_per_party == (0, 0, 0)
        assert channel.stats.rounds == 0
        assert result.channel_stats.rounds == 0

    def test_max_rounds_exact_boundary(self):
        patterns = [(0, 1, 0)]
        # A 3-round protocol completes with max_rounds=3 ...
        result = run_protocol(
            _FixedPatternProtocol(patterns),
            [None],
            NoiselessChannel(),
            max_rounds=3,
        )
        assert result.rounds == 3
        # ... and trips the guard with max_rounds=2.
        with pytest.raises(ProtocolError):
            run_protocol(
                _FixedPatternProtocol(patterns),
                [None],
                NoiselessChannel(),
                max_rounds=2,
            )

    def test_desync_error_names_laggards(self):
        with pytest.raises(ProtocolDesyncError) as excinfo:
            run_protocol(
                _VariableLengthProtocol(3),
                [None, None, None],
                NoiselessChannel(),
            )
        # Party 0 stops after round 1; parties 1 and 2 are the laggards.
        assert "[1, 2]" in str(excinfo.value)

    def test_desync_wins_over_max_rounds(self):
        # The desync is detected at the round it happens even when the
        # round budget would have expired at the same point.
        with pytest.raises(ProtocolDesyncError):
            run_protocol(
                _VariableLengthProtocol(2),
                [None, None],
                NoiselessChannel(),
                max_rounds=1,
            )

    def test_beeps_per_party_against_scripted_channel(self):
        # Flips at rounds 0 and 2 alter receptions, never beep counts.
        patterns = [(1, 0, 0, 1), (0, 0, 1, 1), (0, 0, 0, 0)]
        channel = ScriptedChannel(flip_rounds={0, 2})
        result = run_protocol(
            _FixedPatternProtocol(patterns), [None] * 3, channel
        )
        assert result.beeps_per_party == (2, 2, 0)
        assert result.channel_stats.beeps_sent == 4
        assert result.channel_stats.or_ones == 3
        # Round 0: OR=1 flipped down; round 2: OR=1 flipped down too.
        assert result.channel_stats.flips_down == 2
        assert result.channel_stats.flips_up == 0
        assert list(result.transcript.or_values()) == [1, 0, 1, 1]
        assert result.outputs[0] == (0, 0, 0, 1)

    def test_scripted_up_flip_received_by_all(self):
        patterns = [(0, 0), (0, 0)]
        channel = ScriptedChannel(flip_rounds={1})
        result = run_protocol(
            _FixedPatternProtocol(patterns), [None, None], channel
        )
        assert result.channel_stats.flips_up == 1
        assert result.outputs == [(0, 1), (0, 1)]
        assert result.total_energy == 0


class _TokenScriptProtocol(Protocol):
    """Each party runs a script of ``('bit', b)`` / ``('burst', b, k)`` /
    ``('silence', k)`` steps, collecting everything it heard."""

    class _P(Party):
        def __init__(self, script):
            self.script = script

        def run(self):
            heard = []
            for step in self.script:
                kind = step[0]
                if kind == "bit":
                    heard.append((yield step[1]))
                elif kind == "burst":
                    heard.extend((yield Burst(step[1], step[2])))
                else:
                    heard.extend((yield Silence(step[1])))
            return tuple(heard)

    def __init__(self, scripts):
        super().__init__(len(scripts))
        self.scripts = scripts

    def create_parties(self, inputs, shared_seed=None):
        return [self._P(script) for script in self.scripts]


def _desugar(scripts):
    """The per-round twin of a token script set."""
    patterns = []
    for script in scripts:
        bits = []
        for step in script:
            if step[0] == "bit":
                bits.append(step[1])
            elif step[0] == "burst":
                bits.extend([step[1]] * step[2])
            else:
                bits.extend([0] * step[1])
        patterns.append(tuple(bits))
    return _FixedPatternProtocol(patterns)


def _assert_same_execution(tokened, desugared):
    assert tokened.outputs == desugared.outputs
    assert tokened.rounds == desugared.rounds
    assert tokened.beeps_per_party == desugared.beeps_per_party
    assert tokened.channel_stats == desugared.channel_stats
    token_t, plain_t = tokened.transcript, desugared.transcript
    assert len(token_t) == len(plain_t)
    assert list(token_t) == list(plain_t)
    assert token_t.or_values() == plain_t.or_values()
    assert token_t.noisy_count == plain_t.noisy_count
    assert token_t.noise_positions() == plain_t.noise_positions()
    for party in range(token_t.n_parties):
        assert token_t.view(party) == plain_t.view(party)


class TestBatchTokens:
    """Engine-level semantics of Burst/Silence yield tokens."""

    STAGGERED = [
        [("burst", 1, 3), ("bit", 0), ("silence", 2)],
        [("silence", 4), ("bit", 1), ("bit", 0)],
        [("bit", 0), ("burst", 0, 2), ("bit", 1), ("burst", 1, 2)],
    ]

    @pytest.mark.parametrize("record_sent", [True, False])
    def test_matches_desugared_on_noisy_channel(self, record_sent):
        scripts = self.STAGGERED
        tokened = run_protocol(
            _TokenScriptProtocol(scripts),
            [None] * 3,
            CorrelatedNoiseChannel(0.3, rng=11),
            record_sent=record_sent,
        )
        desugared = run_protocol(
            _desugar(scripts),
            [None] * 3,
            CorrelatedNoiseChannel(0.3, rng=11),
            record_sent=record_sent,
        )
        _assert_same_execution(tokened, desugared)
        if record_sent:
            for party in range(3):
                assert tokened.transcript.sent_bits(
                    party
                ) == desugared.transcript.sent_bits(party)

    def test_matches_desugared_on_word_path(self):
        # Independent noise exercises the sparse word loop and per-party
        # received slices.
        scripts = self.STAGGERED
        tokened = run_protocol(
            _TokenScriptProtocol(scripts),
            [None] * 3,
            IndependentNoiseChannel(0.3, rng=23),
        )
        desugared = run_protocol(
            _desugar(scripts),
            [None] * 3,
            IndependentNoiseChannel(0.3, rng=23),
        )
        _assert_same_execution(tokened, desugared)

    def test_all_asleep_run_batching(self):
        # Every party sleeps from round 0: the engine transmits the whole
        # stretch in blocks; transcript and stats must be exact.
        scripts = [
            [("burst", 1, 5), ("silence", 3)],
            [("silence", 8)],
        ]
        result = run_protocol(
            _TokenScriptProtocol(scripts), [None] * 2, NoiselessChannel()
        )
        assert result.rounds == 8
        assert result.outputs[1] == (1,) * 5 + (0,) * 3
        assert result.beeps_per_party == (5, 0)
        assert result.channel_stats.beeps_sent == 5
        assert result.channel_stats.or_ones == 5
        assert result.transcript.sent_bits(0) == (1,) * 5 + (0,) * 3
        assert result.transcript.sent_bits(1) == (0,) * 8

    def test_wake_payload_is_one_bytes_slice(self):
        payloads = []

        class _Probe(Party):
            def run(self):
                payloads.append((yield Silence(4)))
                return None

        class _ProbeProtocol(Protocol):
            def create_parties(self, inputs, shared_seed=None):
                return [_Probe()]

        run_protocol(_ProbeProtocol(1), [None], NoiselessChannel())
        assert payloads == [b"\x00\x00\x00\x00"]

    def test_sleeping_burst_feeds_the_or(self):
        # Party 0 sleeps while beeping; awake party 1 must hear the OR.
        scripts = [
            [("burst", 1, 3)],
            [("bit", 0), ("bit", 0), ("bit", 0)],
        ]
        result = run_protocol(
            _TokenScriptProtocol(scripts), [None] * 2, NoiselessChannel()
        )
        assert result.outputs[1] == (1, 1, 1)

    def test_tokens_at_priming(self):
        # The very first yield of every party is a token (no dense rounds).
        result = run_protocol(
            _TokenScriptProtocol([[("burst", 1, 2)], [("silence", 2)]]),
            [None] * 2,
            NoiselessChannel(),
        )
        assert result.rounds == 2
        assert result.outputs == [(1, 1), (1, 1)]

    def test_max_rounds_inside_a_batch(self):
        with pytest.raises(ProtocolError):
            run_protocol(
                _TokenScriptProtocol([[("silence", 10)]]),
                [None],
                NoiselessChannel(),
                max_rounds=4,
            )
        # Exactly at the cap is fine.
        result = run_protocol(
            _TokenScriptProtocol([[("silence", 10)]]),
            [None],
            NoiselessChannel(),
            max_rounds=10,
        )
        assert result.rounds == 10

    def test_max_rounds_inside_a_batch_charges_the_channel(self):
        # The clipped run still transmits max_rounds rounds, like the
        # per-round form does before its guard fires.
        channel = NoiselessChannel()
        with pytest.raises(ProtocolError):
            run_protocol(
                _TokenScriptProtocol([[("silence", 10)]]),
                [None],
                channel,
                max_rounds=4,
            )
        assert channel.stats.rounds == 4

    def test_desync_against_token_party(self):
        scripts = [
            [("bit", 0)],
            [("silence", 5)],
        ]
        with pytest.raises(ProtocolDesyncError) as excinfo:
            run_protocol(
                _TokenScriptProtocol(scripts), [None] * 2, NoiselessChannel()
            )
        assert "[1]" in str(excinfo.value)

    def test_bad_token_count_raises(self):
        for count in (0, -3, 1.5, "2"):
            with pytest.raises(ProtocolError):
                run_protocol(
                    _TokenScriptProtocol([[("burst", 1, count)]]),
                    [None],
                    NoiselessChannel(),
                )

    def test_bad_token_bit_raises(self):
        with pytest.raises(ChannelError):
            run_protocol(
                _TokenScriptProtocol([[("burst", 7, 3)]]),
                [None],
                NoiselessChannel(),
            )

    def test_scripted_flips_reach_sleeping_listener(self):
        channel = ScriptedChannel(flip_rounds={1, 3})
        result = run_protocol(
            _TokenScriptProtocol([[("silence", 5)]]), [None], channel
        )
        assert result.outputs[0] == (0, 1, 0, 1, 0)
        assert result.channel_stats.flips_up == 2


class TestFunctionalProtocol:
    def test_shared_broadcast_signature(self):
        protocol = FunctionalProtocol(
            n_parties=2,
            length=2,
            broadcast=lambda i, x, prefix: x[len(prefix)],
            output=lambda i, x, received: tuple(received),
        )
        result = run_protocol(
            protocol, [(1, 0), (0, 0)], NoiselessChannel()
        )
        assert result.outputs == [(1, 0), (1, 0)]

    def test_per_party_functions(self):
        protocol = FunctionalProtocol(
            n_parties=2,
            length=1,
            broadcast=[
                lambda x, prefix: 1,
                lambda x, prefix: 0,
            ],
            output=[
                lambda x, received: "a",
                lambda x, received: "b",
            ],
        )
        result = run_protocol(protocol, [None, None], NoiselessChannel())
        assert result.outputs == ["a", "b"]

    def test_prefix_grows_per_round(self):
        seen_lengths = []

        def broadcast(i, x, prefix):
            if i == 0:
                seen_lengths.append(len(prefix))
            return 0

        protocol = FunctionalProtocol(
            n_parties=1,
            length=3,
            broadcast=broadcast,
            output=lambda i, x, received: None,
        )
        run_protocol(protocol, [None], NoiselessChannel())
        assert seen_lengths == [0, 1, 2]

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionalProtocol(
                n_parties=1,
                length=-1,
                broadcast=lambda i, x, p: 0,
                output=lambda i, x, r: None,
            )

    def test_zero_parties_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionalProtocol(
                n_parties=0,
                length=1,
                broadcast=lambda i, x, p: 0,
                output=lambda i, x, r: None,
            )

    def test_length_metadata(self):
        protocol = FunctionalProtocol(
            n_parties=1,
            length=5,
            broadcast=lambda i, x, p: 0,
            output=lambda i, x, r: None,
        )
        assert protocol.length() == 5


class TestExecutionResult:
    def test_outputs_agree(self):
        result = run_protocol(_EchoProtocol(3), [1, 0, 0], NoiselessChannel())
        assert result.outputs_agree()
        assert result.common_output() == 1

    def test_disagreement_detected(self):
        class _IndexOutput(Protocol):
            class _P(Party):
                def __init__(self, index):
                    self.index = index

                def run(self):
                    yield 0
                    return self.index

            def create_parties(self, inputs, shared_seed=None):
                return [self._P(i) for i in range(len(inputs))]

        result = run_protocol(
            _IndexOutput(2), [None, None], NoiselessChannel()
        )
        assert not result.outputs_agree()
        with pytest.raises(ValueError):
            result.common_output()

    def test_noisy_channel_transcript_flags(self):
        channel = CorrelatedNoiseChannel(0.5 - 1e-9, rng=0)

        class _Long(Protocol):
            class _P(Party):
                def run(self):
                    for _ in range(200):
                        yield 0
                    return None

            def create_parties(self, inputs, shared_seed=None):
                return [self._P() for _ in inputs]

        result = run_protocol(_Long(1), [None], channel)
        assert len(result.transcript.noise_positions()) > 20
