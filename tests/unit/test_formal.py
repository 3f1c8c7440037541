"""Unit tests for the formal protocol model (Appendix A.1.1)."""

import math

import pytest

from repro.channels import (
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
)
from repro.core import FunctionalParty, run_protocol
from repro.core.formal import FormalProtocol, NoiseModel
from repro.errors import ConfigurationError, ProtocolError
from repro.lowerbound.feasible import feasible_set
from repro.tasks.input_set import input_set_formal_protocol


def _simple_protocol(n=2, length=2):
    """Party i beeps 1 in round i (round-robin)."""
    return FormalProtocol(
        n_parties=n,
        length=length,
        input_spaces=[(0, 1)] * n,
        broadcast=lambda i, x, prefix: x if len(prefix) == i else 0,
        output=lambda pi: tuple(pi),
    )


class TestNoiseModel:
    def test_one_sided(self):
        model = NoiseModel.one_sided(0.3)
        assert model.up == 0.3
        assert model.down == 0.0

    def test_two_sided(self):
        model = NoiseModel.two_sided(0.2)
        assert model.up == model.down == 0.2

    def test_suppression(self):
        model = NoiseModel.suppression(0.1)
        assert model.up == 0.0
        assert model.down == 0.1

    def test_round_probability_or_one(self):
        model = NoiseModel(up=0.1, down=0.2)
        assert model.round_probability(1, 1) == pytest.approx(0.8)
        assert model.round_probability(1, 0) == pytest.approx(0.2)

    def test_round_probability_or_zero(self):
        model = NoiseModel(up=0.1, down=0.2)
        assert model.round_probability(0, 1) == pytest.approx(0.1)
        assert model.round_probability(0, 0) == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(up=1.0, down=0.0)
        with pytest.raises(ConfigurationError):
            NoiseModel(up=0.0, down=-0.1)


class TestFormalProtocolConstruction:
    def test_input_space_count_validation(self):
        with pytest.raises(ConfigurationError):
            FormalProtocol(
                2, 1, [(0, 1)], lambda i, x, p: 0, lambda pi: None
            )

    def test_empty_input_space_rejected(self):
        with pytest.raises(ConfigurationError):
            FormalProtocol(
                1, 1, [()], lambda i, x, p: 0, lambda pi: None
            )

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            FormalProtocol(
                1, -1, [(0,)], lambda i, x, p: 0, lambda pi: None
            )

    def test_executable_through_engine(self):
        protocol = _simple_protocol()
        result = run_protocol(protocol, [1, 0], NoiselessChannel())
        assert result.outputs == [(1, 0), (1, 0)]


class TestBeepsAndPartition:
    def test_beep_matrix(self):
        protocol = _simple_protocol()
        rows = protocol.beeps([1, 1], (1, 1))
        assert rows == [(1, 0), (0, 1)]

    def test_beep_set(self):
        protocol = _simple_protocol()
        assert protocol.beep_set([1, 1], (1, 1), 0) == {0}
        assert protocol.beep_set([0, 1], (0, 1), 0) == frozenset()

    def test_transcript_length_validation(self):
        protocol = _simple_protocol()
        with pytest.raises(ProtocolError):
            protocol.beeps([1, 1], (1,))

    def test_partition_zeros(self):
        protocol = _simple_protocol()
        partition = protocol.round_partition([0, 0], (0, 0))
        assert partition.zeros == [0, 1]
        assert partition.phantom_ones == []
        assert partition.lonely == {}

    def test_partition_phantom_ones(self):
        protocol = _simple_protocol()
        partition = protocol.round_partition([0, 0], (1, 0))
        assert partition.phantom_ones == [0]
        assert partition.zeros == [1]

    def test_partition_lonely(self):
        protocol = _simple_protocol()
        partition = protocol.round_partition([1, 1], (1, 1))
        assert partition.lonely == {0: [0], 1: [1]}
        assert partition.lonely_count(0) == 1
        assert partition.lonely_count(5) == 0

    def test_partition_crowded(self):
        protocol = FormalProtocol(
            2,
            1,
            [(0, 1)] * 2,
            lambda i, x, p: x,
            lambda pi: None,
        )
        partition = protocol.round_partition([1, 1], (1,))
        assert partition.crowded == [0]


class TestBroadcastBits:
    """A broadcast value must be a bit; everything reads it the same way."""

    @staticmethod
    def _protocol(beep):
        return FormalProtocol(
            1,
            1,
            [(0, 1)],
            lambda i, x, p: beep if x == 1 else 0,
            lambda pi: None,
        )

    def test_non_bit_broadcast_raises_everywhere(self):
        protocol = self._protocol(2)
        model = NoiseModel.one_sided(1.0 / 3.0)
        with pytest.raises(ProtocolError):
            protocol.transcript_probability((1,), (0,), model)
        with pytest.raises(ProtocolError):
            protocol.beeps((1,), (1,))
        with pytest.raises(ProtocolError):
            protocol.beep_set((1,), (1,), 0)
        with pytest.raises(ProtocolError):
            list(protocol.enumerate_transcripts((1,), model))
        with pytest.raises(ProtocolError):
            feasible_set(protocol, 0, (0,))

    def test_bool_broadcast_is_a_bit(self):
        boolean = self._protocol(True)
        integer = self._protocol(1)
        model = NoiseModel.two_sided(0.25)
        for pi in ((0,), (1,)):
            assert boolean.transcript_probability(
                (1,), pi, model
            ) == integer.transcript_probability((1,), pi, model)
            assert boolean.beeps((1,), pi) == [(1,)]
        assert list(boolean.enumerate_transcripts((1,), model)) == list(
            integer.enumerate_transcripts((1,), model)
        )

    def test_reassigned_broadcast_is_not_served_stale(self):
        protocol = _simple_protocol()
        assert protocol.beeps([1, 1], (1, 1)) == [(1, 0), (0, 1)]
        protocol.broadcast = lambda i, x, prefix: 0
        assert protocol.beeps([1, 1], (1, 1)) == [(0, 0), (0, 0)]


class TestBeepSchedule:
    """A beep schedule stands for the broadcast it was given with."""

    @staticmethod
    def _last_round_broadcast(i, x, prefix):
        return 1 if len(prefix) == 3 else 0

    def test_reassigned_broadcast_drops_the_schedule(self):
        protocol = input_set_formal_protocol(2)
        pi = (1, 0, 0, 0)
        assert protocol.schedule is not None
        assert protocol.beep_masks([1, 1], pi) == [0b0001, 0b0001]
        assert not any(
            isinstance(party, FunctionalParty)
            for party in protocol.create_parties([1, 1])
        )
        protocol.broadcast = self._last_round_broadcast
        assert protocol.schedule is None
        # Same π: the table built on the old schedule is not reused.
        assert protocol.beep_masks([1, 1], pi) == [0b1000, 0b1000]
        assert feasible_set(protocol, 0, (0, 0, 0, 1)) == (1, 2, 3, 4)
        assert all(
            isinstance(party, FunctionalParty)
            for party in protocol.create_parties([1, 1])
        )
        result = run_protocol(protocol, [1, 1], NoiselessChannel())
        assert result.transcript.common_view() == (0, 0, 0, 1)
        assert result.outputs == [frozenset({4})] * 2

    def test_setting_a_schedule_binds_the_current_broadcast(self):
        protocol = input_set_formal_protocol(2)
        protocol.broadcast = self._last_round_broadcast
        protocol.schedule = lambda i, x: 0b1000
        assert protocol.schedule is not None
        assert protocol.beep_masks([1, 1], (1, 0, 0, 0)) == [0b1000] * 2
        # A new schedule on the same broadcast replaces the cached table.
        protocol.schedule = lambda i, x: 0b0100
        assert protocol.beep_masks([1, 1], (1, 0, 0, 0)) == [0b0100] * 2
        protocol.schedule = lambda i, x: 0b1000
        result = run_protocol(protocol, [1, 1], NoiselessChannel())
        assert result.transcript.common_view() == (0, 0, 0, 1)

    def test_output_runs_once_per_distinct_transcript(self):
        protocol = input_set_formal_protocol(4, repetitions=2)
        transcripts = []
        output = protocol.output

        def counting_output(pi):
            transcripts.append(tuple(pi))
            return output(pi)

        protocol.output = counting_output
        shared = run_protocol(
            protocol, [1, 2, 3, 3], OneSidedNoiseChannel(0.3, rng=4)
        )
        assert len(transcripts) == 1
        assert shared.outputs == [output(transcripts[0])] * 4
        transcripts.clear()
        split = run_protocol(
            protocol, [1, 2, 3, 3], IndependentNoiseChannel(0.3, rng=4)
        )
        views = {split.transcript.view(i) for i in range(4)}
        assert len(views) > 1
        assert sorted(transcripts) == sorted(views)


class TestTranscriptProbability:
    def test_noiseless_forced_transcript(self):
        protocol = _simple_protocol()
        model = NoiseModel(up=0.0, down=0.0)
        assert protocol.transcript_probability([1, 0], (1, 0), model) == 1.0
        assert protocol.transcript_probability([1, 0], (0, 0), model) == 0.0

    def test_one_sided_beeped_round_forced(self):
        protocol = _simple_protocol()
        model = NoiseModel.one_sided(1.0 / 3.0)
        # Round 0: party 0 beeps -> pi_0 must be 1.
        assert protocol.transcript_probability([1, 0], (0, 0), model) == 0.0

    def test_one_sided_silent_round_probability(self):
        protocol = _simple_protocol()
        model = NoiseModel.one_sided(1.0 / 3.0)
        # Input (0,0): both rounds silent.
        probability = protocol.transcript_probability([0, 0], (0, 1), model)
        assert probability == pytest.approx((2.0 / 3.0) * (1.0 / 3.0))

    def test_probabilities_sum_to_one(self):
        protocol = _simple_protocol()
        for model in (
            NoiseModel.one_sided(0.3),
            NoiseModel.two_sided(0.2),
            NoiseModel.suppression(0.4),
        ):
            for inputs in protocol.enumerate_inputs():
                total = sum(
                    probability
                    for _, probability in protocol.enumerate_transcripts(
                        inputs, model
                    )
                )
                assert total == pytest.approx(1.0)

    def test_enumeration_pruning_one_sided(self):
        """With both parties beeping, one-sided noise forces all-ones."""
        protocol = _simple_protocol()
        model = NoiseModel.one_sided(0.5 - 1e-9)
        transcripts = list(protocol.enumerate_transcripts([1, 1], model))
        assert transcripts == [((1, 1), 1.0)]

    def test_enumeration_matches_pointwise(self):
        protocol = _simple_protocol()
        model = NoiseModel.two_sided(0.25)
        for pi, probability in protocol.enumerate_transcripts([1, 0], model):
            assert probability == pytest.approx(
                protocol.transcript_probability([1, 0], pi, model)
            )


class TestEnumerateTranscriptsGarbage:
    def test_pass_leaves_no_reference_cycles(self, cyclic_garbage):
        protocol = input_set_formal_protocol(3)
        x = next(protocol.enumerate_inputs())
        model = NoiseModel.one_sided(0.2)
        reference = list(protocol.enumerate_transcripts(x, model))
        transcripts = []
        assert (
            cyclic_garbage(
                lambda: transcripts.extend(
                    protocol.enumerate_transcripts(x, model)
                )
            )
            == 0
        )
        assert transcripts == reference


class TestInputEnumeration:
    def test_enumerate_inputs_cardinality(self):
        protocol = _simple_protocol()
        assert len(list(protocol.enumerate_inputs())) == 4

    def test_input_probability(self):
        protocol = _simple_protocol()
        assert protocol.input_probability() == pytest.approx(0.25)


class TestInputSetFormalProtocol:
    def test_matches_noiseless_execution(self):
        protocol = input_set_formal_protocol(3)
        result = run_protocol(protocol, [2, 5, 2], NoiselessChannel())
        assert result.outputs[0] == frozenset({2, 5})

    def test_repetition_variant_length(self):
        protocol = input_set_formal_protocol(2, repetitions=3)
        assert protocol.length() == 12

    def test_repetition_majority_output(self):
        protocol = input_set_formal_protocol(2, repetitions=3)
        # Transcript: round 1 votes (1,1,0) -> majority 1; others 0.
        pi = (1, 1, 0) + (0,) * 9
        assert protocol.output(pi) == frozenset({1})

    def test_repetition_validation(self):
        with pytest.raises(ConfigurationError):
            input_set_formal_protocol(2, repetitions=0)

    def test_statistical_agreement_with_noisy_run(self):
        """The formal probability matches a Monte-Carlo frequency."""
        protocol = input_set_formal_protocol(2)
        model = NoiseModel.one_sided(1.0 / 3.0)
        inputs = [1, 1]
        target = (1, 0, 0, 0)
        expected = protocol.transcript_probability(inputs, target, model)
        assert expected == pytest.approx((2 / 3) ** 3)
        trials = 3000
        hits = 0
        for trial in range(trials):
            channel = OneSidedNoiseChannel(1.0 / 3.0, rng=trial)
            result = run_protocol(protocol, inputs, channel)
            if result.transcript.common_view() == target:
                hits += 1
        assert hits / trials == pytest.approx(expected, abs=0.035)
