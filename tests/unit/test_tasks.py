"""Unit tests for the communication tasks."""

import random

import pytest

from repro.channels import NoiselessChannel
from repro.core import run_protocol
from repro.errors import ConfigurationError, TaskError
from repro.tasks import (
    BitExchangeTask,
    InputSetTask,
    MaxIdTask,
    OrTask,
    ParityTask,
)


class TestInputSetTask:
    def test_universe(self):
        task = InputSetTask(4)
        assert list(task.universe) == list(range(1, 9))

    def test_sampling_in_range(self, rng):
        task = InputSetTask(6)
        for _ in range(50):
            inputs = task.sample_inputs(rng)
            assert len(inputs) == 6
            assert all(1 <= x <= 12 for x in inputs)

    def test_reference_output(self):
        task = InputSetTask(3)
        assert task.reference_output([1, 5, 1]) == frozenset({1, 5})

    def test_input_validation(self):
        task = InputSetTask(3)
        with pytest.raises(TaskError):
            task.reference_output([1, 2])
        with pytest.raises(TaskError):
            task.reference_output([0, 2, 3])
        with pytest.raises(TaskError):
            task.reference_output([1, 2, 7])

    def test_noiseless_protocol_solves_task(self, rng):
        task = InputSetTask(5)
        for _ in range(20):
            inputs = task.sample_inputs(rng)
            result = run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )
            assert task.is_correct(inputs, result.outputs)

    def test_noiseless_length_is_2n(self):
        assert InputSetTask(7).noiseless_length() == 14

    def test_transcript_is_membership_indicator(self):
        task = InputSetTask(3)
        inputs = [2, 4, 4]
        result = run_protocol(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        view = result.transcript.common_view()
        assert view == (0, 1, 0, 1, 0, 0)

    def test_unique_holders(self):
        task = InputSetTask(4)
        assert task.unique_holders([1, 2, 2, 5]) == {0, 3}
        assert task.unique_holders([3, 3, 3, 3]) == frozenset()
        assert task.unique_holders([1, 2, 3, 4]) == {0, 1, 2, 3}

    def test_zero_parties_rejected(self):
        with pytest.raises(ConfigurationError):
            InputSetTask(0)


class TestOrTask:
    def test_reference(self):
        task = OrTask(3)
        assert task.reference_output([0, 0, 0]) == 0
        assert task.reference_output([0, 1, 0]) == 1

    def test_single_round_protocol(self, rng):
        task = OrTask(4)
        for _ in range(20):
            inputs = task.sample_inputs(rng)
            result = run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )
            assert result.rounds == 1
            assert task.is_correct(inputs, result.outputs)

    def test_skewed_sampling(self):
        task = OrTask(4, one_probability=0.0)
        assert task.sample_inputs(random.Random(0)) == [0, 0, 0, 0]
        task = OrTask(4, one_probability=1.0)
        assert task.sample_inputs(random.Random(0)) == [1, 1, 1, 1]

    def test_probability_validation(self):
        with pytest.raises(TaskError):
            OrTask(2, one_probability=1.5)


class TestParityTask:
    def test_reference(self):
        task = ParityTask(4)
        assert task.reference_output([1, 1, 0, 0]) == 0
        assert task.reference_output([1, 0, 0, 0]) == 1

    def test_protocol_round_robin(self):
        task = ParityTask(3)
        inputs = [1, 0, 1]
        result = run_protocol(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        assert result.transcript.common_view() == (1, 0, 1)
        assert result.outputs == [0, 0, 0]

    def test_protocol_correct_on_samples(self, rng):
        task = ParityTask(6)
        for _ in range(20):
            inputs = task.sample_inputs(rng)
            result = run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )
            assert task.is_correct(inputs, result.outputs)


class TestBitExchangeTask:
    def test_reference(self):
        task = BitExchangeTask(3)
        inputs = [(1, 0, 1), (0, 0, 1)]
        assert task.reference_output(inputs) == ((1, 0, 1), (0, 0, 1))

    def test_protocol_alternates(self):
        task = BitExchangeTask(2)
        inputs = [(1, 0), (0, 1)]
        result = run_protocol(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        # Rounds: p0 bit0, p1 bit0, p0 bit1, p1 bit1.
        assert result.transcript.common_view() == (1, 0, 0, 1)
        assert task.is_correct(inputs, result.outputs)

    def test_protocol_correct_on_samples(self, rng):
        task = BitExchangeTask(5)
        for _ in range(20):
            inputs = task.sample_inputs(rng)
            result = run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )
            assert task.is_correct(inputs, result.outputs)

    def test_length(self):
        assert BitExchangeTask(4).noiseless_length() == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BitExchangeTask(0)
        with pytest.raises(TaskError):
            BitExchangeTask(2).reference_output([(0, 1)])


class TestMaxIdTask:
    def test_reference(self):
        task = MaxIdTask(3, id_bits=4)
        assert task.reference_output([3, 9, 5]) == 9

    def test_distinctness_required(self):
        task = MaxIdTask(3, id_bits=4)
        with pytest.raises(TaskError):
            task.reference_output([3, 3, 5])

    def test_sampling_distinct(self, rng):
        task = MaxIdTask(6, id_bits=4)
        for _ in range(20):
            inputs = task.sample_inputs(rng)
            assert len(set(inputs)) == 6

    def test_protocol_elects_max(self, rng):
        task = MaxIdTask(5, id_bits=6)
        for _ in range(30):
            inputs = task.sample_inputs(rng)
            result = run_protocol(
                task.noiseless_protocol(), inputs, NoiselessChannel()
            )
            assert result.outputs == [max(inputs)] * 5

    def test_protocol_is_adaptive(self):
        """A party's beep depends on the received prefix: with ids 2 (10)
        and 1 (01), party holding 1 is eliminated after round 0."""
        task = MaxIdTask(2, id_bits=2)
        result = run_protocol(
            task.noiseless_protocol(), [2, 1], NoiselessChannel()
        )
        # Round 0: candidate bits (1, 0) -> hear 1, party with id 1 drops.
        # Round 1: only id 2 beeps its second bit (0).
        assert result.transcript.sent_bits(1) == (0, 0)
        assert result.transcript.common_view() == (1, 0)
        assert result.outputs == [2, 2]

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            MaxIdTask(5, id_bits=2)
        with pytest.raises(ConfigurationError):
            MaxIdTask(2, id_bits=0)


class TestTaskDefaults:
    def test_is_correct_requires_unanimity(self):
        task = OrTask(2)
        assert task.is_correct([1, 0], [1, 1])
        assert not task.is_correct([1, 0], [1, 0])
        assert not task.is_correct([1, 0], [0, 0])

    def test_is_correct_compares_each_distinct_output_once(self):
        """Parties that share one output object cost one comparison, and
        the verdict is the per-party one, also with one wrong output
        among shared ones."""
        calls = []

        class Output(frozenset):
            def __eq__(self, other):
                calls.append(self)
                return frozenset.__eq__(self, other)

            __hash__ = frozenset.__hash__

        task = InputSetTask(6)
        inputs = [1, 3, 3, 7, 2, 9]
        shared = Output(task.reference_output(inputs))
        assert task.is_correct(inputs, [shared] * 6)
        assert len(calls) == 1
        calls.clear()

        copies = [Output(shared) for _ in range(3)]
        assert task.is_correct(inputs, [shared, shared] + copies + [shared])
        assert len(calls) == 4
        calls.clear()

        wrong = Output(shared - {7})
        outputs = [shared, shared, wrong, shared, wrong, shared]
        assert not task.is_correct(inputs, outputs)
        assert calls == [shared, wrong]
