"""Unit tests for the exception hierarchy and failure policies."""

import random
from functools import partial

import pytest

from repro import errors
from repro.channels import CorrelatedNoiseChannel, SuppressionNoiseChannel
from repro.errors import ConfigurationError, SimulationBudgetExceeded
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RewindSimulator,
    SimulationParameters,
)
from repro.tasks import InputSetTask
from repro.vectorized import simulate_rewind


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError), name

    def test_configuration_error_is_value_error(self):
        assert issubclass(errors.ConfigurationError, ValueError)

    def test_desync_is_protocol_error(self):
        assert issubclass(
            errors.ProtocolDesyncError, errors.ProtocolError
        )

    def test_decoding_is_coding_error(self):
        assert issubclass(errors.DecodingError, errors.CodingError)

    def test_budget_exceeded_is_simulation_error(self):
        assert issubclass(
            errors.SimulationBudgetExceeded, errors.SimulationError
        )

    def test_budget_exceeded_carries_progress(self):
        error = SimulationBudgetExceeded("nope", committed_rounds=7)
        assert error.committed_rounds == 7
        assert "nope" in str(error)

    def test_single_except_catches_everything(self):
        for name in errors.__all__:
            exception_class = getattr(errors, name)
            if exception_class is errors.ReproError:
                continue
            try:
                if issubclass(
                    exception_class, errors.SimulationBudgetExceeded
                ):
                    raise exception_class("x", committed_rounds=0)
                raise exception_class("x")
            except errors.ReproError:
                pass


class TestOnIncompletePolicy:
    def _hopeless(self, simulator_cls, **kwargs):
        """A simulator configured to (almost surely) run out of budget."""
        params = SimulationParameters(
            repetitions=1,
            verification_repetitions=1,
            attempt_slack=1.0,
            attempt_extra=0,
        )
        return simulator_cls(params, **kwargs)

    def test_default_pads(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        simulator = self._hopeless(ChunkCommitSimulator)
        result = simulator.simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.45, rng=1),
        )
        assert len(result.outputs) == 3  # padded outputs, no exception

    def test_raise_mode_raises_on_failure(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        simulator = self._hopeless(
            ChunkCommitSimulator, on_incomplete="raise"
        )
        raised = 0
        for trial in range(10):
            try:
                simulator.simulate(
                    task.noiseless_protocol(),
                    inputs,
                    CorrelatedNoiseChannel(0.45, rng=trial),
                )
            except SimulationBudgetExceeded as error:
                raised += 1
                assert 0 <= error.committed_rounds <= 6
        assert raised >= 5

    def test_raise_mode_silent_on_success(self, rng):
        from repro.channels import NoiselessChannel

        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        simulator = ChunkCommitSimulator(on_incomplete="raise")
        result = simulator.simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        assert task.is_correct(inputs, result.outputs)

    def test_hierarchical_supports_policy(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        simulator = HierarchicalSimulator(
            SimulationParameters(
                repetitions=1, verification_repetitions=1
            ),
            extra_levels=0,
            on_incomplete="raise",
        )
        raised = 0
        for trial in range(10):
            try:
                simulator.simulate(
                    task.noiseless_protocol(),
                    inputs,
                    CorrelatedNoiseChannel(0.45, rng=trial),
                )
            except SimulationBudgetExceeded:
                raised += 1
        assert raised >= 3

    def test_rewind_raise_reports_working_length(self):
        """An exhausted rewind walk raises with its final working-prefix
        length, in the scalar and the collapsed form alike."""
        task = InputSetTask(8)
        protocol = task.noiseless_protocol()
        inputs = task.sample_inputs(random.Random(0))
        params = SimulationParameters(
            rewind_budget_factor=1.0, rewind_budget_extra=2
        )
        padded = RewindSimulator(params).simulate(
            protocol, inputs, SuppressionNoiseChannel(0.3, rng=1)
        )
        report = padded.metadata["report"]
        assert not report.completed
        working_length = report.extra["working_length"]
        assert working_length > 0
        strict = RewindSimulator(params, on_incomplete="raise")
        for run in (strict.simulate, partial(simulate_rewind, strict)):
            with pytest.raises(SimulationBudgetExceeded) as caught:
                run(protocol, inputs, SuppressionNoiseChannel(0.3, rng=1))
            assert caught.value.committed_rounds == working_length

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ChunkCommitSimulator(on_incomplete="explode")
