"""Unit tests for the Appendix-D.2 hierarchical simulator."""

import random

import pytest

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
)
from repro.errors import ConfigurationError
from repro.simulation import HierarchicalSimulator, SimulationParameters
from repro.tasks import InputSetTask, MaxIdTask, ParityTask


class TestHierarchicalBasics:
    def test_noiseless_perfect_and_no_truncation(self, rng):
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        result = HierarchicalSimulator().simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        report = result.metadata["report"]
        assert task.is_correct(inputs, result.outputs)
        assert report.completed
        assert report.rewinds == 0
        assert report.chunk_commits == 2  # 8 rounds / chunk of 4

    def test_depth_and_leaf_budget(self, rng):
        task = InputSetTask(4)  # 2 chunks -> depth = 1 + extra_levels
        inputs = task.sample_inputs(rng)
        simulator = HierarchicalSimulator(extra_levels=2)
        result = simulator.simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        report = result.metadata["report"]
        assert report.extra["depth"] == 3
        assert report.extra["leaf_budget"] == 8
        # Idle leaves fire after completion: leaf calls == budget.
        assert report.chunk_attempts == 8

    def test_correct_under_noise(self, rng):
        task = InputSetTask(5)
        simulator = HierarchicalSimulator()
        wins = 0
        for trial in range(15):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.15, rng=trial)
            result = simulator.simulate(
                task.noiseless_protocol(), inputs, channel
            )
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 14

    def test_adaptive_protocol(self, rng):
        task = MaxIdTask(4, id_bits=10)
        simulator = HierarchicalSimulator()
        wins = 0
        for trial in range(10):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = simulator.simulate(
                task.noiseless_protocol(), inputs, channel
            )
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 9

    def test_single_chunk_protocol(self, rng):
        """num_chunks = 1: depth = extra_levels, still works."""
        task = ParityTask(3)
        inputs = task.sample_inputs(rng)
        result = HierarchicalSimulator().simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        assert task.is_correct(inputs, result.outputs)


class TestTruncationPath:
    def test_bad_chunks_get_truncated(self, rng):
        """With repetitions=1 the simulation phase errs constantly; the
        progress checks must truncate and resimulate, and the final
        output should still often be right thanks to retries."""
        task = InputSetTask(4)
        params = SimulationParameters(repetitions=1)
        simulator = HierarchicalSimulator(params, extra_levels=3)
        truncations = 0
        for trial in range(10):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.25, rng=trial)
            result = simulator.simulate(
                task.noiseless_protocol(), inputs, channel
            )
            truncations += result.metadata["report"].rewinds
        assert truncations > 0

    def test_budget_exhaustion_is_reported_not_raised(self, rng):
        task = InputSetTask(4)
        params = SimulationParameters(
            repetitions=1, verification_repetitions=3
        )
        simulator = HierarchicalSimulator(params, extra_levels=0)
        channel = CorrelatedNoiseChannel(0.4, rng=0)
        inputs = task.sample_inputs(rng)
        result = simulator.simulate(
            task.noiseless_protocol(), inputs, channel
        )
        report = result.metadata["report"]
        assert report.completed in (True, False)
        assert len(result.outputs) == 4


class TestHierarchicalValidation:
    def test_rejects_independent_noise(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        with pytest.raises(ConfigurationError):
            HierarchicalSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                IndependentNoiseChannel(0.1, rng=0),
            )

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSimulator(extra_levels=-1)
        with pytest.raises(ConfigurationError):
            HierarchicalSimulator(level_repetition_step=-1)


class TestAgainstChunkCommit:
    def test_same_answers_on_shared_instances(self, rng):
        """Both Theorem 1.2 implementations should solve the same
        instances (they share all phase-1/2 machinery)."""
        from repro.simulation import ChunkCommitSimulator

        task = InputSetTask(5)
        matches = 0
        for trial in range(10):
            inputs = task.sample_inputs(rng)
            chunked = ChunkCommitSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(0.1, rng=trial),
            )
            hierarchical = HierarchicalSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(0.1, rng=10_000 + trial),
            )
            matches += (
                task.is_correct(inputs, chunked.outputs)
                and task.is_correct(inputs, hierarchical.outputs)
            )
        assert matches >= 9


class TestVectorizedHierarchyGarbage:
    def test_batch_leaves_no_reference_cycles(self, cyclic_garbage):
        """The collapsed ``A_l`` recursion holds no per-trial state (noise
        stream, programs, generators) in reference cycles."""
        from repro.parallel import (
            ChannelSpec,
            SimulationExecutor,
            SimulatorSpec,
        )
        from repro.vectorized import VectorizedRunner

        task = InputSetTask(16)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.15),
            simulator=SimulatorSpec.of(HierarchicalSimulator),
        )
        runner = VectorizedRunner()
        runner.run_trials(task, executor, 2, seed=1)  # warm the caches
        assert (
            cyclic_garbage(lambda: runner.run_trials(task, executor, 8))
            == 0
        )
        assert runner.last_fallback_reason is None
