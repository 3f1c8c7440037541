"""Unit tests for the simulation schemes."""

import pytest

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
    ThresholdNoiseChannel,
)
from repro.core import FunctionalProtocol, run_protocol
from repro.core.formal import NoiseModel
from repro.errors import ConfigurationError
from repro.simulation import (
    ChunkCommitSimulator,
    RepetitionSimulator,
    RewindSimulator,
    SimulationParameters,
)
from repro.simulation.base import infer_noise_model
from repro.simulation.repetition_sim import RepetitionWrappedProtocol
from repro.tasks import InputSetTask, MaxIdTask, ParityTask
from repro.vectorized import CHANNEL_KINDS


def _run(task, simulator, channel, inputs):
    return simulator.simulate(task.noiseless_protocol(), inputs, channel)


class TestInferNoiseModel:
    def test_noiseless(self):
        model = infer_noise_model(NoiselessChannel())
        assert model.up == model.down == 0.0

    def test_correlated(self):
        model = infer_noise_model(CorrelatedNoiseChannel(0.2))
        assert model.up == model.down == 0.2

    def test_one_sided(self):
        model = infer_noise_model(OneSidedNoiseChannel(0.3))
        assert (model.up, model.down) == (0.3, 0.0)

    def test_suppression(self):
        model = infer_noise_model(SuppressionNoiseChannel(0.3))
        assert (model.up, model.down) == (0.0, 0.3)

    def test_independent(self):
        model = infer_noise_model(IndependentNoiseChannel(0.15))
        assert model.up == model.down == 0.15

    def test_replayable_channels_declare_flips(self):
        """The collapsed replay reads every registered type's draw rule
        from its ``flips`` pair."""
        for channel_type in CHANNEL_KINDS:
            flips = channel_type.flips
            assert len(flips) == 2, channel_type
            assert all(type(draws) is bool for draws in flips), channel_type

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoiselessChannel(rng=1),
            lambda: CorrelatedNoiseChannel(0.2, rng=1),
            lambda: OneSidedNoiseChannel(0.3, rng=1),
            lambda: SuppressionNoiseChannel(0.35, rng=1),
            lambda: IndependentNoiseChannel(0.15, rng=1),
        ],
        ids=["noiseless", "correlated", "one-sided", "suppression", "independent"],
    )
    def test_threshold_channels_follow_their_flips(self, make):
        channel = make()
        assert isinstance(channel, ThresholdNoiseChannel)
        up, down = channel.flips
        assert infer_noise_model(channel) == NoiseModel(
            up=channel.epsilon * up, down=channel.epsilon * down
        )

    def test_unknown_channel_rejected(self):
        class _Odd(NoiselessChannel):
            pass

        class _Unknown:
            correlated = True

        with pytest.raises(ConfigurationError):
            infer_noise_model(_Unknown())


class TestRepetitionWrappedProtocol:
    def test_length_multiplies(self):
        task = ParityTask(4)
        wrapped = RepetitionWrappedProtocol(task.noiseless_protocol(), 5)
        assert wrapped.length() == 20

    def test_noiseless_equivalence(self, rng):
        """Over a noiseless channel the wrapper changes nothing."""
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        wrapped = RepetitionWrappedProtocol(task.noiseless_protocol(), 3)
        result = run_protocol(wrapped, inputs, NoiselessChannel())
        assert task.is_correct(inputs, result.outputs)

    def test_zero_round_inner(self):
        inner = FunctionalProtocol(
            n_parties=2,
            length=0,
            broadcast=lambda i, x, p: 0,
            output=lambda i, x, r: "empty",
        )
        wrapped = RepetitionWrappedProtocol(inner, 4)
        result = run_protocol(wrapped, [None, None], NoiselessChannel())
        assert result.outputs == ["empty", "empty"]
        assert result.rounds == 0


class TestRepetitionSimulator:
    def test_correct_under_mild_noise(self, rng):
        task = InputSetTask(5)
        simulator = RepetitionSimulator()
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 19

    def test_report_metadata(self, rng):
        task = ParityTask(4)
        inputs = task.sample_inputs(rng)
        result = RepetitionSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.1, rng=0),
        )
        report = result.metadata["report"]
        assert report.scheme == "RepetitionSimulator"
        assert report.inner_length == 4
        assert report.simulated_rounds == result.rounds
        assert report.overhead == result.rounds / 4
        assert report.extra["repetitions"] % 2 == 1

    def test_explicit_repetitions_honored(self, rng):
        task = ParityTask(3)
        inputs = task.sample_inputs(rng)
        params = SimulationParameters(repetitions=7)
        result = RepetitionSimulator(params).simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.1, rng=0),
        )
        assert result.rounds == 3 * 7

    def test_works_over_independent_noise(self, rng):
        task = InputSetTask(4)
        simulator = RepetitionSimulator()
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            channel = IndependentNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 18

    def test_adaptive_protocol(self, rng):
        task = MaxIdTask(4, id_bits=5)
        simulator = RepetitionSimulator()
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 19


class TestChunkCommitSimulator:
    def test_correct_under_mild_noise(self, rng):
        task = InputSetTask(5)
        simulator = ChunkCommitSimulator()
        wins = 0
        for trial in range(15):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 14

    def test_adaptive_protocol_replays_correctly(self, rng):
        task = MaxIdTask(4, id_bits=6)
        simulator = ChunkCommitSimulator()
        wins = 0
        for trial in range(15):
            inputs = task.sample_inputs(rng)
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 14

    def test_report_counts_commits(self, rng):
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        result = ChunkCommitSimulator().simulate(
            task.noiseless_protocol(),
            inputs,
            CorrelatedNoiseChannel(0.05, rng=0),
        )
        report = result.metadata["report"]
        # 2n = 8 rounds in chunks of n = 4 -> 2 committed chunks minimum.
        assert report.chunk_commits >= 2
        assert report.chunk_attempts >= report.chunk_commits
        assert report.completed

    def test_rejects_independent_noise(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        with pytest.raises(ConfigurationError):
            ChunkCommitSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                IndependentNoiseChannel(0.1, rng=0),
            )

    def test_noiseless_channel_single_attempt_per_chunk(self, rng):
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        result = ChunkCommitSimulator().simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        report = result.metadata["report"]
        assert report.chunk_attempts == report.chunk_commits == 2
        assert task.is_correct(inputs, result.outputs)

    def test_custom_chunk_length(self, rng):
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        params = SimulationParameters(chunk_length=2)
        result = ChunkCommitSimulator(params).simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        report = result.metadata["report"]
        assert report.chunk_commits == 4  # 8 rounds / 2 per chunk

    def test_budget_exhaustion_reported(self, rng):
        """With an absurd noise level and a tiny budget the simulator
        fails gracefully and reports incompleteness."""
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        params = SimulationParameters(
            repetitions=1,
            verification_repetitions=1,
            attempt_slack=1.0,
            attempt_extra=0,
        )
        channel = CorrelatedNoiseChannel(0.45, rng=3)
        result = ChunkCommitSimulator(params).simulate(
            task.noiseless_protocol(), inputs, channel
        )
        report = result.metadata["report"]
        assert report.chunk_attempts == 2  # ceil(1.0 * 2) + 0
        # Either it got lucky and completed, or it reports failure.
        assert report.completed in (True, False)

    def test_works_on_one_sided_noise(self, rng):
        task = InputSetTask(4)
        simulator = ChunkCommitSimulator()
        wins = 0
        for trial in range(15):
            inputs = task.sample_inputs(rng)
            channel = OneSidedNoiseChannel(0.15, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 14


class TestRewindSimulator:
    def test_correct_under_suppression_noise(self, rng):
        task = InputSetTask(5)
        simulator = RewindSimulator()
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            channel = SuppressionNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 19

    def test_constant_overhead(self, rng):
        """Round count is exactly 2 * iterations, a fixed multiple of T."""
        task = InputSetTask(6)
        inputs = task.sample_inputs(rng)
        params = SimulationParameters(
            rewind_budget_factor=3.0, rewind_budget_extra=10
        )
        result = RewindSimulator(params).simulate(
            task.noiseless_protocol(),
            inputs,
            SuppressionNoiseChannel(0.1, rng=0),
        )
        assert result.rounds == 2 * (3 * 12 + 10)

    def test_adaptive_protocol(self, rng):
        task = MaxIdTask(4, id_bits=6)
        simulator = RewindSimulator()
        wins = 0
        for trial in range(20):
            inputs = task.sample_inputs(rng)
            channel = SuppressionNoiseChannel(0.1, rng=trial)
            result = _run(task, simulator, channel, inputs)
            wins += task.is_correct(inputs, result.outputs)
        assert wins >= 19

    def test_rewinds_happen_under_noise(self, rng):
        task = InputSetTask(6)
        rewind_totals = 0
        for trial in range(10):
            inputs = task.sample_inputs(rng)
            channel = SuppressionNoiseChannel(0.2, rng=trial)
            result = RewindSimulator().simulate(
                task.noiseless_protocol(), inputs, channel
            )
            rewind_totals += result.metadata["report"].rewinds
        assert rewind_totals > 0

    def test_no_rewinds_without_noise(self, rng):
        task = InputSetTask(4)
        inputs = task.sample_inputs(rng)
        result = RewindSimulator().simulate(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        assert result.metadata["report"].rewinds == 0
        assert result.metadata["report"].completed

    def test_unsound_under_upward_noise(self, rng):
        """The asymmetry (§1.1): the same scheme over 0->1 noise degrades
        markedly — phantom 1s are unverifiable and alarms are fabricated."""
        task = InputSetTask(6)
        suppression_wins = 0
        upward_wins = 0
        trials = 25
        for trial in range(trials):
            inputs = task.sample_inputs(rng)
            down = SuppressionNoiseChannel(0.25, rng=trial)
            up = OneSidedNoiseChannel(0.25, rng=trial)
            simulator = RewindSimulator()
            result_down = _run(task, simulator, down, inputs)
            result_up = _run(task, simulator, up, inputs)
            suppression_wins += task.is_correct(
                inputs, result_down.outputs
            )
            upward_wins += task.is_correct(inputs, result_up.outputs)
        assert suppression_wins > upward_wins + trials * 0.3

    def test_rejects_independent_noise(self, rng):
        task = InputSetTask(3)
        inputs = task.sample_inputs(rng)
        with pytest.raises(ConfigurationError):
            RewindSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                IndependentNoiseChannel(0.1, rng=0),
            )


class TestSimulatorValidation:
    def test_unknown_length_rejected(self, rng):
        class _NoLength(FunctionalProtocol):
            def length(self):
                return None

        protocol = _NoLength(
            n_parties=2,
            length=2,
            broadcast=lambda i, x, p: 0,
            output=lambda i, x, r: None,
        )
        with pytest.raises(ConfigurationError):
            RepetitionSimulator().simulate(
                protocol, [None, None], NoiselessChannel()
            )


class TestInnerPartyConstruction:
    """A replay builds the one inner party it steps, not all ``n``."""

    @pytest.mark.parametrize("simulator", [ChunkCommitSimulator, RewindSimulator])
    @pytest.mark.parametrize(
        "task", [InputSetTask(6), ParityTask(6)], ids=["input-set", "parity"]
    )
    def test_each_replay_builds_one_inner_party(
        self, monkeypatch, rng, simulator, task
    ):
        import repro.core.formal as formal
        import repro.core.party as party

        built = []
        for module, name in (
            (party, "FunctionalParty"),
            (formal, "_ScheduledParty"),
        ):
            cls = getattr(module, name)
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        protocol = task.noiseless_protocol()
        replays = []
        create_party = protocol.create_party

        def counted(*args, **kwargs):
            replays.append(args[0])
            return create_party(*args, **kwargs)

        protocol.create_party = counted
        inputs = task.sample_inputs(rng)
        result = simulator().simulate(
            protocol, inputs, CorrelatedNoiseChannel(0.1, rng=5)
        )
        assert task.is_correct(inputs, result.outputs)
        assert replays and set(replays) == set(range(task.n_parties))
        assert len(built) == len(replays)
