"""Unit tests for lifting executable protocols to the formal model."""

import pytest

from repro.core import formalize_protocol, run_protocol
from repro.core.formal import NoiseModel
from repro.channels import NoiselessChannel
from repro.errors import ConfigurationError
from repro.lowerbound.feasible import feasible_set
from repro.lowerbound.zeta import LowerBoundAnalyzer
from repro.tasks import InputSetTask, MaxIdTask, ParityTask
from repro.tasks.input_set import input_set_formal_protocol


class TestFormalizeBasics:
    def test_beeps_match_direct_execution(self):
        task = ParityTask(3)
        lifted = formalize_protocol(
            task.noiseless_protocol(), [(0, 1)] * 3
        )
        inputs = [1, 0, 1]
        direct = run_protocol(
            task.noiseless_protocol(), inputs, NoiselessChannel()
        )
        pi = direct.transcript.common_view()
        rows = lifted.beeps(inputs, pi)
        for m, record in enumerate(direct.transcript):
            assert rows[m] == record.sent

    def test_lifted_input_set_matches_native_formal(self):
        """formalize(executable InputSet) agrees with the hand-written
        formal version on beeps, outputs and transcript probabilities.
        The task's protocol runs its parties as batch tokens, so the
        lift's replay steps tokens."""
        n = 2
        lifted = formalize_protocol(
            InputSetTask(n).noiseless_protocol(),
            [range(1, 2 * n + 1)] * n,
        )
        native = input_set_formal_protocol(n)
        model = NoiseModel.one_sided(1 / 3)
        for inputs in native.enumerate_inputs():
            for pi, probability in native.enumerate_transcripts(
                inputs, model
            ):
                assert lifted.transcript_probability(
                    inputs, pi, model
                ) == pytest.approx(probability)
                assert lifted.beeps(inputs, pi) == native.beeps(inputs, pi)
                assert lifted.output(pi) == native.output(pi)

    def test_adaptive_protocol_lifts(self):
        """Max-id election is adaptive; the lift must reproduce its
        prefix-dependent beeps."""
        task = MaxIdTask(2, id_bits=2)
        lifted = formalize_protocol(
            task.noiseless_protocol(), [range(4)] * 2
        )
        # ids (2, 1): after hearing 1 in round 0, id 1 is eliminated.
        rows = lifted.beeps([2, 1], (1, 0))
        assert rows[0] == (1, 0)
        assert rows[1] == (0, 0)
        # Against an all-zero prefix, id 1 would still be a candidate.
        rows = lifted.beeps([2, 1], (0, 1))
        assert rows[1] == (0, 1)

    def test_output_replay(self):
        task = ParityTask(2)
        lifted = formalize_protocol(
            task.noiseless_protocol(), [(0, 1)] * 2
        )
        assert lifted.output((1, 1)) == 0
        assert lifted.output((1, 0)) == 1

    def test_explicit_output_wins(self):
        task = ParityTask(2)
        lifted = formalize_protocol(
            task.noiseless_protocol(),
            [(0, 1)] * 2,
            output=lambda pi: "custom",
        )
        assert lifted.output((0, 0)) == "custom"

    def test_validation(self):
        task = ParityTask(2)
        with pytest.raises(ConfigurationError):
            formalize_protocol(task.noiseless_protocol(), [(0, 1)])


class TestLiftedLowerBoundAnalysis:
    def test_feasible_sets_on_lifted_max_id(self):
        """Feasible sets of an adaptive protocol: a received 0 in the
        elimination round rules out every id with a 1 in that bit
        position (among still-candidate ids)."""
        task = MaxIdTask(2, id_bits=2)
        lifted = formalize_protocol(
            task.noiseless_protocol(), [range(4)] * 2
        )
        # pi = (0,): round 0 silent, so nobody's MSB is 1 -> ids {0, 1}.
        assert set(feasible_set(lifted, 0, (0,))) == {0, 1}

    def test_analyzer_runs_on_lifted_protocol(self):
        task = ParityTask(2)
        lifted = formalize_protocol(
            task.noiseless_protocol(), [(0, 1)] * 2
        )
        analyzer = LowerBoundAnalyzer(
            lifted, NoiseModel.one_sided(1 / 3)
        )
        summary = analyzer.summary(reference=lambda x: sum(x) & 1)
        assert abs(summary.total_mass - 1.0) < 1e-9
        assert 0.0 <= summary.correctness_probability <= 1.0
