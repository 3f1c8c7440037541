"""Unit tests for the ζ progress measure (§C.2–C.3)."""

import math

import pytest

from repro.core.formal import NoiseModel
from repro.errors import ConfigurationError
from repro.lowerbound import theory
from repro.lowerbound.zeta import LowerBoundAnalyzer
from repro.tasks.input_set import input_set_formal_protocol

ONE_SIDED = NoiseModel.one_sided(1.0 / 3.0)


@pytest.fixture(scope="module")
def analyzer_n2():
    return LowerBoundAnalyzer(input_set_formal_protocol(2), ONE_SIDED)


class TestJointProbability:
    def test_consistent_transcript(self, analyzer_n2):
        # x = (1, 2): rounds 1,2 have beeps -> forced 1; rounds 3,4 silent.
        probability = analyzer_n2.joint_probability((1, 2), (1, 1, 0, 0))
        assert probability == pytest.approx((1 / 16) * (2 / 3) ** 2)

    def test_impossible_transcript(self, analyzer_n2):
        # One-sided noise cannot erase the beep in round 1.
        assert analyzer_n2.joint_probability((1, 2), (0, 1, 0, 0)) == 0.0

    def test_total_mass_is_one(self, analyzer_n2):
        total = sum(
            point.probability for point in analyzer_n2.enumerate_points()
        )
        assert total == pytest.approx(1.0)


class TestZetaPoint:
    def test_zero_probability_gives_zero_zeta(self, analyzer_n2):
        point = analyzer_n2.zeta_point((1, 2), (0, 1, 0, 0))
        assert point.probability == 0.0
        assert point.zeta == 0.0

    def test_positive_point_has_positive_z(self, analyzer_n2):
        point = analyzer_n2.zeta_point((1, 2), (1, 1, 0, 0))
        assert point.probability > 0
        if point.good:
            assert point.z_value > 0
            assert point.zeta == pytest.approx(
                point.probability / point.z_value
            )

    def test_good_set_matches_direct_computation(self, analyzer_n2):
        point = analyzer_n2.zeta_point((1, 1), (1, 0, 0, 0))
        # Duplicated inputs: G1 empty, so G empty.
        assert point.good == frozenset()

    def test_empty_good_set_infinite_zeta(self, analyzer_n2):
        point = analyzer_n2.zeta_point((1, 1), (1, 0, 0, 0))
        assert point.probability > 0
        assert math.isinf(point.zeta)
        assert not point.in_good_event


class TestTheoremC2Pointwise:
    """Theorem C.2: ζ(x, π) ≤ (4/n)·3^{4T/n} on the event 𝒢."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_bound_holds_for_naive_protocol(self, n):
        protocol = input_set_formal_protocol(n)
        analyzer = LowerBoundAnalyzer(protocol, ONE_SIDED)
        bound = theory.c2_zeta_bound(n, protocol.length())
        worst = analyzer.max_zeta_in_good()
        assert worst <= bound * (1 + 1e-9)

    def test_bound_holds_for_repetition_protocol(self):
        protocol = input_set_formal_protocol(2, repetitions=2)
        analyzer = LowerBoundAnalyzer(protocol, ONE_SIDED)
        bound = theory.c2_zeta_bound(2, protocol.length())
        assert analyzer.max_zeta_in_good() <= bound * (1 + 1e-9)


class TestExpectations:
    def test_good_event_probability_in_unit_interval(self, analyzer_n2):
        probability = analyzer_n2.good_event_probability()
        assert 0.0 <= probability <= 1.0

    def test_conditional_expectation_nonnegative(self, analyzer_n2):
        assert analyzer_n2.expected_zeta_given_good() >= 0.0

    def test_correctness_probability_of_naive_protocol_is_low(self):
        """Running the noiseless protocol unprotected over one-sided
        ε = 1/3 noise succeeds rarely — the observation that motivates
        the whole coding question."""
        protocol = input_set_formal_protocol(2)
        analyzer = LowerBoundAnalyzer(protocol, ONE_SIDED)
        correctness = analyzer.correctness_probability(
            lambda x: frozenset(x)
        )
        # Success requires all >= 2 silent rounds to stay unflipped:
        assert correctness < 0.5

    def test_correctness_improves_with_repetitions(self):
        base = LowerBoundAnalyzer(
            input_set_formal_protocol(2), ONE_SIDED
        ).correctness_probability(lambda x: frozenset(x))
        hardened = LowerBoundAnalyzer(
            input_set_formal_protocol(2, repetitions=3), ONE_SIDED
        ).correctness_probability(lambda x: frozenset(x))
        assert hardened > base

    def test_noiseless_protocol_is_perfect_without_noise(self):
        analyzer = LowerBoundAnalyzer(
            input_set_formal_protocol(2), NoiseModel(up=0.0, down=0.0)
        )
        correctness = analyzer.correctness_probability(
            lambda x: frozenset(x)
        )
        assert correctness == pytest.approx(1.0)


class TestPinnedE5aSummaries:
    """E5a's exact summaries, recorded before the per-transcript beep
    table and asserted bitwise: the table must not move a single float."""

    # (n, repetitions) -> (Pr(G), E[zeta|G], max zeta, Pr[correct], mass)
    PINNED = {
        (2, 1): (
            0.7499999999999997,
            0.685714285714286,
            0.75,
            0.4074074074074076,
            0.9999999999999997,
        ),
        (2, 2): (
            0.750000000000002,
            0.8593984962405978,
            0.9,
            0.7681755829903986,
            1.0000000000000004,
        ),
        (2, 3): (
            0.7499999999999961,
            0.9476084890719083,
            0.9642857142857143,
            0.9187115785195252,
            0.99999999999999,
        ),
        (3, 1): (
            0.9722222222222172,
            0.8472063650635021,
            1.5000000000000002,
            0.25057155921353486,
            0.9999999999999966,
        ),
    }

    @pytest.mark.parametrize("instance", sorted(PINNED))
    def test_summary_is_bitwise_pinned(self, instance):
        n, repetitions = instance
        protocol = input_set_formal_protocol(
            n, repetitions=repetitions, decision="unanimous"
        )
        summary = LowerBoundAnalyzer(protocol, ONE_SIDED).summary(
            reference=frozenset
        )
        assert (
            summary.good_event_probability,
            summary.expected_zeta_given_good,
            summary.max_zeta_in_good,
            summary.correctness_probability,
            summary.total_mass,
        ) == self.PINNED[instance]


class TestAnalyzerValidation:
    def test_good_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            LowerBoundAnalyzer(
                input_set_formal_protocol(2), ONE_SIDED, good_fraction=0.0
            )
