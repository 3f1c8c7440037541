"""The per-transcript beep table against a brute-force reference.

Every reference below calls ``protocol.broadcast(i, x_i, pi[:m])`` directly,
once per use, exactly as the Appendix C formulas read: no table, no cache.
The table-backed methods must agree bitwise (``==``, not approx), including
across an A, B, A sequence of transcripts on one protocol object, which a
stale one-entry cache would get wrong.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import formalize_protocol
from repro.core.formal import NoiseModel, RoundPartition
from repro.lowerbound.feasible import feasible_set
from repro.lowerbound.zeta import LowerBoundAnalyzer, ZetaPoint
from repro.tasks import MaxIdTask
from repro.tasks.input_set import input_set_formal_protocol

# ----------------------------------------------------------------------
# Brute-force reference
# ----------------------------------------------------------------------


def ref_beeps(protocol, x, pi):
    return [
        tuple(
            protocol.broadcast(i, x[i], pi[:m])
            for i in range(protocol.n_parties)
        )
        for m in range(len(pi))
    ]


def ref_beep_set(protocol, x, pi, m):
    return frozenset(
        i
        for i in range(protocol.n_parties)
        if protocol.broadcast(i, x[i], pi[:m]) == 1
    )


def ref_round_partition(protocol, x, pi):
    partition = RoundPartition()
    for m, row in enumerate(ref_beeps(protocol, x, pi)):
        beepers = [i for i, bit in enumerate(row) if bit == 1]
        if pi[m] == 0:
            partition.zeros.append(m)
        elif not beepers:
            partition.phantom_ones.append(m)
        elif len(beepers) == 1:
            partition.lonely.setdefault(beepers[0], []).append(m)
        else:
            partition.crowded.append(m)
    return partition


def ref_transcript_probability(protocol, x, pi, noise):
    probability = 1.0
    for m, row in enumerate(ref_beeps(protocol, x, pi)):
        or_value = 1 if any(row) else 0
        probability *= noise.round_probability(or_value, pi[m])
        if probability == 0.0:
            return 0.0
    return probability


def ref_feasible_set(protocol, party, prefix):
    return tuple(
        y
        for y in protocol.input_spaces[party]
        if all(
            protocol.broadcast(party, y, prefix[:j]) == 0
            for j, bit in enumerate(prefix)
            if bit == 0
        )
    )


def ref_zeta_point(analyzer, x, pi):
    protocol = analyzer.protocol
    n = protocol.n_parties
    weight = protocol.input_probability()

    def joint(inputs):
        return weight * ref_transcript_probability(
            protocol, inputs, pi, analyzer.noise
        )

    counts = {}
    for value in x:
        counts[value] = counts.get(value, 0) + 1
    unique = frozenset(i for i, value in enumerate(x) if counts[value] == 1)
    threshold = math.sqrt(n)
    large = frozenset(
        i
        for i in range(n)
        if len(ref_feasible_set(protocol, i, pi)) > threshold
    )
    good = unique & large
    probability = joint(x)
    z_value = 0.0
    zeta = 0.0
    if probability != 0.0:
        for party in good:
            feasible = ref_feasible_set(protocol, party, pi)
            if not feasible:
                continue
            mass = 0.0
            for y in feasible:
                mass += joint(x[:party] + (y,) + x[party + 1 :])
            z_value += mass / len(feasible)
        zeta = math.inf if z_value == 0.0 else probability / z_value
    return ZetaPoint(
        inputs=x,
        pi=pi,
        probability=probability,
        z_value=z_value,
        zeta=zeta,
        good=good,
        in_good_event=len(good) >= analyzer.good_fraction * n,
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


def _lifted_max_id():
    """Adaptive max-id election, lifted by operational replay."""
    return formalize_protocol(
        MaxIdTask(2, id_bits=2).noiseless_protocol(), [range(4)] * 2
    )


protocols = st.one_of(
    st.builds(
        input_set_formal_protocol,
        n_parties=st.sampled_from([2, 3, 4]),
        repetitions=st.integers(min_value=1, max_value=3),
        decision=st.sampled_from(["majority", "unanimous"]),
    ),
    st.builds(_lifted_max_id),
)

noises = st.sampled_from(
    [
        NoiseModel.one_sided(1.0 / 3.0),
        NoiseModel.two_sided(0.2),
        NoiseModel.suppression(0.25),
        NoiseModel(up=0.1, down=0.3),
    ]
)


def draw_inputs(data, protocol):
    return tuple(
        data.draw(st.sampled_from(space)) for space in protocol.input_spaces
    )


def draw_transcript(data, protocol, x, noise):
    """Either arbitrary bits or a positive-probability transcript of ``x``
    (each round's OR, flipped only where ``noise`` allows it)."""
    length = protocol.length()
    if data.draw(st.booleans()):
        return tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=1),
                    min_size=length,
                    max_size=length,
                )
            )
        )
    pi = []
    for m in range(length):
        or_value = 1 if ref_beep_set(protocol, x, pi, m) else 0
        can_flip = noise.down > 0 if or_value else noise.up > 0
        flip = can_flip and data.draw(st.booleans())
        pi.append(or_value ^ flip)
    return tuple(pi)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_matches_reference_on_a_b_a(data):
    protocol = data.draw(protocols)
    noise = data.draw(noises)
    analyzer = LowerBoundAnalyzer(protocol, noise)
    x = draw_inputs(data, protocol)
    a = draw_transcript(data, protocol, x, noise)
    b = draw_transcript(data, protocol, x, noise)
    for pi in (a, b, a):
        assert protocol.transcript_probability(
            x, pi, noise
        ) == ref_transcript_probability(protocol, x, pi, noise)
        assert protocol.beeps(x, pi) == ref_beeps(protocol, x, pi)
        for m in range(len(pi)):
            assert protocol.beep_set(x, pi, m) == ref_beep_set(
                protocol, x, pi, m
            )
        assert protocol.round_partition(x, pi) == ref_round_partition(
            protocol, x, pi
        )
        for party in range(protocol.n_parties):
            assert feasible_set(protocol, party, pi) == ref_feasible_set(
                protocol, party, pi
            )
        assert analyzer.zeta_point(x, pi) == ref_zeta_point(analyzer, x, pi)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_feasible_sets_of_every_prefix(data):
    protocol = data.draw(protocols)
    noise = data.draw(noises)
    x = draw_inputs(data, protocol)
    pi = draw_transcript(data, protocol, x, noise)
    for k in range(len(pi) + 1):
        for party in range(protocol.n_parties):
            assert feasible_set(protocol, party, pi[:k]) == ref_feasible_set(
                protocol, party, pi[:k]
            )
