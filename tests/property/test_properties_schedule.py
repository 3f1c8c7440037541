"""Property tests for beep schedules of non-adaptive formal protocols.

``input_set_formal_protocol`` carries a beep schedule: one int mask per
(party, input), bit ``m`` being ``f_m^i(y, π_{<m})`` for every ``π``.  Two
contracts are checked against references that never read the schedule:

* the schedule equals the brute-force mask built from ``broadcast`` on any
  transcript, and so do the :class:`~repro.core.formal.BeepTable` masks
  and feasibility bits read off it;
* running the protocol on its schedule (batch-token parties, the engine's
  sparse scheduler) is bitwise identical to running the same functions
  through :class:`~repro.core.party.FunctionalParty` round by round:
  transcript columns with ``record_sent`` on and off, outputs,
  ``beeps_per_party``, channel statistics and the channel's noise state
  afterwards.  The correlated, one-sided and suppression channels cover
  the shared-view sparse path, the independent channel the word path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.core import FunctionalParty, run_protocol
from repro.core.formal import FormalProtocol
from repro.tasks.input_set import input_set_formal_protocol

CHANNELS = {
    "correlated": lambda seed: CorrelatedNoiseChannel(0.2, rng=seed),
    "one-sided": lambda seed: OneSidedNoiseChannel(1 / 3, rng=seed),
    "suppression": lambda seed: SuppressionNoiseChannel(0.25, rng=seed),
    "independent": lambda seed: IndependentNoiseChannel(0.15, rng=seed),
}


@st.composite
def scheduled_protocols(draw):
    return input_set_formal_protocol(
        draw(st.integers(min_value=2, max_value=6)),
        repetitions=draw(st.integers(min_value=1, max_value=4)),
        decision=draw(st.sampled_from(["majority", "unanimous"])),
    )


def _unscheduled(protocol):
    """The same broadcast and output functions, without a schedule."""
    return FormalProtocol(
        protocol.n_parties,
        protocol.length(),
        protocol.input_spaces,
        protocol.broadcast,
        protocol.output,
    )


def _brute_force_mask(protocol, party, value, pi):
    return sum(
        protocol.broadcast(party, value, pi[:m]) << m for m in range(len(pi))
    )


def _noise_state(channel):
    return (
        channel._rng.getstate(),
        channel._noise_pos,
        list(channel._noise_floats),
    )


def _columns(result):
    """Every column (and counter) of the result's transcript."""
    return vars(result.transcript)


@settings(max_examples=60, deadline=None)
@given(protocol=scheduled_protocols(), data=st.data())
def test_schedule_is_the_brute_force_mask(protocol, data):
    length = protocol.length()
    pi = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=1),
                min_size=length,
                max_size=length,
            )
        )
    )
    reference = _unscheduled(protocol)
    for k in (length, data.draw(st.integers(min_value=0, max_value=length))):
        prefix = pi[:k]
        table = protocol.beep_table(prefix)
        plain = reference.beep_table(prefix)
        assert table.schedule is not None and plain.schedule is None
        for party in range(protocol.n_parties):
            for value in protocol.input_spaces[party]:
                expected = _brute_force_mask(protocol, party, value, prefix)
                if k == length:
                    assert protocol.schedule(party, value) == expected
                assert table.mask(party, value) == expected
                assert plain.mask(party, value) == expected
                assert table.feasible(party, value) == plain.feasible(
                    party, value
                )


@settings(max_examples=80, deadline=None)
@given(
    protocol=scheduled_protocols(),
    channel_name=st.sampled_from(sorted(CHANNELS)),
    seed=st.integers(min_value=0, max_value=2**16),
    record_sent=st.booleans(),
    data=st.data(),
)
def test_scheduled_run_equals_functional_parties(
    protocol, channel_name, seed, record_sent, data
):
    inputs = tuple(
        data.draw(st.sampled_from(space)) for space in protocol.input_spaces
    )
    reference = _unscheduled(protocol)
    assert all(
        isinstance(party, FunctionalParty)
        for party in reference.create_parties(inputs)
    )
    assert not any(
        isinstance(party, FunctionalParty)
        for party in protocol.create_parties(inputs)
    )
    make_channel = CHANNELS[channel_name]
    scheduled_channel = make_channel(seed)
    functional_channel = make_channel(seed)
    scheduled = run_protocol(
        protocol, inputs, scheduled_channel, record_sent=record_sent
    )
    functional = run_protocol(
        reference, inputs, functional_channel, record_sent=record_sent
    )
    assert scheduled.outputs == functional.outputs
    assert scheduled.rounds == functional.rounds == protocol.length()
    assert scheduled.beeps_per_party == functional.beeps_per_party
    assert scheduled.channel_stats == functional.channel_stats
    assert _columns(scheduled) == _columns(functional)
    assert _noise_state(scheduled_channel) == _noise_state(functional_channel)
