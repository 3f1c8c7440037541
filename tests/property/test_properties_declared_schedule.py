"""Property tests for declared beep schedules and the collapsed schemes
that read them.

``input_set_formal_protocol``, ``parity_noiseless_protocol`` and
``or_noiseless_protocol`` declare beep schedules
(:attr:`~repro.core.formal.FormalProtocol.schedule`): ``schedule(i, y)``
is an int whose bit ``m`` is party ``i``'s round-``m`` beep on input
``y``, whatever it heard.  Four contracts are checked here:

* the declared schedule agrees with ``broadcast`` on random received
  prefixes, for random ``n`` (and InputSet's ``repetitions`` and
  ``decision``), InputSet's inputs outside ``[2n]`` included;
* reassigning ``broadcast`` switches the schedule off, and setting a new
  schedule binds it to the current ``broadcast``;
* every collapsed scheme gives bitwise the same result — outputs, rounds,
  per-party energy, channel statistics and report, or the same error —
  reading the schedule as it does running the same protocol's
  coroutines with the schedule switched off, and as the scalar
  ``simulate`` does stepping the protocol's batch-token parties, on every
  shared-bit channel family and under per-party noise;
* the same three-sided equality holds over the wrappers
  (``announce_input``, ``SequentialProtocol``, ``TruncatedProtocol``,
  ``OneSidedReductionProtocol`` and ``formalize_protocol``, each around
  InputSet's token parties) and the parity, OR and max-id task
  protocols: both forms step every unscheduled inner party with
  :class:`~repro.core.party.InnerReplay`.
"""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    BurstNoiseChannel,
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    SuppressionNoiseChannel,
)
from repro.core import (
    FormalProtocol,
    SequentialProtocol,
    TruncatedProtocol,
    announce_input,
    formalize_protocol,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    OneSidedReductionProtocol,
    RepetitionSimulator,
    RewindSimulator,
    SimulationParameters,
)
from repro.tasks import InputSetTask, MaxIdTask, OrTask, ParityTask
from repro.tasks.input_set import input_set_formal_protocol
from repro.tasks.or_task import or_noiseless_protocol
from repro.tasks.parity import parity_noiseless_protocol
from repro.vectorized import (
    simulate_chunked,
    simulate_hierarchical,
    simulate_repetition,
    simulate_rewind,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def input_set_constructors(draw, max_parties=6):
    """A zero-argument call of ``input_set_formal_protocol`` at a random
    size, repetition factor and decision rule."""
    return partial(
        input_set_formal_protocol,
        draw(st.integers(min_value=1, max_value=max_parties)),
        repetitions=draw(st.integers(min_value=1, max_value=3)),
        decision=draw(st.sampled_from(["majority", "unanimous"])),
    )


@st.composite
def bit_task_constructors(draw, max_parties=6):
    """A zero-argument call of the parity or OR protocol at a random
    size."""
    make = st.sampled_from([parity_noiseless_protocol, or_noiseless_protocol])
    return partial(
        draw(make), draw(st.integers(min_value=1, max_value=max_parties))
    )


@settings(max_examples=80, deadline=None)
@given(
    make_protocol=st.one_of(input_set_constructors(), bit_task_constructors()),
    data=st.data(),
)
def test_declared_schedule_agrees_with_broadcast(make_protocol, data):
    protocol = make_protocol()
    length = protocol.length()
    received = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=length,
            max_size=length,
        )
    )
    schedule = protocol.schedule
    assert schedule is not None
    if make_protocol.func is input_set_formal_protocol:
        values = range(0, 2 * protocol.n_parties + 2)  # [2n], both sides
    else:
        values = (0, 1)  # parity and OR take one bit
    for party in range(protocol.n_parties):
        for value in values:
            mask = schedule(party, value)
            assert 0 <= mask < 1 << length
            for m in range(length):
                bit = protocol.broadcast(party, value, received[:m])
                assert (mask >> m) & 1 == bit, (party, value, m)


@settings(max_examples=40, deadline=None)
@given(make_protocol=input_set_constructors())
def test_reassigned_broadcast_switches_the_schedule_off(make_protocol):
    protocol = make_protocol()
    schedule = protocol.schedule
    original = protocol.broadcast

    def wrapped(party, value, prefix):
        return original(party, value, prefix)

    protocol.broadcast = wrapped
    assert protocol.schedule is None
    # Putting the bound broadcast back restores it; a schedule set now
    # binds the current broadcast.
    protocol.broadcast = original
    assert protocol.schedule is schedule
    protocol.broadcast = wrapped
    protocol.schedule = schedule
    assert protocol.schedule is schedule


CHANNELS = {
    "noiseless": lambda seed: NoiselessChannel(),
    "correlated": lambda seed: CorrelatedNoiseChannel(0.2, rng=seed),
    "one-sided": lambda seed: OneSidedNoiseChannel(0.25, rng=seed),
    "suppression": lambda seed: SuppressionNoiseChannel(0.3, rng=seed),
    "burst": lambda seed: BurstNoiseChannel(0.01, 0.5, 0.05, 0.3, rng=seed),
    "independent": lambda seed: IndependentNoiseChannel(0.15, rng=seed),
}

SCHEMES = {
    "chunk": (simulate_chunked, ChunkCommitSimulator()),
    "chunk-short": (
        simulate_chunked,
        ChunkCommitSimulator(
            SimulationParameters(
                chunk_length=3, repetitions=3, attempt_slack=2.0
            )
        ),
    ),
    "hierarchical": (simulate_hierarchical, HierarchicalSimulator()),
    "rewind": (simulate_rewind, RewindSimulator()),
    "rewind-tight": (
        simulate_rewind,
        RewindSimulator(SimulationParameters(rewind_budget_factor=1.3)),
    ),
    "repetition": (simulate_repetition, RepetitionSimulator()),
}


def _outcome(run, protocol, inputs, channel, **kwargs):
    """The whole result as a dict, or the raised error."""
    try:
        return run(protocol, inputs, channel, **kwargs).to_dict()
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return (type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(
    make_protocol=input_set_constructors(max_parties=8),
    scheme=st.sampled_from(sorted(SCHEMES)),
    channel_name=st.sampled_from(sorted(CHANNELS)),
    seed=seeds,
)
def test_schedule_replay_equals_coroutine_replay(
    make_protocol, scheme, channel_name, seed
):
    collapsed, simulator = SCHEMES[scheme]
    scheduled = make_protocol()
    coroutines = make_protocol()
    coroutines.schedule = None
    inputs = InputSetTask(scheduled.n_parties).sample_inputs(
        random.Random(seed)
    )
    make_channel = CHANNELS[channel_name]
    expected = _outcome(
        partial(collapsed, simulator), scheduled, inputs, make_channel(seed)
    )
    assert expected == _outcome(
        partial(collapsed, simulator), coroutines, inputs, make_channel(seed)
    )
    assert expected == _outcome(
        simulator.simulate, scheduled, inputs, make_channel(seed)
    )


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scalar_simulators_wrap_the_token_protocol(scheme):
    """The scalar ``simulate`` steps the protocol's batch-token parties
    (it used to reject them with "expected a bit" or a desync) and
    matches the collapsed form."""
    collapsed, simulator = SCHEMES[scheme]
    protocol = input_set_formal_protocol(4)
    inputs = InputSetTask(4).sample_inputs(random.Random(3))
    channel_type = (
        SuppressionNoiseChannel
        if scheme.startswith("rewind")
        else CorrelatedNoiseChannel
    )
    scalar = simulator.simulate(protocol, inputs, channel_type(0.2, rng=3))
    assert scalar.outputs == [frozenset(inputs)] * 4
    assert scalar.to_dict() == collapsed(
        simulator, protocol, inputs, channel_type(0.2, rng=3)
    ).to_dict()


def _task_case(task_type, **kwargs):
    def case(n, rng):
        task = task_type(n, **kwargs)
        return task.noiseless_protocol(), task.sample_inputs(rng)

    return case


def _input_set_case(wrap):
    def case(n, rng):
        inner = input_set_formal_protocol(n)
        return wrap(inner, n), InputSetTask(n).sample_inputs(rng)

    return case


#: ``name -> case(n, rng) -> (protocol, inputs)``.  The wrappers each
#: wrap InputSet's token parties; the tasks are parity and OR (declared
#: schedules) and max-id (adaptive).
CASES = {
    "announce-input": _input_set_case(
        lambda inner, n: announce_input(inner, width=(2 * n).bit_length())
    ),
    "sequential": lambda n, rng: (
        SequentialProtocol(
            input_set_formal_protocol(n),
            MaxIdTask(n, id_bits=(2 * n).bit_length()).noiseless_protocol(),
        ),
        # Distinct inputs in [2n]: valid for InputSet and max-id.
        rng.sample(range(1, 2 * n + 1), n),
    ),
    "truncated": lambda n, rng: (
        # Cut inside a repeated round: the budget counts token rounds.
        TruncatedProtocol(input_set_formal_protocol(n, repetitions=2), 3 * n),
        InputSetTask(n).sample_inputs(rng),
    ),
    "one-sided-reduction": _input_set_case(
        lambda inner, n: OneSidedReductionProtocol(inner)
    ),
    "formalized": _input_set_case(
        lambda inner, n: formalize_protocol(
            inner, [range(1, 2 * n + 1)] * n
        )
    ),
    "parity": _task_case(ParityTask),
    "or": _task_case(OrTask),
    "max-id": _task_case(MaxIdTask, id_bits=4),
}


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    n=st.integers(min_value=1, max_value=5),
    scheme=st.sampled_from(sorted(SCHEMES)),
    channel_name=st.sampled_from(sorted(CHANNELS)),
    seed=seeds,
)
def test_collapsed_schemes_equal_scalar_simulate(
    case, n, scheme, channel_name, seed
):
    """Scalar ``simulate`` and the collapsed form agree bitwise (or raise
    the same error) over every wrapper and task protocol; a scheduled
    protocol's collapsed form also agrees with the schedule switched
    off."""
    collapsed, simulator = SCHEMES[scheme]
    protocol, inputs = CASES[case](n, random.Random(seed))
    make_channel = CHANNELS[channel_name]
    # OneSidedReductionProtocol draws its coins from the shared seed.
    expected = _outcome(
        simulator.simulate,
        protocol,
        inputs,
        make_channel(seed),
        shared_seed=seed,
    )
    run = partial(collapsed, simulator)
    assert expected == _outcome(
        run, protocol, inputs, make_channel(seed), shared_seed=seed
    )
    if isinstance(protocol, FormalProtocol) and protocol.schedule is not None:
        protocol.schedule = None
        assert expected == _outcome(
            run, protocol, inputs, make_channel(seed), shared_seed=seed
        )
