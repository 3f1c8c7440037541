"""Property-based tests for batch-token equivalence.

The engine contract: a party yielding ``Burst(b, k)`` / ``Silence(k)`` is
*bitwise identical* to the same party yielding ``b`` for ``k`` consecutive
rounds — transcript columns, outputs, ``beeps_per_party`` and channel-stats
deltas all match, for every channel family, both ``record_sent`` modes, and
both runner backends.  Hypothesis generates random per-party mixes of
plain-bit rounds and batch tokens (all parties agreeing on the total round
count, as the lock-step model demands) and random channel seeds.  The
desugared side is also run through the seed reference loop
(:mod:`repro.core._legacy_engine`), so the property does not rest on the
engine agreeing with itself; a ``slow``-marked copy (``RUN_SLOW=1``)
draws 2,000 examples.

Wrappers that step an inner party inside their own rounds
(:class:`~repro.core.TruncatedProtocol`,
:class:`~repro.simulation.shared_reduction.OneSidedReductionProtocol`,
:func:`~repro.core.announce_input`,
:class:`~repro.core.SequentialProtocol`) must likewise run a token party
exactly as they run the same party yielding plain bits.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    BudgetedAdversaryChannel,
    BurstNoiseChannel,
    CorrectingAdversaryChannel,
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    ScriptedChannel,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro import SweepSpec, run_sweep_point
from repro.core import (
    Burst,
    Party,
    Protocol,
    SequentialProtocol,
    Silence,
    TruncatedProtocol,
    announce_input,
    run_protocol,
)
from repro.core._legacy_engine import legacy_run_protocol
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.simulation import ChunkCommitSimulator, RewindSimulator
from repro.simulation.primitives import batch_tokens
from repro.simulation.shared_reduction import OneSidedReductionProtocol
from repro.tasks import InputSetTask, ParityTask
from repro.tasks.input_set import input_set_formal_protocol

CHANNEL_FACTORIES = {
    "noiseless": lambda seed: NoiselessChannel(),
    "correlated": lambda seed: CorrelatedNoiseChannel(0.15, rng=seed),
    "one-sided": lambda seed: OneSidedNoiseChannel(1 / 3, rng=seed),
    "suppression": lambda seed: SuppressionNoiseChannel(0.2, rng=seed),
    "independent": lambda seed: IndependentNoiseChannel(0.15, rng=seed),
    "burst": lambda seed: BurstNoiseChannel(0.01, 0.5, 0.05, 0.2, rng=seed),
    "reduction": lambda seed: SharedFlipReductionChannel(rng=seed),
    "correcting": lambda seed: CorrectingAdversaryChannel(0.25, rng=seed),
    "budgeted": lambda seed: BudgetedAdversaryChannel(5, rng=seed),
    "scripted": lambda seed: ScriptedChannel([2, 5, 9]),
}


class _StepParty(Party):
    """Replays ``('bit', b)`` / ('burst', b, k)`` / ('silence', k)`` steps
    and outputs everything heard plus how it heard it."""

    def __init__(self, steps):
        self.steps = steps

    def run(self):
        heard = []
        for step in self.steps:
            kind = step[0]
            if kind == "bit":
                heard.append((yield step[1]))
            elif kind == "burst":
                heard.extend((yield Burst(step[1], step[2])))
            else:
                heard.extend((yield Silence(step[1])))
        return tuple(heard)


class _StepProtocol(Protocol):
    def __init__(self, scripts):
        super().__init__(len(scripts))
        self.scripts = scripts

    def create_parties(self, inputs, shared_seed=None):
        return [_StepParty(steps) for steps in self.scripts]


def _desugar_steps(steps):
    """The per-round ('bit', b) expansion of a step list."""
    flat = []
    for step in steps:
        if step[0] == "bit":
            flat.append(("bit", step[1]))
        elif step[0] == "burst":
            flat.extend([("bit", step[1])] * step[2])
        else:
            flat.extend([("bit", 0)] * step[1])
    return flat


@st.composite
def token_scripts(draw):
    """A party count and per-party step lists covering one shared total
    round count, with a random mix of bits and tokens per party."""
    n = draw(st.integers(min_value=1, max_value=5))
    total = draw(st.integers(min_value=1, max_value=24))
    scripts = []
    for _ in range(n):
        steps = []
        remaining = total
        while remaining > 0:
            kind = draw(st.sampled_from(["bit", "burst", "silence"]))
            if kind == "bit":
                steps.append(("bit", draw(st.integers(0, 1))))
                remaining -= 1
            else:
                count = draw(st.integers(min_value=1, max_value=remaining))
                if kind == "burst":
                    steps.append(("burst", draw(st.integers(0, 1)), count))
                else:
                    steps.append(("silence", count))
                remaining -= count
        scripts.append(steps)
    return scripts


def _assert_bitwise_equal(tokened, desugared):
    assert tokened.outputs == desugared.outputs
    assert tokened.rounds == desugared.rounds
    assert tokened.beeps_per_party == desugared.beeps_per_party
    assert tokened.channel_stats == desugared.channel_stats
    token_t, plain_t = tokened.transcript, desugared.transcript
    assert len(token_t) == len(plain_t)
    assert token_t.or_values() == plain_t.or_values()
    assert token_t.noisy_count == plain_t.noisy_count
    assert token_t.noise_positions() == plain_t.noise_positions()
    for party in range(token_t.n_parties):
        assert token_t.view(party) == plain_t.view(party)


def _check_engine_equivalence(scripts, channel_name, seed, record_sent):
    """Tokened and desugared scripts through the engine, and the desugared
    scripts through the seed reference loop, which shares no code with
    the engine's scheduler: all three are bitwise equal."""
    make_channel = CHANNEL_FACTORIES[channel_name]
    inputs = [None] * len(scripts)
    plain = [_desugar_steps(s) for s in scripts]
    tokened = run_protocol(
        _StepProtocol(scripts),
        inputs,
        make_channel(seed),
        record_sent=record_sent,
    )
    desugared = run_protocol(
        _StepProtocol(plain),
        inputs,
        make_channel(seed),
        record_sent=record_sent,
    )
    reference = legacy_run_protocol(
        _StepProtocol(plain),
        inputs,
        make_channel(seed),
        record_sent=record_sent,
    )
    _assert_bitwise_equal(tokened, desugared)
    _assert_bitwise_equal(tokened, reference)
    if record_sent:
        for party in range(len(scripts)):
            sent = tokened.transcript.sent_bits(party)
            assert sent == desugared.transcript.sent_bits(party)
            assert sent == reference.transcript.sent_bits(party)


ENGINE_CASES = given(
    scripts=token_scripts(),
    channel_name=st.sampled_from(sorted(CHANNEL_FACTORIES)),
    seed=st.integers(min_value=0, max_value=2**16),
    record_sent=st.booleans(),
)


class TestTokenDesugarEquivalence:
    @ENGINE_CASES
    @settings(max_examples=120, deadline=None)
    def test_engine_equivalence(
        self, scripts, channel_name, seed, record_sent
    ):
        _check_engine_equivalence(scripts, channel_name, seed, record_sent)

    @pytest.mark.slow
    @ENGINE_CASES
    @settings(max_examples=2000, deadline=None)
    def test_engine_equivalence_slow(
        self, scripts, channel_name, seed, record_sent
    ):
        _check_engine_equivalence(scripts, channel_name, seed, record_sent)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        epsilon=st.sampled_from([0.0, 0.05, 0.15]),
    )
    @settings(max_examples=10, deadline=None)
    def test_simulation_equivalence(self, seed, epsilon):
        # The primitives' token emission end to end through a simulator.
        task = ParityTask(4)
        inputs = [1, 0, 1, 0]

        def simulate():
            return ChunkCommitSimulator().simulate(
                task.noiseless_protocol(),
                inputs,
                CorrelatedNoiseChannel(epsilon, rng=seed),
                shared_seed=seed + 1,
            )

        tokened = simulate()
        with batch_tokens(False):
            desugared = simulate()
        _assert_bitwise_equal(tokened, desugared)


class TestTokenRunnerBackends:
    def test_sweep_points_identical_across_backends_and_modes(self):
        # Token mode across both runner backends, and serial desugared:
        # all three sweep points must be identical.  (Pool workers run in
        # fresh interpreters where the primitives default to token mode.)
        task = ParityTask(4)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.05),
            simulator=SimulatorSpec.of(ChunkCommitSimulator),
        )
        spec = SweepSpec(trials=4, seed=17)
        serial_tokens = run_sweep_point(task, executor, spec)
        with batch_tokens(False):
            serial_plain = run_sweep_point(task, executor, spec)
        with ProcessPoolRunner(workers=2) as runner:
            pool_tokens = run_sweep_point(
                task, executor, SweepSpec(trials=4, seed=17, runner=runner)
            )
        assert serial_tokens.to_dict() == serial_plain.to_dict()
        assert serial_tokens.to_dict() == pool_tokens.to_dict()

    def test_serial_runner_explicit(self):
        task = ParityTask(3)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(SuppressionNoiseChannel, 0.1),
            simulator=SimulatorSpec.of(RewindSimulator),
        )
        spec_a = SweepSpec(trials=3, seed=5, runner=SerialRunner())
        spec_b = SweepSpec(trials=3, seed=5, runner=SerialRunner())
        tokens = run_sweep_point(task, executor, spec_a)
        with batch_tokens(False):
            plain = run_sweep_point(task, executor, spec_b)
        assert tokens.to_dict() == plain.to_dict()


def _token_and_bit_forms(n_parties, repetitions=1):
    """``input_set_formal_protocol`` twice: as batch-token parties, and
    with its schedule switched off, as plain-bit parties."""
    tokens = input_set_formal_protocol(n_parties, repetitions)
    bits = input_set_formal_protocol(n_parties, repetitions)
    bits.schedule = None
    return tokens, bits


def _wrapped_runs(wrap, n_parties, channel, seed, repetitions=1):
    """``wrap`` over the token form and over the bit form, each run on a
    fresh copy of the channel with the same inputs and shared seed."""
    inputs = InputSetTask(n_parties).sample_inputs(random.Random(seed))
    return [
        run_protocol(
            wrap(protocol),
            inputs,
            CHANNEL_FACTORIES[channel](seed),
            shared_seed=seed,
        )
        for protocol in _token_and_bit_forms(n_parties, repetitions)
    ]


class TestWrappersStepTokens:
    def test_truncation_counts_rounds_inside_a_token(self):
        # A token used to count as one round of the budget.
        tokens, bits = _wrapped_runs(
            lambda inner: TruncatedProtocol(inner, 3), 4, "noiseless", 1
        )
        assert tokens.rounds == 3
        _assert_bitwise_equal(tokens, bits)

    def test_reduction_draws_a_coin_per_token_round(self):
        # A token used to draw one coin, and its heard 1s were never
        # down-flipped: the outputs were {2, 3, 5}.
        tokens, bits = _wrapped_runs(
            lambda inner: OneSidedReductionProtocol(inner, p_down=0.99),
            4,
            "noiseless",
            5,
        )
        assert tokens.outputs == [frozenset()] * 4
        _assert_bitwise_equal(tokens, bits)

    @given(
        n_parties=st.integers(min_value=1, max_value=5),
        repetitions=st.integers(min_value=1, max_value=3),
        wrapper=st.sampled_from(
            ["truncated", "reduction", "announce", "sequential"]
        ),
        budget=st.integers(min_value=0, max_value=40),
        channel=st.sampled_from(sorted(CHANNEL_FACTORIES)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_wrapped_tokens_equal_wrapped_bits(
        self, n_parties, repetitions, wrapper, budget, channel, seed
    ):
        width = math.ceil(math.log2(2 * n_parties + 1))
        wrap = {
            "truncated": lambda inner: TruncatedProtocol(inner, budget),
            "reduction": OneSidedReductionProtocol,
            "announce": lambda inner: announce_input(inner, width=width),
            "sequential": lambda inner: SequentialProtocol(inner, inner),
        }[wrapper]
        tokens, bits = _wrapped_runs(
            wrap, n_parties, channel, seed, repetitions
        )
        _assert_bitwise_equal(tokens, bits)
