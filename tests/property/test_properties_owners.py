"""Property-based tests for the finding-owners phase (Theorem D.1), and
for its party-collapsed form :func:`repro.vectorized.simulate_owners`
against the scalar engine."""

import random
from dataclasses import replace

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
from repro.coding import (
    HadamardCode,
    MinDistanceDecoder,
    MLDecoder,
    RepetitionCode,
)
from repro.core import run_protocol
from repro.core.formal import NoiseModel
from repro.errors import ConfigurationError, ProtocolError
from repro.network import complete  # noqa: F401  (documents availability)
from repro.simulation.owners import (
    OwnersProtocol,
    build_owners_code,
    owners_decoder,
    position_symbol,
)
from repro.vectorized import CHANNEL_KINDS, FlipStream, simulate_owners
from repro.vectorized import schemes

NOISELESS = NoiseModel(up=0.0, down=0.0)

beep_matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=n, max_size=n
        ),
        min_size=n,
        max_size=n,
    )
)


@st.composite
def matrices_with_phantoms(draw):
    """A beep matrix plus a transcript with extra (phantom) ones."""
    n = draw(st.integers(min_value=2, max_value=5))
    bits = [
        tuple(
            draw(st.integers(min_value=0, max_value=1)) for _ in range(n)
        )
        for _ in range(n)
    ]
    pi = [max(column) for column in zip(*bits)]
    # Flip some zeros of pi up (phantom ones nobody beeped).
    for m in range(n):
        if pi[m] == 0 and draw(st.booleans()):
            pi[m] = 1
    return bits, tuple(pi)


class TestOwnersInvariants:
    @given(bits=beep_matrices)
    @settings(max_examples=30, deadline=None)
    def test_noiseless_owners_consistent_valid_covering(self, bits):
        n = len(bits)
        bits = [tuple(row) for row in bits]
        pi = tuple(max(column) for column in zip(*bits))
        protocol = OwnersProtocol(n, pi, NOISELESS)
        result = run_protocol(protocol, bits, NoiselessChannel())
        reference = result.outputs[0].owners
        # Theorem D.1, deterministically over a noiseless channel:
        assert all(out.owners == reference for out in result.outputs)
        for position, owner in reference.items():
            assert bits[owner][position] == 1
        assert set(reference) == {m for m in range(n) if pi[m] == 1}

    @given(data=matrices_with_phantoms())
    @settings(max_examples=30, deadline=None)
    def test_phantom_ones_stay_ownerless(self, data):
        """A 1 in π that nobody beeped can never acquire an owner — the
        detection property the verification phases build on (§2.1)."""
        bits, pi = data
        n = len(bits)
        protocol = OwnersProtocol(n, pi, NOISELESS)
        result = run_protocol(protocol, bits, NoiselessChannel())
        owners = result.outputs[0].owners
        for position in range(n):
            beeped = any(bits[i][position] for i in range(n))
            if pi[position] == 1 and not beeped:
                assert position not in owners
            if pi[position] == 1 and beeped:
                assert position in owners

    @given(bits=beep_matrices)
    @settings(max_examples=20, deadline=None)
    def test_claimed_by_me_partitions_owned_rounds(self, bits):
        """Each owned position is claimed by exactly its owner."""
        n = len(bits)
        bits = [tuple(row) for row in bits]
        pi = tuple(max(column) for column in zip(*bits))
        protocol = OwnersProtocol(n, pi, NOISELESS)
        result = run_protocol(protocol, bits, NoiselessChannel())
        owners = result.outputs[0].owners
        for position, owner in owners.items():
            for party, output in enumerate(result.outputs):
                if party == owner:
                    assert position in output.claimed_by_me
                else:
                    assert position not in output.claimed_by_me

    @given(
        bits=beep_matrices,
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_round_count_formula(self, bits, seed):
        """The phase costs exactly (|J| + n) · L rounds."""
        n = len(bits)
        bits = [tuple(row) for row in bits]
        pi = tuple(max(column) for column in zip(*bits))
        code = build_owners_code(n, seed=seed)
        protocol = OwnersProtocol(n, pi, NOISELESS, code=code)
        result = run_protocol(protocol, bits, NoiselessChannel())
        ones = sum(pi)
        assert result.rounds == (ones + n) * code.codeword_length


# ----------------------------------------------------------------------
# The party-collapsed owners phase against the scalar engine
# ----------------------------------------------------------------------

CHANNELS = {
    "noiseless": (
        lambda epsilon, seed: NoiselessChannel(rng=seed),
        lambda epsilon: NOISELESS,
    ),
    "correlated": (
        lambda epsilon, seed: CorrelatedNoiseChannel(epsilon, rng=seed),
        NoiseModel.two_sided,
    ),
    "one-sided": (
        lambda epsilon, seed: OneSidedNoiseChannel(epsilon, rng=seed),
        NoiseModel.one_sided,
    ),
    "suppression": (
        lambda epsilon, seed: SuppressionNoiseChannel(epsilon, rng=seed),
        NoiseModel.suppression,
    ),
    "burst": (
        lambda epsilon, seed: BurstNoiseChannel.matched_to(
            epsilon, burst_length=4.0, rng=seed
        ),
        NoiseModel.two_sided,
    ),
}


def _owners_code(family, n, seed):
    alphabet = position_symbol(n)
    if family == "greedy":
        return build_owners_code(n, rate_constant=8.0, seed=seed)
    if family == "hadamard":
        return HadamardCode(alphabet)
    return RepetitionCode(alphabet, repetitions=3)


def _channel_state(channel):
    """Everything the next draw depends on, burst chain included."""
    return (
        channel._rng.getstate(),
        channel._noise_pos,
        channel._noise_floats,
        getattr(channel, "burst_rounds", None),
        getattr(channel, "_in_burst", None),
    )


@st.composite
def owners_instances(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    bits = [
        tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(n))
        for _ in range(n)
    ]
    pi = [max(column) for column in zip(*bits)]
    # Occasionally a phantom one nobody beeped (a noise artifact).
    for m in range(n):
        if pi[m] == 0 and draw(st.integers(min_value=0, max_value=3)) == 0:
            pi[m] = 1
    return (
        bits,
        tuple(pi),
        draw(st.sampled_from(sorted(CHANNELS))),
        draw(st.sampled_from([0.05, 0.15, 0.3])),
        draw(st.sampled_from(["greedy", "hadamard", "repetition"])),
        draw(st.sampled_from(["ml", "min-distance"])),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


class TestSimulateOwnersEquivalence:
    @given(instance=owners_instances())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_run_protocol(self, instance):
        bits, pi, channel_name, epsilon, family, decoder_kind, seed = instance
        n = len(bits)
        make_channel, noise_model = CHANNELS[channel_name]
        code = _owners_code(family, n, seed % 1000)

        def protocol():
            built = OwnersProtocol(n, pi, noise_model(epsilon), code=code)
            if decoder_kind == "min-distance":
                built.decoder = MinDistanceDecoder(code)
            return built

        scalar_channel = make_channel(epsilon, seed)
        scalar = run_protocol(protocol(), bits, scalar_channel)
        collapsed_channel = make_channel(epsilon, seed)
        collapsed = simulate_owners(protocol(), bits, collapsed_channel)

        assert [
            (out.owners, out.claimed_by_me, out.iterations)
            for out in collapsed.outputs
        ] == [
            (out.owners, out.claimed_by_me, out.iterations)
            for out in scalar.outputs
        ]
        assert collapsed.rounds == scalar.rounds
        assert collapsed.channel_stats == scalar.channel_stats
        assert collapsed.beeps_per_party == scalar.beeps_per_party
        assert _channel_state(collapsed_channel) == _channel_state(
            scalar_channel
        )

    @given(
        bits=beep_matrices, seed=st.integers(min_value=0, max_value=10**6)
    )
    @settings(max_examples=20, deadline=None)
    def test_warm_shared_decoder_changes_nothing(self, bits, seed):
        """Trials decoded by the process-wide owners decoder (two noise
        laws over one code), each run cold and again after the other
        trials have warmed the memo (the decoders built, their decode
        memos filled by the scalar parties), give equal results on the
        scalar and the collapsed route."""
        n = len(bits)
        bits = [tuple(row) for row in bits]
        pi = tuple(max(column) for column in zip(*bits))
        laws = (NoiseModel.two_sided(0.2), NoiseModel.one_sided(0.2))
        runs = [(index, noise) for index in range(3) for noise in laws]

        def trial(index, noise):
            decoder = owners_decoder(n, 12.0, 0x5EED, noise)
            protocol = OwnersProtocol(n, pi, noise, decoder.code)
            protocol.decoder = decoder
            results = []
            for run in (run_protocol, simulate_owners):
                channel = CorrelatedNoiseChannel(0.2, rng=seed + index)
                result = run(protocol, bits, channel)
                results.append(replace(result, transcript=None))
            return results

        cold = []
        for index, noise in runs:
            owners_decoder.cache_clear()
            cold.append(trial(index, noise))
        assert [trial(index, noise) for index, noise in runs] == cold


#: The ten channel families of the cross-backend equivalence grid.  The
#: collapsed phase replays the five shared-bit ones and must refuse the
#: other five outright, never diverge from the scalar run.
ALL_FAMILIES = {
    "noiseless": lambda epsilon, seed: NoiselessChannel(rng=seed),
    "correlated": lambda epsilon, seed: CorrelatedNoiseChannel(
        epsilon, rng=seed
    ),
    "one-sided": lambda epsilon, seed: OneSidedNoiseChannel(
        epsilon, rng=seed
    ),
    "suppression": lambda epsilon, seed: SuppressionNoiseChannel(
        epsilon, rng=seed
    ),
    "independent": lambda epsilon, seed: IndependentNoiseChannel(
        epsilon, rng=seed
    ),
    "burst": lambda epsilon, seed: BurstNoiseChannel(
        0.01, 0.5, 0.05, 0.2, rng=seed
    ),
    "reduction": lambda epsilon, seed: SharedFlipReductionChannel(rng=seed),
    "correcting": lambda epsilon, seed: CorrectingAdversaryChannel(
        0.25, rng=seed
    ),
    "budgeted": lambda epsilon, seed: BudgetedAdversaryChannel(5),
    "scripted": lambda epsilon, seed: ScriptedChannel([3, 7, 11]),
}


def _replays(channel) -> bool:
    return type(channel) in CHANNEL_KINDS and channel.correlated


def _assert_speculation_exact(
    bits, pi, code, epsilon, family, seed, runner_flips
) -> None:
    """The collapsed, speculatively decoded owners phase against the
    scalar engine on the same family and seed: outputs, rounds, channel
    statistics, energy and the flip source's draws; afterwards a
    runner :class:`FlipStream` continues with the scalar channel's next
    indicator, and a channel that served its own flips is in the scalar
    channel's state."""
    n = len(bits)
    make = ALL_FAMILIES[family]
    scalar_channel = make(epsilon, seed)
    noise = NoiseModel.two_sided(epsilon)
    scalar = run_protocol(
        OwnersProtocol(n, pi, noise, code), bits, scalar_channel
    )
    channel = make(epsilon, seed)
    protocol = OwnersProtocol(n, pi, noise, code)
    if not _replays(channel):
        with pytest.raises(ConfigurationError):
            simulate_owners(protocol, bits, channel)
        return
    flips = schemes.flip_source(channel, copy_rng=runner_flips)
    collapsed = simulate_owners(protocol, bits, channel, flips=flips)
    assert [
        (out.owners, out.claimed_by_me, out.iterations)
        for out in collapsed.outputs
    ] == [
        (out.owners, out.claimed_by_me, out.iterations)
        for out in scalar.outputs
    ]
    assert collapsed.rounds == scalar.rounds
    assert collapsed.channel_stats == scalar.channel_stats
    assert collapsed.beeps_per_party == scalar.beeps_per_party
    stats = scalar.channel_stats
    up, down = channel.flips
    if flips is not None:
        assert flips.draws == up * (stats.rounds - stats.or_ones) + (
            down * stats.or_ones
        )
    if isinstance(flips, FlipStream):
        following = scalar_channel._threshold_run(64, 1, 0)
        assert flips.take(64).tolist() == list(following)
    else:
        assert _channel_state(channel) == _channel_state(scalar_channel)


class TestSpeculativeOwnersPhase:
    """Speculative batched decoding is the scalar phase, bitwise, over
    every channel family and both flip sources."""

    @given(
        instance=owners_instances(),
        family=st.sampled_from(sorted(ALL_FAMILIES)),
        runner_flips=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_the_scalar_phase(
        self, instance, family, runner_flips
    ):
        bits, pi, _, epsilon, _, _, seed = instance
        code = build_owners_code(len(bits), seed=seed % 1000)
        _assert_speculation_exact(
            bits, pi, code, epsilon, family, seed, runner_flips
        )

    def test_high_noise_short_code_resumes_after_misses(self, monkeypatch):
        """At ε = 0.3 with a short code, words often decode to another
        symbol than the one sent: the phase must re-plan from the miss
        row, and still equal the scalar run."""
        plans = _record_calls(monkeypatch, schemes, "_owners_plan")
        phases = _high_noise_phases()
        # One plan per phase when no word is ever misdecoded.
        assert len(plans) > phases

    def test_small_decode_blocks_stop_at_the_first_miss(self, monkeypatch):
        """A segment longer than one decode block decodes block by block
        and stops at the block holding the first miss; the phase still
        equals the scalar run."""
        monkeypatch.setattr(schemes, "_DECODE_CELLS", 1)
        plans = _record_calls(monkeypatch, schemes, "_owners_plan")
        blocks = _record_calls(
            monkeypatch, MLDecoder, "decode_batch"
        )
        _high_noise_phases()
        # One-row blocks: more decode calls than segments, fewer than
        # a decode of every planned row (a plan's last argument) takes.
        assert len(blocks) > len(plans)
        assert len(blocks) < sum(args[-1] for args in plans)


def _record_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` to record the arguments of each call."""
    calls = []
    wrapped = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def _high_noise_phases() -> int:
    """Check the speculative phase against the scalar one at ε = 0.3 with
    a short code (dense misses) over the noisy families and both flip
    sources; returns the number of phases run."""
    phases = 0
    for seed in range(6):
        n = 5
        rng = random.Random(seed)
        bits = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(n)]
        pi = tuple(max(column) for column in zip(*bits))
        code = build_owners_code(n, rate_constant=3.0, seed=seed)
        for family in ("correlated", "one-sided", "suppression", "burst"):
            for runner_flips in (False, True):
                _assert_speculation_exact(
                    bits, pi, code, 0.3, family, seed, runner_flips
                )
                phases += 1
    return phases


class TestSimulateOwnersErrors:
    def test_input_errors_match_the_scalar_engine(self):
        protocol = OwnersProtocol(3, (1, 0, 1), NOISELESS)
        for inputs in ([(1, 0, 1)] * 2, [(1, 0, 1), (1, 0), (0, 0, 1)]):
            with pytest.raises(ProtocolError) as scalar:
                run_protocol(protocol, inputs, NoiselessChannel())
            with pytest.raises(ProtocolError) as collapsed:
                simulate_owners(protocol, inputs, NoiselessChannel())
            assert str(collapsed.value) == str(scalar.value)

    def test_independent_noise_is_refused(self):
        protocol = OwnersProtocol(2, (1, 1), NoiseModel.two_sided(0.1))
        with pytest.raises(ConfigurationError, match="per-party views"):
            simulate_owners(
                protocol, [(1, 0), (0, 1)], IndependentNoiseChannel(0.1)
            )
