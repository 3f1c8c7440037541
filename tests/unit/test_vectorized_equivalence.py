"""Cross-backend equivalence: VectorizedRunner vs SerialRunner.

The vectorized backend's contract is *bitwise* agreement with the scalar
reference, per trial: same ``TrialRecord`` for the same ``(seed, index)``
regardless of backend.  These tests drive both runners over the full
channel-family grid (the ten families of ``test_legacy_equivalence``) and
all four registry simulators (repetition, chunk-commit, hierarchical,
rewind), for an adaptive inner protocol (max-id) and two that declare
their beep schedules (parity and InputSet), mirroring that suite's
structure:

* where the vectorized backend has a collapsed form (every scheme over
  the shared-bit channels, burst noise included, and repetition over
  independent noise), the records must match
  bitwise *and* the batch must actually have run collapsed (no silent
  fallback making the test vacuous);
* everywhere else the backend must take its scalar fallback and still
  produce identical records — including identical *exceptions* when a
  scheme rejects a channel family outright;
* sampled vectorized trials replay bitwise on the scalar engine from
  their ``(seed, index)`` alone — the replayability the determinism
  contract promises.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

import repro.vectorized.network as vnetwork
import repro.vectorized.schemes as vschemes

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
from repro.parallel import (
    ChannelSpec,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    run_trial,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.core.formal import FormalProtocol, NoiseModel
from repro.errors import ConfigurationError
from repro.network import (
    LocalBroadcastSimulator,
    MISTask,
    NetworkBeepingChannel,
    TopologySpec,
)
from repro.simulation import SimulationParameters
from repro.tasks import InputSetTask, MaxIdTask, ParityTask
from repro.vectorized import (
    CHANNEL_KINDS,
    VectorizedRunner,
    simulate_chunked,
    simulate_hierarchical,
    simulate_repetition,
    simulate_rewind,
)

# The ten channel families of test_legacy_equivalence, as picklable specs.
CHANNEL_SPECS = {
    "noiseless": ChannelSpec.of(NoiselessChannel, seed_kwarg=None),
    "correlated": ChannelSpec.of(CorrelatedNoiseChannel, 0.15),
    "one-sided": ChannelSpec.of(OneSidedNoiseChannel, 1 / 3),
    "suppression": ChannelSpec.of(SuppressionNoiseChannel, 0.2),
    "independent": ChannelSpec.of(IndependentNoiseChannel, 0.15),
    "burst": ChannelSpec.of(BurstNoiseChannel, 0.01, 0.5, 0.05, 0.2),
    "reduction": ChannelSpec.of(SharedFlipReductionChannel),
    "correcting": ChannelSpec.of(CorrectingAdversaryChannel, 0.25),
    "budgeted": ChannelSpec.of(BudgetedAdversaryChannel, 5, seed_kwarg=None),
    "scripted": ChannelSpec.of(
        ScriptedChannel, [3, 7, 11], seed_kwarg=None
    ),
}

SIMULATORS = {
    "repetition": SimulatorSpec.of(RepetitionSimulator),
    "chunk": SimulatorSpec.of(ChunkCommitSimulator),
    "hierarchical": SimulatorSpec.of(HierarchicalSimulator),
    "rewind": SimulatorSpec.of(RewindSimulator),
}

#: (simulator, channel) pairs the backend collapses — everything else
#: must take the scalar fallback.  All four registry simulators collapse
#: over the five shared-bit families, burst included (for hierarchical,
#: "collapsed" includes raising the same requires-a-correlated-channel
#: error the scalar scheme raises on families it rejects).  Under
#: independent noise only repetition replays; chunk, rewind and
#: hierarchical raise the scalar error, which the parity check covers.
COLLAPSED = {
    (simulator, channel)
    for simulator in ("chunk", "rewind", "repetition", "hierarchical")
    for channel in (
        "noiseless",
        "correlated",
        "one-sided",
        "suppression",
        "burst",
    )
} | {("repetition", "independent")}

TRIALS = 4


def _run(runner, task, executor, seed):
    """Records, or the raised exception (compared across backends)."""
    try:
        return runner.run_trials(task, executor, TRIALS, seed=seed).records
    except Exception as exc:  # noqa: BLE001 - parity is the assertion
        return (type(exc), str(exc))


#: The grid's tasks: max-id's inner protocol is adaptive (the collapsed
#: schemes step its parties); parity's and InputSet's declare beep
#: schedules (they read the sent bits off the schedule).
TASKS = {
    "max-id": partial(MaxIdTask, id_bits=4),
    "parity": ParityTask,
    "input-set": InputSetTask,
}


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("task_name", list(TASKS))
    @pytest.mark.parametrize("channel_name", sorted(CHANNEL_SPECS))
    @pytest.mark.parametrize("simulator_name", sorted(SIMULATORS))
    @pytest.mark.parametrize("n", [2, 5])
    def test_records_bitwise_equal(
        self, channel_name, simulator_name, n, task_name
    ):
        task = TASKS[task_name](n)
        executor = SimulationExecutor(
            task=task,
            channel=CHANNEL_SPECS[channel_name],
            simulator=SIMULATORS[simulator_name],
        )
        seed = 1000 * n + 7
        serial = _run(SerialRunner(), task, executor, seed)
        vectorized_runner = VectorizedRunner()
        vectorized = _run(vectorized_runner, task, executor, seed)
        assert vectorized == serial
        if isinstance(serial, tuple):
            return  # both raised identically; fallback state is moot
        if (simulator_name, channel_name) in COLLAPSED:
            assert vectorized_runner.last_fallback_reason is None
        else:
            assert vectorized_runner.last_fallback_reason is not None

    @pytest.mark.parametrize("task_name", ["parity", "input-set"])
    @pytest.mark.parametrize("simulator_name", sorted(SIMULATORS))
    def test_scheduled_protocol_runs_no_party(
        self, monkeypatch, simulator_name, task_name
    ):
        """A collapsed trial of a scheduled protocol reads the declared
        schedule: no inner party is ever created, so a silent fallback
        to stepping parties (or to the scalar engine) fails here."""
        task = TASKS[task_name](5)
        executor = SimulationExecutor(
            task=task,
            channel=CHANNEL_SPECS["suppression"],
            simulator=SIMULATORS[simulator_name],
        )
        serial = _run(SerialRunner(), task, executor, 31)

        def no_parties(self, inputs, shared_seed=None):
            raise AssertionError("a scheduled protocol's parties were run")

        monkeypatch.setattr(FormalProtocol, "create_parties", no_parties)
        runner = VectorizedRunner()
        assert _run(runner, task, executor, 31) == serial
        assert runner.last_fallback_reason is None

    @pytest.mark.parametrize("simulator_name", ["chunk", "rewind"])
    def test_sampled_trials_replay_on_scalar_engine(self, simulator_name):
        """Any trial a vectorized sweep records can be reproduced by the
        scalar ``run_trial`` from its ``(seed, index)`` alone."""
        task = ParityTask(3)
        executor = SimulationExecutor(
            task=task,
            channel=CHANNEL_SPECS["correlated"],
            simulator=SIMULATORS[simulator_name],
        )
        runner = VectorizedRunner()
        batch = runner.run_trials(task, executor, 6, seed=99)
        assert runner.last_fallback_reason is None
        for index in (0, 2, 5):  # sampled subset
            assert batch.records[index] == run_trial(
                task, executor, 99, index
            )

    def test_epsilon_grid_bitwise_equal(self):
        """Across the epsilon range (including 0), chunk and rewind
        records agree bitwise between backends."""
        for epsilon in (0.0, 0.05, 0.3):
            for simulator_name in ("chunk", "rewind"):
                task = ParityTask(4)
                executor = SimulationExecutor(
                    task=task,
                    channel=ChannelSpec.of(CorrelatedNoiseChannel, epsilon),
                    simulator=SIMULATORS[simulator_name],
                )
                serial = _run(SerialRunner(), task, executor, 11)
                vectorized = _run(VectorizedRunner(), task, executor, 11)
                assert vectorized == serial, (epsilon, simulator_name)


class _UnsourcedChannel(CorrelatedNoiseChannel):
    """A correlated channel registered below without a flip source."""


class TestFlipSources:
    @pytest.mark.parametrize("simulator_name", sorted(SIMULATORS))
    def test_burst_records_independent_of_prefetch(self, simulator_name):
        """Burst noise is pulled from each trial's channel, never from a
        prefetched ``u < epsilon`` stream, and replays bitwise."""
        task = ParityTask(4)
        executor = SimulationExecutor(
            task=task,
            channel=CHANNEL_SPECS["burst"],
            simulator=SIMULATORS[simulator_name],
        )
        serial = _run(SerialRunner(), task, executor, 21)
        runner = VectorizedRunner()
        assert _run(runner, task, executor, 21) == serial
        assert runner.last_fallback_reason is None

    def test_long_independent_votes_cross_the_prefetch(self):
        """Per-party vote windows continue from each trial's generator
        state across a flip-stream refill: five windows of 401 rounds x 5
        parties draw 10025 indicators, past the first 8192-indicator
        block."""
        task = ParityTask(5)
        executor = SimulationExecutor(
            task=task,
            channel=CHANNEL_SPECS["independent"],
            simulator=SimulatorSpec.of(
                RepetitionSimulator, SimulationParameters(repetitions=401)
            ),
        )
        serial = _run(SerialRunner(), task, executor, 8)
        runner = VectorizedRunner()
        assert _run(runner, task, executor, 8) == serial
        assert runner.last_fallback_reason is None

    def test_registered_kind_without_flip_source_raises(self, monkeypatch):
        """A registered channel type with no flip source fails loudly
        instead of replaying as noiseless."""
        monkeypatch.setitem(CHANNEL_KINDS, _UnsourcedChannel, None)
        task = ParityTask(3)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(_UnsourcedChannel, 0.2),
            simulator=SIMULATORS["chunk"],
        )
        with pytest.raises(ConfigurationError, match="no flip source"):
            VectorizedRunner().run_trials(task, executor, 2, seed=1)
        with pytest.raises(ConfigurationError, match="no flip source"):
            simulate_chunked(
                ChunkCommitSimulator(),
                task.noiseless_protocol(),
                [0, 1, 1],
                _UnsourcedChannel(0.2, rng=1),
            )


#: (collapsed form, simulator) pairs: each scheme at its defaults and at
#: one non-default plan.
PLAN_CASES = {
    "chunk": (simulate_chunked, ChunkCommitSimulator()),
    "chunk-tuned": (
        simulate_chunked,
        ChunkCommitSimulator(
            SimulationParameters(
                chunk_length=3, repetitions=5, attempt_slack=2.0
            )
        ),
    ),
    "hierarchical": (simulate_hierarchical, HierarchicalSimulator()),
    "hierarchical-flat": (
        simulate_hierarchical,
        HierarchicalSimulator(extra_levels=0),
    ),
    "rewind": (simulate_rewind, RewindSimulator()),
    "rewind-tight": (
        simulate_rewind,
        RewindSimulator(SimulationParameters(rewind_budget_factor=1.5)),
    ),
    "repetition": (simulate_repetition, RepetitionSimulator()),
    "repetition-tuned": (
        simulate_repetition,
        RepetitionSimulator(SimulationParameters(repetitions=3)),
    ),
}


class TestOnePlan:
    """The scalar and collapsed forms run on one round plan: their whole
    results agree — outputs, rounds, per-party energy, channel stats and
    the report, including the ``extra`` counts no ``TrialRecord``
    carries."""

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_reports_equal(self, case):
        collapsed, simulator = PLAN_CASES[case]
        channel_type = (
            SuppressionNoiseChannel
            if collapsed is simulate_rewind
            else CorrelatedNoiseChannel
        )
        task = InputSetTask(4)
        protocol = task.noiseless_protocol()
        for seed in range(3):
            inputs = task.sample_inputs(random.Random(seed))
            scalar = simulator.simulate(
                protocol, inputs, channel_type(0.2, rng=seed)
            )
            result = collapsed(
                simulator, protocol, inputs, channel_type(0.2, rng=seed)
            )
            assert result.to_dict() == scalar.to_dict(), seed
            assert "report" in result.to_dict(), seed

    @pytest.mark.parametrize("repetitions", [None, 3])
    @pytest.mark.parametrize("noise_model", [None, NoiseModel.two_sided(0.1)])
    def test_local_broadcast_k_is_the_scalar_repetitions(
        self, monkeypatch, repetitions, noise_model
    ):
        """The batched kernel repeats each inner round exactly the
        scalar report's ``extra["repetitions"]`` times."""
        kernel_channel = vnetwork._BatchNetworkChannel
        kernel_ks = []

        def spy(*args, **kwargs):
            kernel_ks.append(kwargs["repetitions"])
            return kernel_channel(*args, **kwargs)

        monkeypatch.setattr(vnetwork, "_BatchNetworkChannel", spy)
        spec = TopologySpec.of("grid", rows=3, cols=3)
        task = MISTask(spec.build(), cycles=1)
        executor = SimulationExecutor(
            task=task,
            channel=ChannelSpec.of(NetworkBeepingChannel, 0.05, topology=spec),
            simulator=SimulatorSpec.of(
                LocalBroadcastSimulator,
                SimulationParameters(repetitions=repetitions),
                noise_model,
            ),
        )
        runner = VectorizedRunner()
        runner.run_trials(task, executor, 2, seed=5)
        assert runner.last_fallback_reason is None
        scalar = executor(task.sample_inputs(random.Random(0)), 0)
        assert kernel_ks == [scalar.metadata["report"].extra["repetitions"]]


class _DisputeSpy:
    """Wraps one trial's inner programs and counts the rewind walk's pops
    of a disputed position: a received 0 under a column with beeps."""

    def __init__(self, programs):
        self._programs = programs
        self._received = []
        self._beeps = {}
        self.disputed_pops = 0

    def __getattr__(self, name):
        return getattr(self._programs, name)

    def column(self, working):
        column, beeps = self._programs.column(working)
        self._beeps[len(working)] = beeps
        return column, beeps

    def appended(self, position, received):
        self._programs.appended(position, received)
        del self._received[position:]
        self._received.append(received)

    def popped(self, length):
        if self._received[length] == 0 and self._beeps[length]:
            self.disputed_pops += 1
        del self._received[length:]
        self._programs.popped(length)


def _noise_state(channel):
    """Everything a flip pull advances on a channel."""
    return (
        channel._rng.getstate(),
        channel._noise_pos,
        getattr(channel, "_in_burst", None),
        getattr(channel, "burst_rounds", None),
    )


#: High-noise channels of the rewind accounting test; ``disputes``: the
#: channel can suppress a beep, so the walk disputes positions (one-sided
#: noise never delivers a 0 under a beep: it only pops on fabricated
#: alarms).
REWIND_CHANNELS = {
    "suppression": (partial(SuppressionNoiseChannel, 0.3), True),
    "one-sided": (partial(OneSidedNoiseChannel, 0.3), False),
    "burst": (partial(BurstNoiseChannel, 0.05, 0.5, 0.1, 0.3), True),
}


class TestRewindDisputeAccounting:
    """The collapsed rewind walk keeps its dispute counters, alarm energy
    and append energy apart from the per-iteration work and folds them
    in only when ``disputes`` changes and once at the end.  At a noise
    level where disputed positions are popped, it still equals the
    scalar walk on every result field — over a declared schedule
    (InputSet) and stepped parties (max-id), from the runner's flip
    stream and standalone (``flips=None``), where the channel must end
    where the scalar run leaves it."""

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize(
        "make_task",
        [InputSetTask, lambda n: MaxIdTask(n, id_bits=n.bit_length() + 2)],
        ids=["input-set", "max-id"],
    )
    @pytest.mark.parametrize("standalone", [False, True])
    @pytest.mark.parametrize("family", sorted(REWIND_CHANNELS))
    def test_scalar_equal_through_disputed_pops(
        self, monkeypatch, family, standalone, make_task, n
    ):
        make_channel, disputes = REWIND_CHANNELS[family]
        spies = []

        def spied(*args, **kwargs):
            spies.append(_DisputeSpy(inner_programs(*args, **kwargs)))
            return spies[-1]

        inner_programs = vschemes._inner_programs
        monkeypatch.setattr(vschemes, "_inner_programs", spied)
        simulator = RewindSimulator()
        task = make_task(n)
        protocol = task.noiseless_protocol()
        rewinds = 0
        for seed in range(3):
            inputs = task.sample_inputs(random.Random(seed))
            scalar_channel = make_channel(rng=seed)
            scalar = simulator.simulate(protocol, inputs, scalar_channel)
            channel = make_channel(rng=seed)
            flips = (
                None
                if standalone
                else vschemes.flip_source(channel, copy_rng=True)
            )
            result = simulate_rewind(
                simulator, protocol, inputs, channel, flips=flips
            )
            assert result.outputs == scalar.outputs, seed
            assert result.beeps_per_party == scalar.beeps_per_party, seed
            assert result.channel_stats == scalar.channel_stats, seed
            report = result.metadata["report"]
            assert report.to_dict() == scalar.metadata["report"].to_dict()
            if standalone:
                assert _noise_state(channel) == _noise_state(scalar_channel)
            rewinds += report.rewinds
        assert rewinds > 0
        disputed_pops = sum(spy.disputed_pops for spy in spies)
        assert (disputed_pops > 0) == disputes


#: Channels of the idle-tail test; ``skips``: the channel's silent rounds
#: draw nothing, so the walk may count its idle tail instead of walking
#: it (one-sided 0→1 noise, E3's negative control, draws on silence).
IDLE_TAIL_CHANNELS = {
    "suppression": (partial(SuppressionNoiseChannel, 0.2), True),
    "noiseless": (lambda rng: NoiselessChannel(), True),
    "one-sided": (partial(OneSidedNoiseChannel, 0.05), False),
}


class TestRewindIdleTail:
    """Once the collapsed rewind walk is complete and undisputed, a
    channel whose silent rounds draw nothing makes every remaining
    iteration two silent rounds, which the walk counts without stepping.
    It still equals ``RewindSimulator.simulate`` on every result field,
    and a channel that draws on silence walks every round."""

    @pytest.mark.parametrize("standalone", [False, True])
    @pytest.mark.parametrize("family", sorted(IDLE_TAIL_CHANNELS))
    def test_scalar_equal_with_and_without_tail(
        self, monkeypatch, family, standalone
    ):
        make_channel, skips = IDLE_TAIL_CHANNELS[family]
        walked = []
        step = vschemes._SharedChannel.round

        def counted(self, or_value, beeps):
            walked.append(or_value)
            return step(self, or_value, beeps)

        monkeypatch.setattr(vschemes._SharedChannel, "round", counted)
        simulator = RewindSimulator()
        task = InputSetTask(8)
        protocol = task.noiseless_protocol()
        skipped = completed = 0
        for seed in range(4):
            inputs = task.sample_inputs(random.Random(seed))
            scalar_channel = make_channel(rng=seed)
            scalar = simulator.simulate(protocol, inputs, scalar_channel)
            channel = make_channel(rng=seed)
            flips = (
                None
                if standalone
                else vschemes.flip_source(channel, copy_rng=True)
            )
            walked.clear()
            result = simulate_rewind(
                simulator, protocol, inputs, channel, flips=flips
            )
            assert result.to_dict() == scalar.to_dict(), seed
            if standalone and family != "noiseless":
                assert _noise_state(channel) == _noise_state(scalar_channel)
            completed += result.metadata["report"].completed
            skipped += result.rounds - len(walked)
        assert completed > 0
        assert (skipped > 0) == skips
