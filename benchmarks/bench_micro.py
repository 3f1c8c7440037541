"""Microbenchmarks of the hot paths (engine, channel, decoder, codebook).

Unlike E1–E12 (Monte-Carlo experiment harnesses run once), these are true
microbenchmarks: pytest-benchmark repeats them many times and reports
statistics.  They guard the wall-clock budget of the experiment suite —
the engine executes tens of thousands of rounds per simulation, so a
regression here multiplies through every experiment.

Running the module directly (``python benchmarks/bench_micro.py --quick``)
skips pytest and times the columnar fast-path engine against the seed
reference loop (:mod:`repro.core._legacy_engine`) over a correlated
channel at n ∈ {8, 32, 128}, both ``record_sent`` modes, writing
machine-readable rounds/s and speedup ratios to
``benchmarks/results/BENCH_engine.json``.  ``--compare REFERENCE_JSON``
additionally fails (exit 1) if the fast path's rounds/s drops more than
``--tolerance`` (default 5%) below the reference — CI's benchmark-smoke
job compares against the committed reference to catch instrumentation
overhead leaking into the observability-disabled path.

``--simulation`` switches to the end-to-end simulation benchmark:
trials/second of the chunk-commit and rewind simulators at
n ∈ {8, 32, 128}, batch tokens on (the sparse scheduler) versus off
(the pre-token dense path, reached via
:func:`repro.simulation.primitives.batch_tokens`), written to
``benchmarks/results/BENCH_simulation.json``.  The dense rate is the
drift anchor and the token rate the guarded quantity, with the same
``--compare``/``--tolerance`` regression floor as the engine benchmark.

``--vectorized`` benchmarks the trial-batched vectorized backend
(:mod:`repro.vectorized`) against the scalar token engine over all four
collapsed schemes (chunked, rewind, repetition, hierarchical) at
n ∈ {8, 32, 128}, writing ``benchmarks/results/BENCH_vectorized.json``.
Trial counts are derived from a wall-clock budget per configuration
(``--budget``; see :func:`repro.parallel.calibrate.trials_for_budget`) —
not hard-coded per-``n`` tables, which drifted from reality as the
engines got faster.  Each configuration also measures the calibrated
``auto`` planner against a plain serial runner (floor: never slower,
``auto_speedup >= 1.0``) and the composed ``vectorized-process`` backend
at 4 workers (floor: >= 2x single-core vectorized on chunked n=128,
enforced only when the machine has >= 4 CPUs — the payload records
``cpu_count`` so a single-core run stays honest).  The scalar token rate
is the drift anchor for the ``--compare`` regression floor, and
:func:`check_vectorized_floors` enforces the absolute floors above on
every run.

``--network`` benchmarks the graph-topology beeping engine
(:mod:`repro.network`) over three topology families — 4-neighbor grid,
random geometric (radius tracking a constant expected degree), and
Barabási–Albert scale-free — at n ∈ {10^4, 10^5, 10^6} nodes, writing
``benchmarks/results/BENCH_network.json``.  Each point times the sparse
neighborhood-OR path (:meth:`NetworkBeepingChannel.step`, the guarded
quantity) against the dense full-word :meth:`transmit` scan (the frozen
in-process drift anchor, round counts derived from a wall-clock
``--budget`` so the anchor never rests on a 3-sample mean) under a 0.1%
beeper density, plus the trial-batched vectorized kernel
(:class:`repro.vectorized.network.NetworkBatchKernel`, 64 trials per
matrix, re-planned every round) in trial-rounds/s, and records the
overhead curve of Davies' local-broadcast scheme: repetitions per
protocol round at ε = 0.1, flat in n on the bounded-degree families
versus the single-hop Θ(log n) count.  The smallest size also runs one
end-to-end noisy neighbor-OR trial through
:class:`LocalBroadcastSimulator` as a correctness canary.  The same
``--compare``/``--tolerance`` regression floor applies, drift-normalized
by the dense anchor, and :func:`check_network_floors` enforces the
batched kernel's >= 10x-over-sparse floor and a topology-build ceiling
(in dense rounds of the same graph) at 10^5 nodes on every run.  Each
point's ``build_s`` is one uncached build of its spec.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import time
from pathlib import Path

from repro.analysis import estimate_success
from repro.channels import (
    CorrelatedNoiseChannel,
    NoiselessChannel,
    SuppressionNoiseChannel,
)
from repro.coding import GreedyRandomCode, MLDecoder
from repro.core import run_protocol
from repro.core.formal import NoiseModel
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
)
from repro.network import (
    TOPOLOGIES,
    LocalBroadcastSimulator,
    NeighborORTask,
    NetworkBeepingChannel,
    Topology,
    TopologySpec,
    local_broadcast_repetitions,
    parse_topology,
)
from repro.parallel.calibrate import trials_for_budget
from repro.simulation.params import repetitions_for
from repro.tasks import InputSetTask
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.simulation.primitives import batch_tokens

N = 16


def test_engine_throughput(benchmark):
    """Rounds/second of the lock-step engine on a 16-party protocol."""
    task = InputSetTask(N)
    inputs = task.sample_inputs(random.Random(0))
    protocol = task.noiseless_protocol()
    channel = NoiselessChannel()

    def run():
        return run_protocol(protocol, inputs, channel, record_sent=False)

    result = benchmark(run)
    assert result.rounds == 2 * N


def test_noisy_channel_transmit(benchmark):
    """Cost of one correlated-noise transmission."""
    channel = CorrelatedNoiseChannel(0.1, rng=0)
    bits = (0,) * N

    def transmit():
        return channel.transmit(bits)

    outcome = benchmark(transmit)
    assert len(outcome.received) == N


def test_ml_decode(benchmark):
    """ML decoding of one owners-phase codeword."""
    code = GreedyRandomCode(N + 2, 64, seed=0)
    decoder = MLDecoder(code, NoiseModel.two_sided(0.1))
    word = code.encode(5)

    def decode():
        return decoder.decode(word)

    assert benchmark(decode) == 5


def test_codebook_construction(benchmark):
    """Greedy codebook construction (done once per simulation)."""

    def construct():
        return GreedyRandomCode(N + 2, 64, seed=1)

    code = benchmark(construct)
    assert code.num_symbols == N + 2


def test_full_simulation(benchmark):
    """One full chunk-commit simulation at n=8 (the E1 unit of work)."""
    task = InputSetTask(8)
    inputs = task.sample_inputs(random.Random(1))
    simulator = ChunkCommitSimulator()

    def simulate():
        channel = CorrelatedNoiseChannel(0.1, rng=2)
        return simulator.simulate(
            task.noiseless_protocol(), inputs, channel
        )

    result = benchmark(simulate)
    assert task.is_correct(inputs, result.outputs)


def test_parallel_sweep_speedup():
    """Serial vs 4-worker process-pool sweep over the E1 unit of work.

    Asserts the determinism contract (byte-identical ``to_dict``) always,
    and the >= 2x wall-clock speedup at 4 workers whenever the hardware
    has the cores to show it.
    """
    task = InputSetTask(8)
    executor = SimulationExecutor(
        task=task,
        channel=ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
        simulator=SimulatorSpec.of(ChunkCommitSimulator),
    )
    trials = 24

    start = time.perf_counter()
    serial = estimate_success(
        task, executor, trials, seed=3, runner=SerialRunner()
    )
    serial_elapsed = time.perf_counter() - start

    with ProcessPoolRunner(workers=4, chunk_size=3) as runner:
        start = time.perf_counter()
        parallel = estimate_success(
            task, executor, trials, seed=3, runner=runner
        )
        parallel_elapsed = time.perf_counter() - start
        assert runner.last_fallback_reason is None

    assert parallel.to_dict() == serial.to_dict()
    speedup = serial_elapsed / parallel_elapsed
    print(
        f"\nparallel sweep: serial {serial_elapsed:.2f}s, "
        f"4 workers {parallel_elapsed:.2f}s, speedup x{speedup:.2f}, "
        f"utilization {parallel.timing['utilization']:.2f}"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0


# ----------------------------------------------------------------------
# Standalone engine-throughput benchmark (CI benchmark-smoke job)
# ----------------------------------------------------------------------

ENGINE_BENCH_PARTIES = (8, 32, 128)


def _engine_bench_protocol(n: int, length: int):
    """A broadcast protocol whose bits depend on the received prefix, so
    the engine cannot shortcut any per-round work."""
    from repro.core import FunctionalProtocol

    return FunctionalProtocol(
        n_parties=n,
        length=length,
        broadcast=lambda index, bit, prefix: (
            bit if not prefix else bit ^ prefix[-1]
        ),
        output=lambda index, bit, received: sum(received),
    )


def _time_engine(
    engine, n: int, record_sent: bool, trials: int, length: int, repeats: int
):
    """Rounds/second of ``engine`` over a fresh correlated channel per trial
    (the Monte-Carlo access pattern).  Takes the best of ``repeats``
    measurements after one warmup trial — the standard noise shield for
    wall-clock microbenchmarks on shared machines."""
    protocol = _engine_bench_protocol(n, length)
    inputs = [i % 2 for i in range(n)]
    engine(
        protocol,
        inputs,
        CorrelatedNoiseChannel(0.1, rng=0),
        record_sent=record_sent,
    )
    best = 0.0
    for _ in range(repeats):
        total_rounds = 0
        start = time.perf_counter()
        for trial in range(trials):
            channel = CorrelatedNoiseChannel(0.1, rng=trial)
            result = engine(
                protocol, inputs, channel, record_sent=record_sent
            )
            total_rounds += result.rounds
        elapsed = time.perf_counter() - start
        best = max(best, total_rounds / elapsed)
    return best


def run_engine_benchmark(quick: bool = False) -> dict:
    """Fast-path vs reference-loop throughput; returns the results payload."""
    from repro.core import run_protocol as fast_engine
    from repro.core._legacy_engine import legacy_run_protocol as legacy_engine

    # Quick mode cuts trials/repeats but keeps the full per-trial length:
    # rounds/s amortizes per-trial setup over the trial length, so only a
    # matched length makes quick runs comparable to the archival reference
    # (the --compare guard depends on this).
    trials = 5 if quick else 30
    length = 2000
    repeats = 5
    payload: dict = {
        "benchmark": "engine_throughput",
        "channel": "CorrelatedNoiseChannel(0.1)",
        "rounds_per_trial": length,
        "trials": trials,
        "repeats": repeats,
        "results": [],
    }
    for n in ENGINE_BENCH_PARTIES:
        for record_sent in (True, False):
            legacy_rate = _time_engine(
                legacy_engine, n, record_sent, trials, length, repeats
            )
            fast_rate = _time_engine(
                fast_engine, n, record_sent, trials, length, repeats
            )
            entry = {
                "n_parties": n,
                "record_sent": record_sent,
                "legacy_rounds_per_sec": round(legacy_rate),
                "fast_rounds_per_sec": round(fast_rate),
                "speedup": round(fast_rate / legacy_rate, 2),
            }
            payload["results"].append(entry)
            print(
                f"n={n:<4} record_sent={str(record_sent):<5} "
                f"legacy {legacy_rate:>10,.0f} r/s   "
                f"fast {fast_rate:>10,.0f} r/s   "
                f"x{fast_rate / legacy_rate:.2f}"
            )
    return payload


def compare_to_reference(
    payload: dict, reference: dict, tolerance: float
) -> list[dict]:
    """Regression check of fast-path throughput against a reference run.

    Returns the payload entries whose measured ``fast_rounds_per_sec``
    fell more than ``tolerance`` below the reference's for the same
    (n_parties, record_sent) configuration.  Configurations missing from
    either side are skipped — the guard is for regressions, not coverage.

    The floor is scaled by the legacy engine's drift (measured/reference,
    clamped to at most 1): the legacy loop is frozen code measured in the
    same process, so when it runs slower than the reference did, that is
    the machine, not a regression, and the expectation shrinks with it.
    A change that slows only the fast path leaves the legacy rate — and
    therefore the floor — untouched.
    """
    by_config = {
        (entry["n_parties"], entry["record_sent"]): entry
        for entry in reference.get("results", [])
    }
    failures: list[dict] = []
    for entry in payload["results"]:
        ref = by_config.get((entry["n_parties"], entry["record_sent"]))
        if ref is None:
            continue
        measured = entry["fast_rounds_per_sec"]
        machine = min(
            1.0,
            entry["legacy_rounds_per_sec"] / ref["legacy_rounds_per_sec"],
        )
        floor = ref["fast_rounds_per_sec"] * (1.0 - tolerance) * machine
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"compare n={entry['n_parties']:<4} "
            f"record_sent={str(entry['record_sent']):<5} "
            f"measured {measured:>10,} r/s   "
            f"reference {ref['fast_rounds_per_sec']:>10,} r/s   "
            f"floor {floor:>12,.0f}   {verdict}"
        )
        if measured < floor:
            failures.append(entry)
    return failures


def check_against_reference(
    payload: dict, reference: dict, tolerance: float, attempts: int = 3
) -> list[str]:
    """``compare_to_reference`` with re-measurement of transient misses.

    A wall-clock rate on a shared machine can dip far below its true
    value whenever background load overlaps the timing window, so one
    low sample is not evidence of a regression.  Configurations that
    miss the floor are re-measured (fast path only — the guarded
    quantity) and their best-of grows across attempts; only a config
    that misses on every attempt is reported.  A genuine slowdown fails
    all attempts identically, so retries cost honest regressions
    nothing but time.
    """
    from repro.core import run_protocol as fast_engine

    trials = payload["trials"]
    length = payload["rounds_per_trial"]
    repeats = payload["repeats"]
    for attempt in range(attempts):
        failures = compare_to_reference(payload, reference, tolerance)
        if not failures:
            return []
        if attempt == attempts - 1:
            break
        print(f"re-measuring {len(failures)} config(s) that missed the floor")
        for entry in failures:
            rate = _time_engine(
                fast_engine,
                entry["n_parties"],
                entry["record_sent"],
                trials,
                length,
                repeats,
            )
            entry["fast_rounds_per_sec"] = max(
                entry["fast_rounds_per_sec"], round(rate)
            )
            entry["speedup"] = round(
                entry["fast_rounds_per_sec"]
                / entry["legacy_rounds_per_sec"],
                2,
            )
    by_config = {
        (entry["n_parties"], entry["record_sent"]): entry
        for entry in reference.get("results", [])
    }
    messages = []
    for entry in failures:
        ref = by_config[(entry["n_parties"], entry["record_sent"])]
        machine = min(
            1.0,
            entry["legacy_rounds_per_sec"] / ref["legacy_rounds_per_sec"],
        )
        messages.append(
            f"n={entry['n_parties']} record_sent={entry['record_sent']}: "
            f"{entry['fast_rounds_per_sec']:,} r/s < "
            f"{ref['fast_rounds_per_sec'] * (1 - tolerance) * machine:,.0f}"
            f" r/s (reference - {tolerance:.0%}, machine x{machine:.2f})"
        )
    return messages


# ----------------------------------------------------------------------
# Standalone end-to-end simulation benchmark (CI benchmark-smoke job)
# ----------------------------------------------------------------------

SIM_BENCH_PARTIES = (8, 32, 128)

# scheme -> (simulator factory, channel factory).  Chunk-commit and the
# shared-transcript schemes over the paper's correlated two-sided noise;
# rewind over suppression noise (its sound regime: 1 -> 0 flips only).
_SIM_SCHEMES = {
    "chunked": (
        ChunkCommitSimulator,
        lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
    ),
    "rewind": (
        RewindSimulator,
        lambda seed: SuppressionNoiseChannel(0.1, rng=seed),
    ),
    "repetition": (
        RepetitionSimulator,
        lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
    ),
    "hierarchical": (
        HierarchicalSimulator,
        lambda seed: CorrelatedNoiseChannel(0.1, rng=seed),
    ),
}

#: The --simulation benchmark's frozen grid: its committed reference and
#: the fixed trial table below predate the repetition/hierarchical
#: collapses and stay as they were measured.
_SIM_BENCH_SCHEMES = ("chunked", "rewind")

# Trials per --simulation configuration are fixed (not reduced by
# --quick) so every mode times the same per-trial work over the same
# channel seeds; only then are quick runs comparable to the archival
# reference.  Counts shrink with n because per-trial cost grows
# superlinearly — chunked at n=128 runs ~43k rounds per trial on the
# dense path.  (The --vectorized benchmark derives its counts from a
# wall-clock budget instead; see _budgeted_trials.)
_SIM_TRIALS = {
    ("chunked", 8): 20,
    ("chunked", 32): 5,
    ("chunked", 128): 2,
    ("rewind", 8): 50,
    ("rewind", 32): 20,
    ("rewind", 128): 5,
}

# Trials/second of the tree *before* the sparse batch-token engine and
# the inlined ML-decode loop (commit 62d437b), measured once on the
# machine that produced the committed reference with exactly this
# script's trial grid, seeds and best-of-2 repeats.  The in-process
# dense mode is not this baseline — it desugars the tokens but shares
# the optimized decoder — so the "before" of the before/after speedup
# is recorded here, frozen.  Meaningful only relative to the committed
# reference's dense rates (same machine); the regression floor uses the
# in-process dense anchor instead, which moves with the machine.
_PRE_PR_TRIALS_PER_SEC = {
    ("chunked", 8): 161.753,
    ("chunked", 32): 6.629,
    ("chunked", 128): 0.205,
    ("rewind", 8): 1459.653,
    ("rewind", 32): 103.360,
    ("rewind", 128): 3.333,
}


def _time_simulation(
    scheme: str, n: int, tokens: bool, trials: int, repeats: int
) -> float:
    """Trials/second of one simulation scheme at one party count.

    A fresh channel per trial (the Monte-Carlo access pattern), best of
    ``repeats`` measurements after one warmup trial.  ``tokens`` selects
    between the sparse batch-token scheduler and the desugared per-round
    dense path — the latter is the pre-token engine, so it doubles as
    the machine-drift anchor for the regression floor.
    """
    make_simulator, make_channel = _SIM_SCHEMES[scheme]
    task = InputSetTask(n)
    inputs = task.sample_inputs(random.Random(n))
    protocol = task.noiseless_protocol()
    simulator = make_simulator()
    with batch_tokens(tokens):
        simulator.simulate(
            protocol, inputs, make_channel(10_000), shared_seed=10_000
        )
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            for trial in range(trials):
                simulator.simulate(
                    protocol,
                    inputs,
                    make_channel(trial),
                    shared_seed=trial,
                )
            elapsed = time.perf_counter() - start
            best = max(best, trials / elapsed)
    return best


def run_simulation_benchmark(quick: bool = False) -> dict:
    """Token vs dense simulation throughput; returns the results payload."""
    # Quick mode only drops n=128; trials and best-of-2 repeats stay the
    # full-mode values, so the configs it does run are measured exactly
    # like the committed reference's.
    parties = SIM_BENCH_PARTIES[:2] if quick else SIM_BENCH_PARTIES
    repeats = 2
    payload: dict = {
        "benchmark": "simulation_throughput",
        "task": "InputSetTask",
        "channels": {
            "chunked": "CorrelatedNoiseChannel(0.1)",
            "rewind": "SuppressionNoiseChannel(0.1)",
        },
        "repeats": repeats,
        "results": [],
    }
    for scheme in _SIM_BENCH_SCHEMES:
        for n in parties:
            trials = _SIM_TRIALS[(scheme, n)]
            dense_rate = _time_simulation(
                scheme, n, tokens=False, trials=trials, repeats=repeats
            )
            token_rate = _time_simulation(
                scheme, n, tokens=True, trials=trials, repeats=repeats
            )
            entry = {
                "scheme": scheme,
                "n_parties": n,
                "trials": trials,
                "dense_trials_per_sec": round(dense_rate, 3),
                "token_trials_per_sec": round(token_rate, 3),
                "speedup": round(token_rate / dense_rate, 2),
            }
            pre_pr = _PRE_PR_TRIALS_PER_SEC.get((scheme, n))
            if pre_pr is not None:
                entry["pre_pr_trials_per_sec"] = pre_pr
                entry["speedup_vs_pre_pr"] = round(token_rate / pre_pr, 2)
            payload["results"].append(entry)
            print(
                f"{scheme:<8} n={n:<4} "
                f"dense {dense_rate:>9,.2f} trials/s   "
                f"tokens {token_rate:>9,.2f} trials/s   "
                f"x{token_rate / dense_rate:.2f}"
                + (
                    f"   (x{token_rate / pre_pr:.2f} vs pre-token tree)"
                    if pre_pr is not None
                    else ""
                )
            )
    return payload


def compare_simulation_to_reference(
    payload: dict, reference: dict, tolerance: float
) -> list[dict]:
    """Regression check of token-mode throughput against a reference run.

    Same shape as :func:`compare_to_reference`, keyed by
    (scheme, n_parties): the dense per-round path is frozen code measured
    in the same process, so its drift (measured/reference, clamped to at
    most 1) scales the floor down when the machine is slow, while a
    change that slows only the token scheduler leaves the anchor — and
    therefore the floor — untouched.
    """
    by_config = {
        (entry["scheme"], entry["n_parties"]): entry
        for entry in reference.get("results", [])
    }
    failures: list[dict] = []
    for entry in payload["results"]:
        ref = by_config.get((entry["scheme"], entry["n_parties"]))
        if ref is None:
            continue
        measured = entry["token_trials_per_sec"]
        machine = min(
            1.0,
            entry["dense_trials_per_sec"] / ref["dense_trials_per_sec"],
        )
        floor = ref["token_trials_per_sec"] * (1.0 - tolerance) * machine
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"compare {entry['scheme']:<8} n={entry['n_parties']:<4} "
            f"measured {measured:>9,.2f} trials/s   "
            f"reference {ref['token_trials_per_sec']:>9,.2f} trials/s   "
            f"floor {floor:>9,.2f}   {verdict}"
        )
        if measured < floor:
            failures.append(entry)
    return failures


def check_simulation_against_reference(
    payload: dict, reference: dict, tolerance: float, attempts: int = 3
) -> list[str]:
    """``compare_simulation_to_reference`` with transient-miss retries.

    Mirrors :func:`check_against_reference`: configurations that miss
    the floor re-measure the guarded quantity (token mode only) and
    keep their best-of across attempts, so one background-load dip is
    not reported while a genuine slowdown still fails every attempt.
    """
    repeats = payload["repeats"]
    for attempt in range(attempts):
        failures = compare_simulation_to_reference(
            payload, reference, tolerance
        )
        if not failures:
            return []
        if attempt == attempts - 1:
            break
        print(f"re-measuring {len(failures)} config(s) that missed the floor")
        for entry in failures:
            rate = _time_simulation(
                entry["scheme"],
                entry["n_parties"],
                tokens=True,
                trials=entry["trials"],
                repeats=repeats,
            )
            entry["token_trials_per_sec"] = max(
                entry["token_trials_per_sec"], round(rate, 3)
            )
            entry["speedup"] = round(
                entry["token_trials_per_sec"]
                / entry["dense_trials_per_sec"],
                2,
            )
    by_config = {
        (entry["scheme"], entry["n_parties"]): entry
        for entry in reference.get("results", [])
    }
    messages = []
    for entry in failures:
        ref = by_config[(entry["scheme"], entry["n_parties"])]
        machine = min(
            1.0,
            entry["dense_trials_per_sec"] / ref["dense_trials_per_sec"],
        )
        messages.append(
            f"{entry['scheme']} n={entry['n_parties']}: "
            f"{entry['token_trials_per_sec']:,} trials/s < "
            f"{ref['token_trials_per_sec'] * (1 - tolerance) * machine:,.2f}"
            f" trials/s (reference - {tolerance:.0%}, machine x{machine:.2f})"
        )
    return messages


# ----------------------------------------------------------------------
# Standalone vectorized-backend benchmark (CI benchmark-smoke job)
# ----------------------------------------------------------------------


#: scheme -> (simulator spec, channel spec): the runner-level mirror of
#: _SIM_SCHEMES, for the backends measured through run_trials.
_RUNNER_SPECS = {
    "chunked": (
        SimulatorSpec.of(ChunkCommitSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "rewind": (
        SimulatorSpec.of(RewindSimulator),
        ChannelSpec.of(SuppressionNoiseChannel, 0.1),
    ),
    "repetition": (
        SimulatorSpec.of(RepetitionSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
    "hierarchical": (
        SimulatorSpec.of(HierarchicalSimulator),
        ChannelSpec.of(CorrelatedNoiseChannel, 0.1),
    ),
}

#: Worker count of the composed-backend measurement (recorded in the
#: payload; the >= 2x floor only applies on machines with that many CPUs).
_COMPOSED_WORKERS = 4

#: Floor on auto-vs-serial throughput.  The planner's worst case is a
#: correct "stay serial" decision, where the true ratio is 1.0 and the
#: measured one is two noisy wall-clock rates divided — so the floor
#: carries the same 5% tolerance as the reference comparisons.
_AUTO_FLOOR = 0.95


def _budgeted_trials(scheme: str, n: int, budget_s: float) -> int:
    """Derive the config's trial count from a wall-clock budget.

    Times one scalar token trial (the slowest engine measured) and asks
    :func:`~repro.parallel.calibrate.trials_for_budget` how many fit —
    replacing the hard-coded trials-per-``n`` table, which under-sampled
    fast configs and over-ran slow ones as the engines evolved.
    """
    make_simulator, make_channel = _SIM_SCHEMES[scheme]
    task = InputSetTask(n)
    inputs = task.sample_inputs(random.Random(n))
    protocol = task.noiseless_protocol()
    simulator = make_simulator()
    start = time.perf_counter()
    simulator.simulate(
        protocol, inputs, make_channel(10_000), shared_seed=10_000
    )
    per_trial = time.perf_counter() - start
    return trials_for_budget(per_trial, budget_s, max_trials=200)


def _time_runner(runner, scheme: str, n: int, trials: int, repeats: int) -> float:
    """Trials/second of a TrialRunner backend over the config's executor.

    One warmup batch (pool spin-up, codebook construction, planner
    probe), then best-of-``repeats`` full batches — the same noise
    shield as every other wall-clock measurement in this module.
    """
    simulator, channel = _RUNNER_SPECS[scheme]
    task = InputSetTask(n)
    executor = SimulationExecutor(
        task=task, channel=channel, simulator=simulator
    )
    runner.run_trials(task, executor, 1, seed=10_000)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        runner.run_trials(task, executor, trials, seed=0)
        elapsed = time.perf_counter() - start
        best = max(best, trials / elapsed)
    return best


def _time_vectorized(scheme: str, n: int, trials: int, repeats: int) -> float:
    """Trials/second of the party-collapsed vectorized simulation.

    Identical access pattern to :func:`_time_simulation` — same task,
    inputs, channel seeds, shared seeds, warmup and best-of — so the rate
    is directly comparable to the scalar token rate of the same config.
    The codebook/decoder cache persists across trials, as the
    ``VectorizedRunner`` holds it across a batch.
    """
    from repro.vectorized import (
        simulate_chunked,
        simulate_hierarchical,
        simulate_repetition,
        simulate_rewind,
    )

    collapsed = {
        "chunked": simulate_chunked,
        "rewind": simulate_rewind,
        "repetition": simulate_repetition,
        "hierarchical": simulate_hierarchical,
    }[scheme]
    make_simulator, make_channel = _SIM_SCHEMES[scheme]
    task = InputSetTask(n)
    inputs = task.sample_inputs(random.Random(n))
    protocol = task.noiseless_protocol()
    simulator = make_simulator()
    cache: dict = {}
    collapsed(
        simulator,
        protocol,
        inputs,
        make_channel(10_000),
        shared_seed=10_000,
        codebook_cache=cache,
    )
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for trial in range(trials):
            collapsed(
                simulator,
                protocol,
                inputs,
                make_channel(trial),
                shared_seed=trial,
                codebook_cache=cache,
            )
        elapsed = time.perf_counter() - start
        best = max(best, trials / elapsed)
    return best


def run_vectorized_benchmark(
    quick: bool = False, budget_s: float | None = None
) -> dict:
    """Vectorized / auto / composed backends vs the scalar token engine.

    Per (scheme, n) configuration, with wall-clock-budgeted trial counts:

    * ``vectorized_trials_per_sec`` — the collapsed simulation, same
      seeds and access pattern as the scalar token rate; ``speedup`` is
      the headline per-config acceptance quantity;
    * ``serial_runner_trials_per_sec`` / ``auto_trials_per_sec`` — a
      plain :class:`SerialRunner` vs the calibrated ``auto`` planner,
      measured identically through ``run_trials``; ``auto_speedup`` must
      never drop below 1.0 (:func:`check_vectorized_floors`);
    * ``composed_trials_per_sec`` — the ``vectorized-process`` backend
      at ``_COMPOSED_WORKERS`` workers; its >= 2x-over-vectorized floor
      applies only when the machine has the cores (``cpu_count`` is
      recorded so single-core runs stay honest).

    The scalar token rate doubles as the machine-drift anchor of the
    ``--compare`` regression floor.
    """
    from repro.parallel.planner import AutoRunner
    from repro.vectorized import VectorizedProcessRunner

    parties = SIM_BENCH_PARTIES[:2] if quick else SIM_BENCH_PARTIES
    repeats = 2
    if budget_s is None:
        budget_s = 0.4 if quick else 1.0
    payload: dict = {
        "benchmark": "vectorized_throughput",
        "task": "InputSetTask",
        "channels": {
            "chunked": "CorrelatedNoiseChannel(0.1)",
            "rewind": "SuppressionNoiseChannel(0.1)",
            "repetition": "CorrelatedNoiseChannel(0.1)",
            "hierarchical": "CorrelatedNoiseChannel(0.1)",
        },
        "repeats": repeats,
        "budget_s": budget_s,
        "cpu_count": os.cpu_count() or 1,
        "composed_workers": _COMPOSED_WORKERS,
        "results": [],
    }
    auto_runner = AutoRunner(workers=1)
    composed_runner = VectorizedProcessRunner(workers=_COMPOSED_WORKERS)
    try:
        for scheme in sorted(_SIM_SCHEMES):
            for n in parties:
                trials = _budgeted_trials(scheme, n, budget_s)
                token_rate = _time_simulation(
                    scheme, n, tokens=True, trials=trials, repeats=repeats
                )
                vectorized_rate = _time_vectorized(
                    scheme, n, trials=trials, repeats=repeats
                )
                serial_rate = _time_runner(
                    SerialRunner(), scheme, n, trials, repeats
                )
                auto_rate = _time_runner(
                    auto_runner, scheme, n, trials, repeats
                )
                composed_rate = _time_runner(
                    composed_runner, scheme, n, trials, repeats
                )
                entry = {
                    "scheme": scheme,
                    "n_parties": n,
                    "trials": trials,
                    "token_trials_per_sec": round(token_rate, 3),
                    "vectorized_trials_per_sec": round(vectorized_rate, 3),
                    "speedup": round(vectorized_rate / token_rate, 2),
                    "serial_runner_trials_per_sec": round(serial_rate, 3),
                    "auto_trials_per_sec": round(auto_rate, 3),
                    "auto_speedup": round(auto_rate / serial_rate, 2),
                    "auto_backend": (auto_runner.last_decision or {}).get(
                        "backend"
                    ),
                    "composed_trials_per_sec": round(composed_rate, 3),
                    "composed_speedup_vs_vectorized": round(
                        composed_rate / vectorized_rate, 2
                    ),
                }
                payload["results"].append(entry)
                print(
                    f"{scheme:<12} n={n:<4} "
                    f"tokens {token_rate:>9,.2f}/s   "
                    f"vectorized {vectorized_rate:>9,.2f}/s "
                    f"(x{vectorized_rate / token_rate:.2f})   "
                    f"auto x{auto_rate / serial_rate:.2f} "
                    f"[{entry['auto_backend']}]   "
                    f"composed x{composed_rate / vectorized_rate:.2f} "
                    f"vs vec"
                )
    finally:
        auto_runner.close()
        composed_runner.close()
    return payload


def check_vectorized_floors(payload: dict, attempts: int = 3) -> list[str]:
    """The absolute acceptance floors of the vectorized matrix.

    * ``auto_speedup >= _AUTO_FLOOR`` at every configuration — the
      planner must never make a sweep materially slower than plain
      serial (this is the small-n regression guard: at points below the
      crossover it must dispatch scalar, where the true ratio sits at
      ~1.0, so the floor carries the module-standard 5% wall-clock
      tolerance — a strict 1.0 floor on a ratio of two equal rates is a
      coin flip per run);
    * repetition and hierarchical collapses >= 5x the scalar token
      engine at n=128;
    * the composed backend >= 2x single-core vectorized on chunked
      n=128 — only enforced when the machine has >= ``composed_workers``
      CPUs (a single-core runner cannot show a multicore speedup, but
      the measurement is still recorded).

    Wall-clock floors on shared machines get the same transient-miss
    protocol as the reference comparisons: a failing quantity is
    re-measured and keeps its best-of across ``attempts``.
    """
    from repro.parallel.planner import AutoRunner
    from repro.vectorized import VectorizedProcessRunner

    repeats = payload["repeats"]
    cpu_gated = payload.get("cpu_count", 1) >= payload.get(
        "composed_workers", _COMPOSED_WORKERS
    )

    def floor_misses() -> list[tuple[dict, str]]:
        misses = []
        for entry in payload["results"]:
            scheme, n = entry["scheme"], entry["n_parties"]
            if entry["auto_speedup"] < _AUTO_FLOOR:
                misses.append((entry, "auto"))
            if (
                scheme in ("repetition", "hierarchical")
                and n == 128
                and entry["speedup"] < 5.0
            ):
                misses.append((entry, "vectorized"))
            if (
                cpu_gated
                and scheme == "chunked"
                and n == 128
                and entry["composed_speedup_vs_vectorized"] < 2.0
            ):
                misses.append((entry, "composed"))
        return misses

    misses: list[tuple[dict, str]] = []
    for attempt in range(attempts):
        misses = floor_misses()
        if not misses:
            return []
        if attempt == attempts - 1:
            break
        print(f"re-measuring {len(misses)} floor miss(es)")
        for entry, quantity in misses:
            scheme, n, trials = (
                entry["scheme"],
                entry["n_parties"],
                entry["trials"],
            )
            if quantity == "auto":
                # A ratio floor near 1.0: re-measure *both* sides
                # back-to-back so one lucky scheduler spike on the
                # original serial rate cannot lock the ratio below the
                # floor (a genuinely slower planner still fails every
                # attempt).
                with AutoRunner(workers=1) as runner:
                    rate = _time_runner(runner, scheme, n, trials, repeats)
                serial_rate = _time_runner(
                    SerialRunner(), scheme, n, trials, repeats
                )
                entry["auto_trials_per_sec"] = max(
                    entry["auto_trials_per_sec"], round(rate, 3)
                )
                entry["serial_runner_trials_per_sec"] = max(
                    entry["serial_runner_trials_per_sec"],
                    round(serial_rate, 3),
                )
                entry["auto_speedup"] = round(
                    entry["auto_trials_per_sec"]
                    / entry["serial_runner_trials_per_sec"],
                    2,
                )
            elif quantity == "vectorized":
                rate = _time_vectorized(scheme, n, trials, repeats)
                entry["vectorized_trials_per_sec"] = max(
                    entry["vectorized_trials_per_sec"], round(rate, 3)
                )
                entry["speedup"] = round(
                    entry["vectorized_trials_per_sec"]
                    / entry["token_trials_per_sec"],
                    2,
                )
            else:
                with VectorizedProcessRunner(
                    workers=_COMPOSED_WORKERS
                ) as runner:
                    rate = _time_runner(runner, scheme, n, trials, repeats)
                entry["composed_trials_per_sec"] = max(
                    entry["composed_trials_per_sec"], round(rate, 3)
                )
                entry["composed_speedup_vs_vectorized"] = round(
                    entry["composed_trials_per_sec"]
                    / entry["vectorized_trials_per_sec"],
                    2,
                )
    messages = []
    for entry, quantity in misses:
        scheme, n = entry["scheme"], entry["n_parties"]
        if quantity == "auto":
            messages.append(
                f"{scheme} n={n}: auto backend x"
                f"{entry['auto_speedup']} < {_AUTO_FLOOR} vs serial "
                f"(picked {entry['auto_backend']})"
            )
        elif quantity == "vectorized":
            messages.append(
                f"{scheme} n={n}: vectorized x{entry['speedup']} < 5.0 "
                "vs scalar token engine"
            )
        else:
            messages.append(
                f"{scheme} n={n}: composed x"
                f"{entry['composed_speedup_vs_vectorized']} < 2.0 vs "
                f"single-core vectorized at "
                f"{payload['composed_workers']} workers"
            )
    return messages


def compare_vectorized_to_reference(
    payload: dict, reference: dict, tolerance: float
) -> list[dict]:
    """Regression check of vectorized throughput against a reference run.

    Same drift normalization as :func:`compare_simulation_to_reference`,
    with the scalar token engine as the in-process anchor: its drift
    (measured/reference, clamped to at most 1) scales the floor down on
    slow machines, while a change that slows only the vectorized backend
    leaves the anchor — and therefore the floor — untouched.
    """
    by_config = {
        (entry["scheme"], entry["n_parties"]): entry
        for entry in reference.get("results", [])
    }
    failures: list[dict] = []
    for entry in payload["results"]:
        ref = by_config.get((entry["scheme"], entry["n_parties"]))
        if ref is None:
            continue
        measured = entry["vectorized_trials_per_sec"]
        machine = min(
            1.0,
            entry["token_trials_per_sec"] / ref["token_trials_per_sec"],
        )
        floor = ref["vectorized_trials_per_sec"] * (1.0 - tolerance) * machine
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"compare {entry['scheme']:<8} n={entry['n_parties']:<4} "
            f"measured {measured:>9,.2f} trials/s   "
            f"reference {ref['vectorized_trials_per_sec']:>9,.2f} trials/s   "
            f"floor {floor:>9,.2f}   {verdict}"
        )
        if measured < floor:
            failures.append(entry)
    return failures


def check_vectorized_against_reference(
    payload: dict, reference: dict, tolerance: float, attempts: int = 3
) -> list[str]:
    """``compare_vectorized_to_reference`` with transient-miss retries
    (same protocol as the engine and simulation checks)."""
    repeats = payload["repeats"]
    for attempt in range(attempts):
        failures = compare_vectorized_to_reference(
            payload, reference, tolerance
        )
        if not failures:
            return []
        if attempt == attempts - 1:
            break
        print(f"re-measuring {len(failures)} config(s) that missed the floor")
        for entry in failures:
            rate = _time_vectorized(
                entry["scheme"],
                entry["n_parties"],
                trials=entry["trials"],
                repeats=repeats,
            )
            entry["vectorized_trials_per_sec"] = max(
                entry["vectorized_trials_per_sec"], round(rate, 3)
            )
            entry["speedup"] = round(
                entry["vectorized_trials_per_sec"]
                / entry["token_trials_per_sec"],
                2,
            )
    by_config = {
        (entry["scheme"], entry["n_parties"]): entry
        for entry in reference.get("results", [])
    }
    messages = []
    for entry in failures:
        ref = by_config[(entry["scheme"], entry["n_parties"])]
        machine = min(
            1.0,
            entry["token_trials_per_sec"] / ref["token_trials_per_sec"],
        )
        messages.append(
            f"{entry['scheme']} n={entry['n_parties']}: "
            f"{entry['vectorized_trials_per_sec']:,} trials/s < "
            f"{ref['vectorized_trials_per_sec'] * (1 - tolerance) * machine:,.2f}"
            f" trials/s (reference - {tolerance:.0%}, machine x{machine:.2f})"
        )
    return messages


# ----------------------------------------------------------------------
# Standalone network-topology benchmark (CI benchmark-smoke job)
# ----------------------------------------------------------------------


#: Node counts per family.  The committed reference keeps the full curve
#: through 10^6; --quick stops at 10^5 — the size the batched-kernel
#: acceptance floor is pinned at, so CI exercises it on every run.
NETWORK_BENCH_SIZES = (10_000, 100_000, 1_000_000)
_NETWORK_QUICK_SIZES = (10_000, 100_000)

_NETWORK_FAMILIES = ("grid", "geometric", "scale-free")

#: Per-node flip probability behind the local-broadcast budgets.
_NETWORK_EPSILON = 0.1

#: Fraction of nodes beeping per throughput round — the sparse regime:
#: in the schedulers' steady state few nodes beep concurrently, which is
#: exactly where the O(Σ out-degree(beepers)) path earns its keep.
_NETWORK_BEEPER_FRACTION = 0.001

#: Trial-batch width of the vectorized kernel measurement: wide enough
#: to amortize the per-round plan over the batch, small enough that a
#: 10^6-node (n x batch) matrix stays cache-friendly.
_NETWORK_VECTORIZED_BATCH = 64

#: Acceptance floor: batched trial-rounds/s over scalar sparse rounds/s
#: at the pinned size.  Both rates are measured in the same process, so
#: the ratio is machine-normalized by construction.
_NETWORK_VECTORIZED_FLOOR = 10.0
_NETWORK_FLOOR_N = 100_000

#: Build-time ceilings at the pinned size, in dense full-word rounds of
#: the same graph (``build_s * dense_rounds_per_sec``).  The dense scan is
#: frozen pure-Python code timed in the same process, so the product is
#: drift-normalized: a slow machine slows both.  The numpy builders sit
#: at ~2-3 (grid), ~8-13 (geometric) and ~19-26 (scale-free, whose
#: sampling stays sequential); the pure-Python builders they replaced
#: sat at ~30, ~120 and ~50.
_NETWORK_BUILD_CEILING_ROUNDS = {
    "grid": 10.0,
    "geometric": 40.0,
    "scale-free": 40.0,
}


def _network_bench_spec(family: str, n: int) -> TopologySpec:
    """The benchmarked spec for one (family, n) point.

    The geometric radius tracks sqrt(8 / (pi n)), holding the expected
    degree near 8 as n grows — the bounded-degree regime where Davies'
    local-broadcast budget depends on Δ and T but never on n.
    """
    if family == "grid":
        return TopologySpec.of("grid", n=n)
    if family == "geometric":
        radius = round(math.sqrt(8.0 / (math.pi * n)), 6)
        return TopologySpec.of("geometric", n=n, radius=radius, seed=7)
    if family == "scale-free":
        return TopologySpec.of("scale-free", n=n, m=2, seed=7)
    raise ValueError(f"unknown benchmark family {family!r}")


def _time_network_build(spec: TopologySpec) -> tuple[Topology, float]:
    """A fresh (uncached) build of ``spec`` and its wall time."""
    start = time.perf_counter()
    topology = TOPOLOGIES[spec.kind].builder(**spec.param_dict())
    return topology, time.perf_counter() - start


def _build_in_dense_rounds(entry: dict) -> float:
    """Build time in dense full-word rounds (the drift-normalized form)."""
    return entry["build_s"] * entry["dense_rounds_per_sec"]


def _network_beepers(n: int) -> list[int]:
    """Deterministic ascending beeper ids (step's draw-order contract)."""
    count = max(1, int(n * _NETWORK_BEEPER_FRACTION))
    return sorted(random.Random(1234).sample(range(n), count))


def _time_network_rounds(
    channel: NetworkBeepingChannel,
    beepers: list[int],
    rounds: int,
    repeats: int,
    sparse: bool,
) -> float:
    """Rounds/second of one channel, best of ``repeats`` after a warmup.

    ``sparse`` selects :meth:`NetworkBeepingChannel.step` (the guarded
    engine path) versus :meth:`transmit` on the full n-length word — the
    pre-existing dense scan, which doubles as the in-process
    machine-drift anchor for the regression floor.
    """
    if sparse:

        def run_round() -> None:
            channel.step(beepers)

    else:
        bits = [0] * channel.n_nodes
        for beeper in beepers:
            bits[beeper] = 1
        word = tuple(bits)

        def run_round() -> None:
            channel.transmit(word)

    run_round()  # warmup
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            run_round()
        elapsed = time.perf_counter() - start
        best = max(best, rounds / elapsed)
    return best


def _budgeted_dense_rounds(
    channel: NetworkBeepingChannel, beepers: list[int], budget_s: float
) -> int:
    """Dense-scan round count from a wall-clock budget.

    The dense path is the drift anchor of every network floor, so its
    round count must track the machine, not a hard-coded table — the old
    ``1_000_000 // n`` rule left a 10^6-node anchor resting on a 3-sample
    mean, and every speedup ratio at that size inherited its variance.
    """
    bits = [0] * channel.n_nodes
    for beeper in beepers:
        bits[beeper] = 1
    word = tuple(bits)
    channel.transmit(word)  # warmup
    start = time.perf_counter()
    channel.transmit(word)
    per_round = time.perf_counter() - start
    return trials_for_budget(
        per_round, budget_s, min_trials=3, max_trials=200
    )


def _time_network_vectorized(
    topology, beepers: list[int], rounds: int, repeats: int, batch: int
) -> float:
    """Trial-rounds/second of the batched CSR kernel, ``batch`` trials
    per matrix — directly comparable to the scalar per-trial rates.

    Every round uses a different (rotated) beeper set, so the kernel
    re-plans its gather each round: the expansion-plan cache — a real
    win for local-broadcast bursts — is deliberately kept cold here,
    since the scalar walk it is measured against gets no such reuse.
    """
    import numpy as np

    from repro.vectorized.network import NetworkBatchKernel

    kernel = NetworkBatchKernel(topology, batch)
    n = topology.n
    variants = []
    B = np.zeros((n, batch), dtype=np.uint8)
    for shift in range(8):
        ids = np.unique((np.array(beepers, dtype=np.int64) + shift) % n)
        variants.append(ids)
        B[ids] = 1
    kernel.step(B, variants[0])  # warmup
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for index in range(rounds):
            kernel.step(B, variants[index % len(variants)])
        elapsed = time.perf_counter() - start
        best = max(best, rounds * batch / elapsed)
    return best


def run_network_benchmark(
    quick: bool = False, budget_s: float | None = None
) -> dict:
    """Sparse vs dense network rounds, the batched vectorized kernel,
    and the local-broadcast overhead curve over three topology families;
    returns the results payload."""
    sizes = _NETWORK_QUICK_SIZES if quick else NETWORK_BENCH_SIZES
    repeats = 2
    if budget_s is None:
        budget_s = 0.3 if quick else 1.0
    payload: dict = {
        "benchmark": "network_topology",
        "epsilon": _NETWORK_EPSILON,
        "beeper_fraction": _NETWORK_BEEPER_FRACTION,
        "repeats": repeats,
        "dense_budget_s": budget_s,
        "vectorized_batch": _NETWORK_VECTORIZED_BATCH,
        "results": [],
    }
    for family in _NETWORK_FAMILIES:
        for n in sizes:
            spec = _network_bench_spec(family, n)
            topology, build_s = _time_network_build(spec)
            channel = NetworkBeepingChannel(topology)
            beepers = _network_beepers(n)
            # The dense scan is O(n) per round: derive its round count
            # from the wall-clock budget so the anchor keeps a sane
            # sample size at every n.  Rates are rounds/s, so differing
            # counts remain comparable.
            dense_rounds = _budgeted_dense_rounds(
                channel, beepers, budget_s
            )
            sparse_rounds = 150 if quick else 300
            dense_rate = _time_network_rounds(
                channel, beepers, dense_rounds, repeats, sparse=False
            )
            sparse_rate = _time_network_rounds(
                channel, beepers, sparse_rounds, repeats, sparse=True
            )
            vectorized_rate = _time_network_vectorized(
                topology,
                beepers,
                sparse_rounds,
                repeats,
                _NETWORK_VECTORIZED_BATCH,
            )
            lb_repetitions = local_broadcast_repetitions(
                topology.max_in_degree, 1, _NETWORK_EPSILON
            )
            entry = {
                "family": family,
                "n_nodes": n,
                "label": spec.label(),
                "edges": topology.edges,
                "max_in_degree": topology.max_in_degree,
                "build_s": round(build_s, 3),
                "dense_rounds": dense_rounds,
                "sparse_rounds": sparse_rounds,
                "vectorized_rounds": sparse_rounds,
                "dense_rounds_per_sec": round(dense_rate, 1),
                "sparse_rounds_per_sec": round(sparse_rate, 1),
                "speedup": round(sparse_rate / dense_rate, 1),
                "vectorized_rounds_per_sec": round(vectorized_rate, 1),
                "vectorized_speedup_vs_sparse": round(
                    vectorized_rate / sparse_rate, 1
                ),
                # The overhead curve: local-broadcast repetitions per
                # protocol round at ε, against the single-hop Θ(log n)
                # count on the same node budget.
                "lb_repetitions": lb_repetitions,
                "single_hop_repetitions": repetitions_for(
                    n, _NETWORK_EPSILON
                ),
            }
            if n == sizes[0]:
                # Correctness canary: one end-to-end noisy neighbor-OR
                # trial through the full scheme at 10^4 nodes.
                task = NeighborORTask(topology)
                inputs = task.sample_inputs(random.Random(n))
                start = time.perf_counter()
                result = LocalBroadcastSimulator().simulate(
                    task.noiseless_protocol(),
                    inputs,
                    task.channel(epsilon=_NETWORK_EPSILON, rng=n),
                )
                entry["lb_trial_s"] = round(time.perf_counter() - start, 3)
                entry["lb_correct"] = bool(
                    task.is_correct(inputs, result.outputs)
                )
            payload["results"].append(entry)
            print(
                f"{family:<11} n={n:<9,} "
                f"build {build_s:>6.2f}s   "
                f"dense {dense_rate:>8,.1f} rounds/s   "
                f"sparse {sparse_rate:>10,.1f} rounds/s   "
                f"x{sparse_rate / dense_rate:<7.0f} "
                f"batched {vectorized_rate:>12,.1f} rounds/s "
                f"(x{vectorized_rate / sparse_rate:.0f} vs sparse)   "
                f"lb-reps {lb_repetitions} "
                f"(single-hop {entry['single_hop_repetitions']})"
            )
    return payload


def check_network_floors(payload: dict, attempts: int = 3) -> list[str]:
    """The acceptance floors of the network matrix at 10^5 nodes.

    * Batched kernel: >= ``_NETWORK_VECTORIZED_FLOOR``x the scalar sparse
      walk's rounds/s on every family.  Both rates come from the same
      in-process run, so the ratio needs no reference-file drift anchor.
    * Topology build: <= the family's ``_NETWORK_BUILD_CEILING_ROUNDS``
      dense full-word rounds of the same graph (the dense anchor the
      sparse reference floor uses, measured in the same process).

    Wall-clock floors get the module-standard transient-miss protocol:
    the guarded quantity re-measures and keeps its best-of across
    ``attempts``.
    """
    repeats = payload["repeats"]
    batch = payload.get("vectorized_batch", _NETWORK_VECTORIZED_BATCH)
    pinned = [
        entry
        for entry in payload["results"]
        if entry["n_nodes"] == _NETWORK_FLOOR_N
    ]

    def kernel_misses() -> list[dict]:
        return [
            entry
            for entry in pinned
            if "vectorized_rounds_per_sec" in entry
            and entry["vectorized_rounds_per_sec"]
            < _NETWORK_VECTORIZED_FLOOR * entry["sparse_rounds_per_sec"]
        ]

    def build_misses() -> list[dict]:
        return [
            entry
            for entry in pinned
            if _build_in_dense_rounds(entry)
            > _NETWORK_BUILD_CEILING_ROUNDS[entry["family"]]
        ]

    kernel: list[dict] = []
    build: list[dict] = []
    for attempt in range(attempts):
        kernel, build = kernel_misses(), build_misses()
        if not kernel and not build:
            return []
        if attempt == attempts - 1:
            break
        print(
            f"re-measuring {len(kernel)} batched-kernel and {len(build)} "
            "build floor miss(es)"
        )
        for entry in kernel:
            topology = parse_topology(entry["label"]).build()
            rate = _time_network_vectorized(
                topology,
                _network_beepers(topology.n),
                entry["vectorized_rounds"],
                repeats,
                batch,
            )
            entry["vectorized_rounds_per_sec"] = max(
                entry["vectorized_rounds_per_sec"], round(rate, 1)
            )
            entry["vectorized_speedup_vs_sparse"] = round(
                entry["vectorized_rounds_per_sec"]
                / entry["sparse_rounds_per_sec"],
                1,
            )
        for entry in build:
            _, build_s = _time_network_build(parse_topology(entry["label"]))
            entry["build_s"] = min(entry["build_s"], round(build_s, 3))
    return [
        f"{entry['family']} n={entry['n_nodes']}: batched kernel x"
        f"{entry['vectorized_speedup_vs_sparse']} < "
        f"{_NETWORK_VECTORIZED_FLOOR:.0f}x scalar sparse rounds/s"
        for entry in kernel
    ] + [
        f"{entry['family']} n={entry['n_nodes']}: build {entry['build_s']:.3f}s "
        f"= {_build_in_dense_rounds(entry):.1f} dense rounds > "
        f"{_NETWORK_BUILD_CEILING_ROUNDS[entry['family']]:.0f}"
        for entry in build
    ]


def _remeasure_network_sparse(entry: dict, repeats: int) -> float:
    """Re-time one configuration's sparse path (floor-miss retries)."""
    topology = parse_topology(entry["label"]).build()
    channel = NetworkBeepingChannel(topology)
    beepers = _network_beepers(topology.n)
    return _time_network_rounds(
        channel, beepers, entry["sparse_rounds"], repeats, sparse=True
    )


def compare_network_to_reference(
    payload: dict, reference: dict, tolerance: float
) -> list[dict]:
    """Regression check of sparse-path throughput against a reference.

    Same shape as :func:`compare_simulation_to_reference`, keyed by
    (family, n_nodes): the dense full-word scan is frozen code measured
    in the same process, so its drift (measured/reference, clamped to at
    most 1) scales the floor down on a slow machine, while a change that
    slows only the sparse neighborhood walk leaves the anchor — and
    therefore the floor — untouched.
    """
    by_config = {
        (entry["family"], entry["n_nodes"]): entry
        for entry in reference.get("results", [])
    }
    failures: list[dict] = []
    for entry in payload["results"]:
        ref = by_config.get((entry["family"], entry["n_nodes"]))
        if ref is None:
            continue
        measured = entry["sparse_rounds_per_sec"]
        machine = min(
            1.0,
            entry["dense_rounds_per_sec"] / ref["dense_rounds_per_sec"],
        )
        floor = ref["sparse_rounds_per_sec"] * (1.0 - tolerance) * machine
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"compare {entry['family']:<11} n={entry['n_nodes']:<9,} "
            f"measured {measured:>10,.1f} rounds/s   "
            f"reference {ref['sparse_rounds_per_sec']:>10,.1f} rounds/s   "
            f"floor {floor:>10,.1f}   {verdict}"
        )
        if measured < floor:
            failures.append(entry)
    return failures


def check_network_against_reference(
    payload: dict, reference: dict, tolerance: float, attempts: int = 3
) -> list[str]:
    """``compare_network_to_reference`` with transient-miss retries.

    Mirrors :func:`check_simulation_against_reference`: configurations
    missing the floor re-measure the guarded quantity (sparse path only)
    and keep their best-of across attempts, so one background-load dip
    is not reported while a genuine slowdown still fails every attempt.
    Correctness canaries fail immediately — they are not timing noise.
    """
    messages = [
        f"{entry['family']} n={entry['n_nodes']}: local-broadcast canary "
        f"trial produced a wrong output"
        for entry in payload["results"]
        if entry.get("lb_correct") is False
    ]
    repeats = payload["repeats"]
    failures: list[dict] = []
    for attempt in range(attempts):
        failures = compare_network_to_reference(payload, reference, tolerance)
        if not failures:
            return messages
        if attempt == attempts - 1:
            break
        print(f"re-measuring {len(failures)} config(s) that missed the floor")
        for entry in failures:
            rate = _remeasure_network_sparse(entry, repeats)
            entry["sparse_rounds_per_sec"] = max(
                entry["sparse_rounds_per_sec"], round(rate, 1)
            )
            entry["speedup"] = round(
                entry["sparse_rounds_per_sec"]
                / entry["dense_rounds_per_sec"],
                1,
            )
    by_config = {
        (entry["family"], entry["n_nodes"]): entry
        for entry in reference.get("results", [])
    }
    for entry in failures:
        ref = by_config[(entry["family"], entry["n_nodes"])]
        machine = min(
            1.0,
            entry["dense_rounds_per_sec"] / ref["dense_rounds_per_sec"],
        )
        messages.append(
            f"{entry['family']} n={entry['n_nodes']}: "
            f"{entry['sparse_rounds_per_sec']:,} rounds/s < "
            f"{ref['sparse_rounds_per_sec'] * (1 - tolerance) * machine:,.1f}"
            f" rounds/s (reference - {tolerance:.0%}, machine x{machine:.2f})"
        )
    return messages


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Engine throughput benchmark (fast path vs seed loop)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer trials / shorter protocols (CI smoke mode)",
    )
    parser.add_argument(
        "--simulation",
        action="store_true",
        help=(
            "benchmark end-to-end simulations (token vs dense scheduling) "
            "instead of raw engine throughput"
        ),
    )
    parser.add_argument(
        "--vectorized",
        action="store_true",
        help=(
            "benchmark the trial-batched vectorized backend against the "
            "scalar token engine"
        ),
    )
    parser.add_argument(
        "--network",
        action="store_true",
        help=(
            "benchmark the graph-topology beeping engine (sparse vs "
            "dense rounds, local-broadcast overhead curve) over grid, "
            "geometric and scale-free families"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "where to write the JSON results (default: "
            "results/BENCH_engine.json, or results/BENCH_simulation.json "
            "with --simulation)"
        ),
    )
    parser.add_argument(
        "--compare",
        metavar="REFERENCE_JSON",
        help=(
            "fail if fast-path throughput regresses more than --tolerance "
            "below this reference results file"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed relative throughput drop for --compare (default 0.05)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help=(
            "wall-clock seconds per --vectorized configuration (trial "
            "counts) or per --network dense anchor (round counts); "
            "default: 1.0, or 0.4 / 0.3 with --quick"
        ),
    )
    args = parser.parse_args()
    # Read the reference before running: --compare and --output may name
    # the same file, and the write below would clobber it.
    reference = (
        json.loads(Path(args.compare).read_text()) if args.compare else None
    )
    if args.network:
        payload = run_network_benchmark(
            quick=args.quick, budget_s=args.budget
        )
        check = check_network_against_reference
        default_name = "BENCH_network.json"
    elif args.vectorized:
        payload = run_vectorized_benchmark(
            quick=args.quick, budget_s=args.budget
        )
        check = check_vectorized_against_reference
        default_name = "BENCH_vectorized.json"
    elif args.simulation:
        payload = run_simulation_benchmark(quick=args.quick)
        check = check_simulation_against_reference
        default_name = "BENCH_simulation.json"
    else:
        payload = run_engine_benchmark(quick=args.quick)
        check = check_against_reference
        default_name = "BENCH_engine.json"
    failures: list[str] = []
    if reference is not None:
        # Before writing: retries fold their best-of back into the payload.
        failures = check(payload, reference, args.tolerance)
    if args.vectorized:
        # The absolute floors apply to every run, reference or not.
        failures += check_vectorized_floors(payload)
    if args.network:
        failures += check_network_floors(payload)
    output = Path(
        args.output
        if args.output
        else Path(__file__).parent / "results" / default_name
    )
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if failures:
        print("benchmark floors missed:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if reference is not None:
        print(
            f"throughput within {args.tolerance:.0%} of reference "
            f"({args.compare})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
