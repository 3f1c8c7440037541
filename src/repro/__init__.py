"""repro — a reproduction of *Noisy Beeps* (Efremenko, Kol, Saxena; PODC 2020).

The package implements the n-party beeping model under correlated stochastic
noise, the paper's O(log n)-overhead noise-resilient simulation scheme
(Theorem 1.2, chunked simulation with owner finding), the constant-overhead
scheme for suppression noise, the ``InputSet_n`` hard instance, and the full
lower-bound machinery of Appendix C (feasible sets, good players, the ζ
progress measure) evaluated exactly on small instances.

Quickstart::

    import random
    from repro import (
        CorrelatedNoiseChannel, ChunkCommitSimulator, InputSetTask,
    )

    task = InputSetTask(n_parties=8)
    inputs = task.sample_inputs(random.Random(0))
    channel = CorrelatedNoiseChannel(epsilon=0.1, rng=1)
    result = ChunkCommitSimulator().simulate(
        task.noiseless_protocol(), inputs, channel
    )
    assert result.common_output() == task.reference_output(inputs)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every experiment.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

# Every public name maps to the package that defines it and resolves on
# first use (PEP 562, see ``repro._exports``): ``import repro`` executes
# no subpackage, and a process loads only the modules whose names it
# touches.
_EXPORTS = {
    # channels
    "Channel": "repro.channels",
    "ChannelStats": "repro.channels",
    "RoundOutcome": "repro.channels",
    "NoiselessChannel": "repro.channels",
    "CorrelatedNoiseChannel": "repro.channels",
    "OneSidedNoiseChannel": "repro.channels",
    "SuppressionNoiseChannel": "repro.channels",
    "IndependentNoiseChannel": "repro.channels",
    "CorrectingAdversaryChannel": "repro.channels",
    "BudgetedAdversaryChannel": "repro.channels",
    "SharedFlipReductionChannel": "repro.channels",
    "BurstNoiseChannel": "repro.channels",
    "ScriptedChannel": "repro.channels",
    # core
    "Party": "repro.core",
    "Burst": "repro.core",
    "Silence": "repro.core",
    "FunctionalParty": "repro.core",
    "Protocol": "repro.core",
    "FunctionalProtocol": "repro.core",
    "FormalProtocol": "repro.core",
    "formalize_protocol": "repro.core.formal",
    "NoiseModel": "repro.core.formal",
    "RoundRecord": "repro.core",
    "Transcript": "repro.core",
    "ExecutionResult": "repro.core",
    "run_protocol": "repro.core",
    "SequentialProtocol": "repro.core",
    "TruncatedProtocol": "repro.core",
    "announce_input": "repro.core",
    # coding
    "BlockCode": "repro.coding",
    "RepetitionCode": "repro.coding",
    "HadamardCode": "repro.coding",
    "GreedyRandomCode": "repro.coding",
    "MLDecoder": "repro.coding",
    "MinDistanceDecoder": "repro.coding",
    # simulation
    "Simulator": "repro.simulation",
    "SimulationParameters": "repro.simulation",
    "SimulationReport": "repro.simulation",
    "RepetitionSimulator": "repro.simulation",
    "ChunkCommitSimulator": "repro.simulation",
    "HierarchicalSimulator": "repro.simulation",
    "RewindSimulator": "repro.simulation",
    "OwnersProtocol": "repro.simulation",
    "OneSidedReductionProtocol": "repro.simulation",
    "repetitions_for": "repro.simulation",
    # tasks
    "Task": "repro.tasks",
    "InputSetTask": "repro.tasks",
    "OrTask": "repro.tasks",
    "ParityTask": "repro.tasks",
    "BitExchangeTask": "repro.tasks",
    "MaxIdTask": "repro.tasks",
    "SizeEstimateTask": "repro.tasks",
    "PointerChasingTask": "repro.tasks",
    # parallel trial running
    "TrialRunner": "repro.parallel",
    "SerialRunner": "repro.parallel",
    "ProcessPoolRunner": "repro.parallel",
    "make_runner": "repro.parallel",
    "get_default_runner": "repro.parallel",
    "set_default_runner": "repro.parallel",
    "use_runner": "repro.parallel",
    "ChannelSpec": "repro.parallel",
    "SimulatorSpec": "repro.parallel",
    "ProtocolExecutor": "repro.parallel",
    "SimulationExecutor": "repro.parallel",
    # sweeps
    "SweepSpec": "repro.analysis.sweep",
    "SweepPoint": "repro.analysis.sweep",
    "run_sweep_point": "repro.analysis.sweep",
    "run_sweep": "repro.analysis.sweep",
    # observability
    "Observer": "repro.observe",
    "NullObserver": "repro.observe",
    "NO_OBSERVER": "repro.observe",
    "Sink": "repro.observe",
    "MetricsCollector": "repro.observe",
    "JsonlSink": "repro.observe",
    "SummarySink": "repro.observe",
    "read_jsonl": "repro.observe",
    # sweep service (resumable, cached, sharded)
    "ResultStore": "repro.service",
    "SweepGrid": "repro.service",
    "run_sweep_resumable": "repro.service",
    "sweep_status": "repro.service",
    "ShardSpec": "repro.service",
    "plan_shards": "repro.service",
    "validate_shards": "repro.service",
    "merge_sweep": "repro.service",
    # experiments / reporting
    "run_experiment": "repro.experiments",
    "ExperimentResult": "repro.experiments",
    "REGISTRY": "repro.experiments",
    "generate_report": "repro.analysis.reporting",
    # lower bound
    "LowerBoundAnalyzer": "repro.lowerbound",
    # errors
    "ReproError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "ProtocolError": "repro.errors",
    "ProtocolDesyncError": "repro.errors",
    "TranscriptError": "repro.errors",
    "ChannelError": "repro.errors",
    "CodingError": "repro.errors",
    "DecodingError": "repro.errors",
    "SimulationError": "repro.errors",
    "SimulationBudgetExceeded": "repro.errors",
    "TaskError": "repro.errors",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
