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

from repro.channels import (
    BudgetedAdversaryChannel,
    BurstNoiseChannel,
    Channel,
    ScriptedChannel,
    ChannelStats,
    CorrectingAdversaryChannel,
    CorrelatedNoiseChannel,
    IndependentNoiseChannel,
    NoiselessChannel,
    OneSidedNoiseChannel,
    RoundOutcome,
    SharedFlipReductionChannel,
    SuppressionNoiseChannel,
)
from repro.core import (
    Burst,
    ExecutionResult,
    SequentialProtocol,
    TruncatedProtocol,
    announce_input,
    FormalProtocol,
    FunctionalParty,
    FunctionalProtocol,
    Party,
    Protocol,
    RoundRecord,
    Silence,
    Transcript,
    run_protocol,
)
from repro.core.formal import NoiseModel, formalize_protocol
from repro.coding import (
    BlockCode,
    GreedyRandomCode,
    HadamardCode,
    MLDecoder,
    MinDistanceDecoder,
    RepetitionCode,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    OneSidedReductionProtocol,
    OwnersProtocol,
    RepetitionSimulator,
    RewindSimulator,
    SimulationParameters,
    SimulationReport,
    Simulator,
    repetitions_for,
)
from repro.tasks import (
    BitExchangeTask,
    InputSetTask,
    MaxIdTask,
    OrTask,
    ParityTask,
    PointerChasingTask,
    SizeEstimateTask,
    Task,
)
from repro.parallel import (
    ChannelSpec,
    ProcessPoolRunner,
    ProtocolExecutor,
    SerialRunner,
    SimulationExecutor,
    SimulatorSpec,
    TrialRunner,
    get_default_runner,
    make_runner,
    set_default_runner,
    use_runner,
)
from repro.analysis.sweep import (
    SweepPoint,
    SweepSpec,
    run_sweep,
    run_sweep_point,
)
from repro.observe import (
    JsonlSink,
    MetricsCollector,
    NO_OBSERVER,
    NullObserver,
    Observer,
    Sink,
    SummarySink,
    read_jsonl,
)
from repro.service import (
    ResultStore,
    ShardSpec,
    SweepGrid,
    merge_sweep,
    plan_shards,
    run_sweep_resumable,
    sweep_status,
    validate_shards,
)
from repro.lowerbound import LowerBoundAnalyzer
from repro.errors import (
    ChannelError,
    CodingError,
    ConfigurationError,
    DecodingError,
    ProtocolDesyncError,
    ProtocolError,
    ReproError,
    SimulationBudgetExceeded,
    SimulationError,
    TaskError,
    TranscriptError,
)

__version__ = "1.0.0"

__all__ = [
    # channels
    "Channel",
    "ChannelStats",
    "RoundOutcome",
    "NoiselessChannel",
    "CorrelatedNoiseChannel",
    "OneSidedNoiseChannel",
    "SuppressionNoiseChannel",
    "IndependentNoiseChannel",
    "CorrectingAdversaryChannel",
    "BudgetedAdversaryChannel",
    "SharedFlipReductionChannel",
    "BurstNoiseChannel",
    "ScriptedChannel",
    # core
    "Party",
    "Burst",
    "Silence",
    "FunctionalParty",
    "Protocol",
    "FunctionalProtocol",
    "FormalProtocol",
    "formalize_protocol",
    "NoiseModel",
    "RoundRecord",
    "Transcript",
    "ExecutionResult",
    "run_protocol",
    "SequentialProtocol",
    "TruncatedProtocol",
    "announce_input",
    # coding
    "BlockCode",
    "RepetitionCode",
    "HadamardCode",
    "GreedyRandomCode",
    "MLDecoder",
    "MinDistanceDecoder",
    # simulation
    "Simulator",
    "SimulationParameters",
    "SimulationReport",
    "RepetitionSimulator",
    "ChunkCommitSimulator",
    "HierarchicalSimulator",
    "RewindSimulator",
    "OwnersProtocol",
    "OneSidedReductionProtocol",
    "repetitions_for",
    # tasks
    "Task",
    "InputSetTask",
    "OrTask",
    "ParityTask",
    "BitExchangeTask",
    "MaxIdTask",
    "SizeEstimateTask",
    "PointerChasingTask",
    # parallel trial running
    "TrialRunner",
    "SerialRunner",
    "ProcessPoolRunner",
    "make_runner",
    "get_default_runner",
    "set_default_runner",
    "use_runner",
    "ChannelSpec",
    "SimulatorSpec",
    "ProtocolExecutor",
    "SimulationExecutor",
    # sweeps
    "SweepSpec",
    "SweepPoint",
    "run_sweep_point",
    "run_sweep",
    # observability
    "Observer",
    "NullObserver",
    "NO_OBSERVER",
    "Sink",
    "MetricsCollector",
    "JsonlSink",
    "SummarySink",
    "read_jsonl",
    # sweep service (resumable, cached, sharded)
    "ResultStore",
    "SweepGrid",
    "run_sweep_resumable",
    "sweep_status",
    "ShardSpec",
    "plan_shards",
    "validate_shards",
    "merge_sweep",
    # experiments / reporting (lazy — see __getattr__)
    "run_experiment",
    "ExperimentResult",
    "REGISTRY",
    "generate_report",
    # lower bound
    "LowerBoundAnalyzer",
    # errors
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "ProtocolDesyncError",
    "TranscriptError",
    "ChannelError",
    "CodingError",
    "DecodingError",
    "SimulationError",
    "SimulationBudgetExceeded",
    "TaskError",
]


# The experiment registry imports all 13 experiment modules; the report
# generator pulls in the registry.  Resolve these names lazily (PEP 562)
# so ``import repro`` stays light for library users.
_LAZY_EXPORTS = {
    "run_experiment": ("repro.experiments", "run_experiment"),
    "ExperimentResult": ("repro.experiments", "ExperimentResult"),
    "REGISTRY": ("repro.experiments", "REGISTRY"),
    "generate_report": ("repro.analysis.reporting", "generate_report"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: resolve once per process
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
