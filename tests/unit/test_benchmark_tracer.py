"""The end-to-end benchmark's tracer still finds every layer it wraps.

``benchmarks/e2e/tracing.py`` wraps methods by name through the class
``__dict__`` (``MISTask.sample_inputs``,
``_BatchNetworkChannel._node_noise``, ...), so renaming or moving one
breaks every traced benchmark run.  These install the tracer in a fresh
interpreter (installing patches classes process-wide) and check the
spans: one batched local-broadcast MIS batch under per-node noise records
one kernel step and one flip draw per virtual round, and one scalar trial
of each simulation scheme records one ``simulation.simulate`` span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json
import sys

sys.path.insert(0, "benchmarks/e2e")
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)

from repro.network import (
    LocalBroadcastSimulator,
    MISTask,
    NetworkBeepingChannel,
    TopologySpec,
)
from repro.parallel import ChannelSpec, SimulationExecutor, SimulatorSpec
from repro.vectorized import VectorizedRunner

spec = TopologySpec.of("grid", rows=4, cols=4)
task = MISTask(spec.build(), cycles=2)
executor = SimulationExecutor(
    task=task,
    channel=ChannelSpec.of(NetworkBeepingChannel, 0.05, topology=spec),
    simulator=SimulatorSpec.of(LocalBroadcastSimulator),
)
runner = VectorizedRunner()
runner.run_trials(task, executor, 2, seed=3)
assert runner.last_fallback_reason is None, runner.last_fallback_reason
calls = {
    name: row["calls"] for name, row in tracing.self_times(tracer.spans).items()
}
print(json.dumps({"phases": task.phases, "calls": calls}))
"""


SCHEMES_SCRIPT = """
import json
import random
import sys

sys.path.insert(0, "benchmarks/e2e")
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)

from repro.channels import CorrelatedNoiseChannel, SuppressionNoiseChannel
from repro.network import (
    LocalBroadcastSimulator,
    NeighborORTask,
    NetworkBeepingChannel,
    TopologySpec,
)
from repro.simulation import (
    ChunkCommitSimulator,
    HierarchicalSimulator,
    RepetitionSimulator,
    RewindSimulator,
)
from repro.tasks import ParityTask

task = ParityTask(3)
inputs = task.sample_inputs(random.Random(0))
for simulator, channel in (
    (ChunkCommitSimulator(), CorrelatedNoiseChannel(0.1, rng=1)),
    (HierarchicalSimulator(), CorrelatedNoiseChannel(0.1, rng=1)),
    (RepetitionSimulator(), CorrelatedNoiseChannel(0.1, rng=1)),
    (RewindSimulator(), SuppressionNoiseChannel(0.1, rng=1)),
):
    simulator.simulate(task.noiseless_protocol(), inputs, channel)
spec = TopologySpec.of("grid", rows=2, cols=2)
net_task = NeighborORTask(spec.build())
LocalBroadcastSimulator().simulate(
    net_task.noiseless_protocol(),
    net_task.sample_inputs(random.Random(0)),
    NetworkBeepingChannel(spec.build(), 0.05, rng=1),
)
print(json.dumps(tracing.self_times(tracer.spans)["simulation.simulate"]))
"""


def _traced(script: str) -> dict:
    """The last stdout line of ``script`` run with the tracer, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_batch_records_one_step_and_draw_per_virtual_round():
    result = _traced(SCRIPT)
    calls = result["calls"]
    virtual_rounds = 2 * result["phases"]
    assert calls["network.tasks.sample_inputs"] == 2
    assert calls["vectorized.network.records"] == 1
    assert calls["vectorized.network.step"] == virtual_rounds
    assert calls["vectorized.network.node_noise"] == virtual_rounds


def test_every_scheme_records_a_simulate_span():
    """Each of the five schemes defines its own ``simulate``, which the
    tracer wraps; an inherited one would drop out of the metric."""
    assert _traced(SCHEMES_SCRIPT)["calls"] == 5
