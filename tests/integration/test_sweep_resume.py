"""Crash-safety integration: SIGTERM a live ``repro sweep run``, resume,
and land bitwise on the uninterrupted result.

The unit suite injects exceptions to interrupt the driver at exact
points (both runner backends); this test kills a real subprocess at an
*arbitrary* instant — whatever the OS delivers — so it exercises the
atomic-rename checkpointing under genuinely unplanned death: no
``finally`` blocks, no flushes, the process just stops.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.sweep import run_sweep
from repro.parallel import make_runner
from repro.service import ResultStore, SweepGrid, run_sweep_resumable

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="POSIX signals required"
)

REPO_ROOT = Path(__file__).resolve().parents[2]

# The subprocess runs the grid on the scalar engine: its first point
# (n = 4) checkpoints ~0.25 s after the spawn and the rest takes ~3.5 s
# more (measured on a 2-vCPU host), a wide window for the kill.  The
# resume and the uninterrupted reference run in-process on the collapsed
# backend (~0.2 s; bitwise equal to the scalar one), so the window costs
# nothing unless the kill misses it.
GRID = SweepGrid(
    task="parity", ns=(4, 64, 96, 128), trials=8, seed=3, simulator="chunk"
)


def _sweep_cmd(cache_dir: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "run",
        "--task",
        GRID.task,
        "--ns",
        *[str(n) for n in GRID.ns],
        "--trials",
        str(GRID.trials),
        "--seed",
        str(GRID.seed),
        "--simulator",
        GRID.simulator,
        "--cache-dir",
        str(cache_dir),
        "--backend",
        "serial",
    ]


def test_sigterm_mid_sweep_then_resume_bitwise_equal(tmp_path):
    cache_dir = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        _sweep_cmd(cache_dir),
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    store = ResultStore(cache_dir)
    try:
        # Wait until at least one point is checkpointed, then kill the
        # process wherever it happens to be.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None or any(True for _ in store.keys()):
                break
            time.sleep(0.05)
        else:
            pytest.fail("sweep never checkpointed a point")
        assert proc.poll() is None, "the sweep ended before the kill"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        assert proc.returncode != 0  # it really was killed mid-run
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)

    # Resume in-process: cached points are reused, the missing tail is
    # computed, and the final curve is bitwise the uninterrupted one.
    runner = make_runner(backend="vectorized")
    resumed = run_sweep_resumable(
        GRID.ns,
        GRID.build_point,
        GRID.spec(runner=runner),
        store=store,
        workload=GRID.workload(),
    )
    cold = run_sweep(GRID.ns, GRID.build_point, GRID.spec(runner=runner))
    assert [p.to_dict() for p in resumed] == [p.to_dict() for p in cold]
    assert store.counters["hits"] >= 1  # the pre-kill checkpoints served
