"""The five end-to-end workloads, as plain data.

Stdlib only: the harness parent reads this table without importing the
package under test; ``child.py`` turns a row into library calls.

Each sweep is sized so one cold pass takes 1.5-2.5 s on a 2-core host
(the paper-scale report is the exception, ~10 s).  A run repeats
passes for ``--seconds`` and reports medians, so a short pass means more
samples per run and a steadier median on a noisy shared machine.  Every
workload runs in one process (``workers=1``): on a 2-core host a pool
that needs both cores at once times the host's other tenants, not the
program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: The ``--workload`` value.
        why: One line on what this workload stresses.
        kind: ``"report"`` (``generate_report``) or ``"sweep"``
            (``SweepGrid`` through the result store).
        params: ``generate_report`` keywords for a report; ``SweepGrid``
            fields for a sweep, where ``topology`` is a ``parse_topology``
            string with a ``{seed}`` placeholder.
        replay: Replay one sampled trial per point on the scalar engine.
        success_floor: Lowest success rate a sweep point may report.
    """

    name: str
    why: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    replay: bool = False
    success_floor: float = 0.0


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="report",
        why="the published repro report (E1-E13, scale 1.0): scalar engine, "
        "simulators, ML decode and the lower-bound zeta enumeration",
        kind="report",
        params={"scale": 1.0},
    ),
    Workload(
        name="chunk-commit",
        why="Theorem 1.2 chunk-commit sweep, n=16-128, in-process: collapsed "
        "chunked scheme, vectorized ML decode and noise prefetch",
        kind="sweep",
        params={
            "task": "input-set",
            "ns": (16, 32, 64, 128),
            "channel": "correlated",
            "epsilon": 0.1,
            "simulator": "chunk",
            "trials": 32,
        },
        replay=True,
        success_floor=0.9,
    ),
    Workload(
        name="rewind-suppression",
        why="constant-overhead rewind scheme under 1->0 noise, in-process; "
        "n=8 routes scalar, n=32/128 vectorized",
        kind="sweep",
        params={
            "task": "input-set",
            "ns": (8, 32, 128),
            "channel": "suppression",
            "epsilon": 0.1,
            "simulator": "rewind",
            "trials": 24,
        },
        replay=True,
        success_floor=0.9,
    ),
    Workload(
        name="net-large",
        why="one large network point (100k-node geometric graph): topology "
        "build, per-node input sampling and bandwidth-bound kernel rounds",
        kind="sweep",
        params={
            "task": "neighbor-or",
            "ns": (100000,),
            "channel": "independent",
            "epsilon": 0.05,
            "simulator": "local-broadcast",
            "trials": 4,
            # Mean degree 8, as the 200k-node point at radius 0.003568.
            "topology": "geometric:radius=0.005046,seed={seed}",
        },
        replay=True,
        success_floor=0.9,
    ),
    Workload(
        name="net-mis",
        why="MIS under local broadcast on a 1k-node graph: ~30k tiny kernel "
        "rounds, so per-round overhead and the plan cache dominate",
        kind="sweep",
        params={
            "task": "mis",
            "ns": (1024,),
            "channel": "independent",
            "epsilon": 0.05,
            "simulator": "local-broadcast",
            "trials": 4,
            "topology": "geometric:radius=0.05,seed={seed}",
        },
        # A scalar replay costs ~10 s here; the seed-0 pin and the
        # success floor stand in for it.
        replay=False,
        success_floor=0.75,
    ),
)

BY_NAME: dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}
