"""The curated public facade: every exported name resolves, on first use.

docs/api.md documents the top-level surface; this suite pins it:

* every exported name of every package resolves, is listed by ``dir()``
  and comes with ``from <package> import *``;
* names resolve lazily (``repro._exports``), so a process loads only
  the modules it runs: each row of ``IMPORT_SETS`` runs a scenario in a
  fresh interpreter and checks which modules it loaded (``repro``'s own,
  and whether numpy came with them).
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[2] / "src"

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _fresh(code: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a new interpreter; its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_all_names_resolve():
    missing = [
        name for name in repro.__all__ if getattr(repro, name, None) is None
    ]
    assert not missing, f"repro.__all__ names failed to resolve: {missing}"


def test_all_is_sorted_sections_and_unique():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_documented_api_imports():
    # The names docs/api.md leads with, spelled exactly as documented.
    from repro import (  # noqa: F401
        CorrelatedNoiseChannel,
        ChunkCommitSimulator,
        HierarchicalSimulator,
        InputSetTask,
        JsonlSink,
        MetricsCollector,
        NO_OBSERVER,
        Observer,
        ProcessPoolRunner,
        RewindSimulator,
        SummarySink,
        SweepSpec,
        run_protocol,
        run_sweep,
        run_sweep_point,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_resolve_and_are_listed(package):
    module = import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in listing, f"{package}.{name} missing from dir()"


def test_lazy_values_are_the_defining_objects():
    import repro.lowerbound
    import repro.lowerbound.theory
    from repro.experiments import REGISTRY

    assert repro.lowerbound.theory is sys.modules["repro.lowerbound.theory"]
    assert callable(repro.run_experiment)
    assert callable(repro.generate_report)
    assert repro.REGISTRY is REGISTRY and "E1" in REGISTRY
    assert repro.ChunkCommitSimulator is import_module(
        "repro.simulation.chunked"
    ).ChunkCommitSimulator


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018


def test_star_imports_in_a_fresh_interpreter():
    # One interpreter per package: a submodule export (lowerbound's
    # ``theory``) must resolve before anything else imported it.
    for package in PACKAGES:
        code = (
            "import json, sys\n"
            f"from {package} import *\n"
            f"exported = sys.modules[{package!r}].__all__\n"
            "print(json.dumps([n for n in exported if n not in globals()]))\n"
        )
        assert json.loads(_fresh(code)) == [], package


# ---------------------------------------------------------------------
# Import sets: what a scenario loads
# ---------------------------------------------------------------------

_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('repro', 'numpy'))))\n"
)

_SWEEP = (
    "from repro import ResultStore, SweepGrid, make_runner, "
    "run_sweep_resumable\n"
    "grid = SweepGrid({grid})\n"
    "runner = make_runner(1, backend='auto')\n"
    "run_sweep_resumable(grid.ns, grid.build_point, "
    "grid.spec(runner=runner), store=ResultStore('store'), "
    "workload=grid.workload())\n"
    "runner.close()\n"
)

_CHUNK = "task='parity', ns=(3, 4), trials=2, simulator='chunk'"
_REWIND = (
    "task='input-set', ns=(8, 32), trials=2, channel='suppression', "
    "simulator='rewind'"
)
_NETWORK = (
    "task='neighbor-or', ns=(16, 25), trials=2, channel='independent', "
    "simulator='none', topology={'kind': 'geometric', 'radius': 0.4, "
    "'seed': 3}"
)

#: Naming, parsing and listing topologies builds none.
_TOPOLOGY_SPECS = (
    "from repro.network.topology import parse_topology, TopologySpec\n"
    "spec = parse_topology('grid:4x4')\n"
    "assert spec == TopologySpec.of('grid', rows=4, cols=4)\n"
    "from repro.cli import main\n"
    "assert main(['info']) == 0\n"
)

#: ``(id, scenario, store to fill first, module prefixes it must not
#: load)``.
IMPORT_SETS = [
    ("import-repro", "import repro\n", None, ("repro.",)),
    (
        "warm-single-hop-sweep",
        _SWEEP.format(grid=_CHUNK),
        _CHUNK,
        (
            "numpy",
            "repro.vectorized",
            "repro.coding",
            "repro.lowerbound",
            "repro.simulation.chunked",
        ),
    ),
    (
        "warm-network-sweep",
        _SWEEP.format(grid=_NETWORK),
        _NETWORK,
        ("numpy", "repro.vectorized"),
    ),
    ("topology-specs", _TOPOLOGY_SPECS, None, ("numpy",)),
    (
        "cold-rewind-sweep",
        _SWEEP.format(grid=_REWIND),
        None,
        (
            "repro.vectorized.network",
            "repro.lowerbound",
            "repro.analysis.reporting",
            "repro.simulation.chunked",
            "repro.simulation.owners",
            "repro.coding",
        ),
    ),
]


@pytest.mark.parametrize(
    "scenario, fill, forbidden",
    [row[1:] for row in IMPORT_SETS],
    ids=[row[0] for row in IMPORT_SETS],
)
def test_import_set(tmp_path, scenario, fill, forbidden):
    if fill is not None:
        _fresh(_SWEEP.format(grid=fill) + "print()", cwd=tmp_path)
    loaded = json.loads(_fresh(scenario + _LOADED, cwd=tmp_path))
    assert "repro" in loaded
    unwanted = [
        module
        for module in loaded
        if module != "repro._exports" and module.startswith(forbidden)
    ]
    assert not unwanted, f"loaded {unwanted}"
