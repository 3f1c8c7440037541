"""The curated public facade: everything in ``repro.__all__`` resolves.

docs/api.md documents the top-level surface; this suite pins it:

* every exported name is importable directly from ``repro``;
* the lazy exports (experiments, reporting) resolve on first touch but
  are *not* imported by a bare ``import repro`` — the registry pulls in
  all 13 experiment modules, which library users shouldn't pay for.
"""

from __future__ import annotations

import subprocess
import sys

import repro


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


def test_lazy_exports_resolve():
    assert callable(repro.run_experiment)
    assert callable(repro.generate_report)
    assert "E1" in repro.REGISTRY
    assert repro.ExperimentResult is not None


def test_dir_includes_lazy_names():
    listing = dir(repro)
    for name in ("run_experiment", "REGISTRY", "generate_report"):
        assert name in listing


def test_import_repro_does_not_load_experiments():
    # Run in a fresh interpreter: this process has already resolved the
    # lazy names above.
    code = (
        "import sys; import repro; "
        "sys.exit(1 if 'repro.experiments' in sys.modules else 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code])
    assert proc.returncode == 0, "import repro eagerly loaded experiments"
