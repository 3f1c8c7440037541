"""The sweep service: resumable, cached, sharded Monte-Carlo sweeps.

The determinism contract (PR 2) makes every sweep point a pure function
of ``(what runs, trials, seed, index)`` — bitwise reproducible, hence
**cacheable forever**.  This package is the production shape built on
that fact:

* :mod:`repro.service.canon` — canonical JSON and the content-addressed
  cache-key contract (:func:`point_key`);
* :mod:`repro.service.store` — :class:`ResultStore`, the crash-safe
  on-disk object store (atomic renames, self-healing reads, hit/miss
  counters mirrored into :mod:`repro.observe` events);
* :mod:`repro.service.grid` — :class:`SweepGrid`, the declarative,
  serializable description of a sweep (task × ns × channel × simulator);
* :mod:`repro.service.driver` — :func:`run_sweep_resumable`, the
  checkpointing driver: every completed point persists immediately, an
  interrupted sweep resumes by simply re-running, and results are
  bitwise identical to a cold :func:`~repro.analysis.sweep.run_sweep`;
* :mod:`repro.service.shards` — :func:`plan_shards` /
  :func:`validate_shards` / :func:`merge_sweep`, splitting one grid
  across processes or machines and reassembling the ordered result;
* :mod:`repro.service.cli` — the ``repro sweep run|status|resume|merge|gc``
  verbs.

Quickstart::

    from repro import ResultStore, SweepGrid, run_sweep_resumable

    grid = SweepGrid(task="parity", ns=(4, 8, 16), trials=50, seed=7)
    store = ResultStore("results-cache")
    points = run_sweep_resumable(
        grid.ns, grid.build_point, grid.spec(),
        store=store, workload=grid.workload(),
    )  # second call: all cache hits, milliseconds

See the "Sweep service" section of ``docs/api.md`` for the cache-key
contract, invalidation rules, and the cache-dir layout.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CACHE_SCHEMA_VERSION": "repro.service.canon",
    "canonical_json": "repro.service.canon",
    "content_key": "repro.service.canon",
    "point_key": "repro.service.canon",
    "ResultStore": "repro.service.store",
    "SweepGrid": "repro.service.grid",
    "run_sweep_resumable": "repro.service.driver",
    "sweep_status": "repro.service.driver",
    "ShardSpec": "repro.service.shards",
    "plan_shards": "repro.service.shards",
    "validate_shards": "repro.service.shards",
    "merge_sweep": "repro.service.shards",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
