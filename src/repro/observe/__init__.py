"""Zero-overhead observability for the simulation stack.

The rewind-if-error coding scheme succeeds or fails through internal
events — chunk attempts, rewinds, owner disagreements, 0→1 noise hits —
that the result objects only summarize.  This package exposes them as a
**trace-event stream**: instrumented layers (the engine, the simulators,
the trial runners) accept an ``observe=`` keyword and emit typed events
to an :class:`Observer`, which fans them out to pluggable sinks
(:class:`MetricsCollector` in memory, :class:`JsonlSink` on disk,
:class:`SummarySink` for a terminal digest).

Two hard guarantees:

* **Disabled is free.**  ``observe=None`` (the default) costs one
  ``is not None`` test per *execution* — never per round — and the
  :data:`NO_OBSERVER` singleton behaves identically.  The engine hot
  loop contains no instrumentation at all; every event is derived after
  the fact from state the run computes anyway (columnar transcripts,
  channel-stats deltas, simulator reports).
* **Tracing never perturbs.**  Instrumentation consumes no RNG draws,
  so traced and untraced runs are bitwise identical — same transcripts,
  outputs, and :class:`~repro.analysis.sweep.SweepPoint` values
  (enforced by ``tests/unit/test_observe.py``).

Event schema (``"event"`` key plus the listed fields):

========================  ======================================================
event                     fields
========================  ======================================================
``protocol_run``          engine summary, one per execution: ``protocol``,
                          ``n_parties``, ``rounds``, ``beeps_sent``,
                          ``or_ones``, ``flips_up``, ``flips_down``,
                          ``total_energy``, ``elapsed_s``
``noise_flip``            one per noisy round (derived from the transcript's
                          noisy mask): ``round``, ``or_value``, ``direction``
                          (``"up"`` = 0→1, ``"down"`` = 1→0; shared-view
                          convention under independent noise)
``simulation``            one per ``simulate`` call: ``scheme``,
                          ``inner_length``, ``simulated_rounds``,
                          ``overhead``, ``completed``, ``chunk_attempts``,
                          ``chunk_commits``, ``rewinds``
``chunk_attempt``         one per chunk attempt (chunk-commit) or per
                          non-idle leaf (hierarchical): ``attempt``,
                          ``committed_rounds``, ``chunk_rounds``,
                          ``sim_rounds``, ``owner_rounds``,
                          ``verify_rounds``, ``flag``, ``verdict``,
                          ``committed`` (hierarchical leaves omit the
                          verification fields — verdicts arrive later via
                          ``progress_check``)
``owners_phase``          one per owners phase: ``attempt``, ``iterations``,
                          ``owner_rounds``, ``ones``, ``owners_assigned``,
                          ``unowned_ones`` (phantom 1s — the 0→1 artifacts
                          owner-finding exposes), ``disagreement``
``progress_check``        hierarchical only: ``level``, ``votes``,
                          ``chunks_before``, ``chunks_after``, ``truncated``
``rewind``                one per rewind-walk pop: ``iteration``,
                          ``position`` (the transcript index discarded)
``trial``                 one per sweep trial (from the runner): ``index``,
                          ``success``, ``rounds``, ``flips``,
                          ``total_energy``; in-process batches add
                          ``elapsed_s``
``worker_chunk``          ``ProcessPoolRunner`` only (``process``,
                          ``vectorized-process``), one per stripe a pool
                          worker ran: ``chunk`` (stripe number),
                          ``trials``, ``busy_s``
``backend_selected``      ``backend=auto`` planner, one per batch:
                          ``backend``, ``reason``, ``scheme``, ``n``,
                          ``trials``, ``workers``, plus the delegated
                          runner's observed ``fallback_reason`` (null
                          when the batch ran as planned).  Machine-
                          dependent by design — it reflects the local
                          network crossover calibration and CPU
                          count, never the results
``sweep_batch``           one per ``run_trials`` batch: ``trials``,
                          ``workers``, ``utilization``, ``elapsed_s``,
                          ``parallel``, ``fallback``, plus the merged
                          cross-process counters ``channel_rounds``,
                          ``beeps_sent``, ``flips_up``, ``flips_down``
``sweep_point``           one per aggregated grid point: the point's
                          ``params``, ``trials``, ``successes``,
                          ``mean_rounds``, ``mean_overhead``
``cache_hit``             sweep-service result store, one per probed key
                          found (the point is *not* recomputed): ``key``,
                          plus ``index`` when the caller supplies it
``cache_miss``            one per probed key absent or discarded as
                          corrupt (the point will be computed): ``key``,
                          optional ``index``
``cache_put``             one per point checkpointed into the store:
                          ``key``, optional ``index``
``sweep_run``             one per resumable-driver call
                          (:func:`repro.service.run_sweep_resumable`):
                          ``total``, ``computed``, ``hits``,
                          ``elapsed_s``
========================  ======================================================

Wall-clock fields (``elapsed_s``, ``busy_s``, ``utilization``) vary run
to run, and ``backend_selected`` varies by machine; every other field is
seed-determined and backend-invariant.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Observer": "repro.observe.observer",
    "NullObserver": "repro.observe.observer",
    "NO_OBSERVER": "repro.observe.observer",
    "Sink": "repro.observe.sinks",
    "MetricsCollector": "repro.observe.sinks",
    "JsonlSink": "repro.observe.sinks",
    "SummarySink": "repro.observe.sinks",
    "read_jsonl": "repro.observe.sinks",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
