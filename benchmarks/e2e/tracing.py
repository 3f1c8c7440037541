"""Layer spans recorded from the harness, and the per-layer metrics.

The program has no spans of its own yet, so a traced pass wraps the
public callables of each layer where their callers look them up: module
globals bound by ``from x import f``, class attributes for methods, and
registry entries such as the vectorized runner's ``_COLLAPSED_SCHEMES``.
A span records ``(id, parent, name, start, end, value)``; ``value``
carries a count measured at that boundary (edges built, bytes written,
flip bits prefetched).  Spans stay in memory until the pass ends.  Every
workload runs in one process, so one tracer sees every span.

Importing this module imports nothing from the package under test, so
the harness parent and the self-time arithmetic stay stdlib-only.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Iterable

#: Span names that time the harness itself rather than a program layer.
HARNESS_SETUP = "harness.setup"
HARNESS_PASS = "harness.pass"

Span = tuple  # (id, parent, name, start, end, value)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next_id, parent, name, start, end, 0))
        self._next_id += 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[tuple, Any], float] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``measure(args, result)``
        gives the span's value."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = measure(args, result) if measure is not None else 0
            tracer.spans.append((sid, parent, name, start, end, value))
            return result

        return traced


# ---------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro.*`` module global bound to ``original`` at
    ``wrapper`` (``from x import f`` copies the binding per module)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported package."""
    import dataclasses

    import repro.analysis.sweep as sweep
    import repro.coding.ml as ml
    import repro.core.engine as engine
    import repro.experiments as experiments
    import repro.lowerbound.sampling as sampling
    import repro.lowerbound.zeta as zeta
    import repro.network.local_broadcast  # noqa: F401  (a Simulator subclass)
    import repro.network.mis as mis
    import repro.network.tasks as net_tasks
    import repro.network.topology as topology
    import repro.parallel.planner as planner
    import repro.service.store as store
    import repro.simulation.base as simulation
    import repro.vectorized.decoder as decoder
    import repro.vectorized.network as vnetwork
    import repro.vectorized.noise as noise
    import repro.vectorized.runner as vrunner

    def method(cls: type, attribute: str, name: str, measure=None) -> None:
        setattr(cls, attribute, tracer.wrap(name, cls.__dict__[attribute], measure))

    def function(original: Callable, name: str, measure=None) -> Callable:
        wrapper = tracer.wrap(name, original, measure)
        _rebind(original, wrapper)
        return wrapper

    for kind, family in list(topology.TOPOLOGIES.items()):
        topology.TOPOLOGIES[kind] = dataclasses.replace(
            family,
            builder=tracer.wrap(
                "network.topology.build",
                family.builder,
                lambda args, built: built.edges,
            ),
        )
    for cls in (
        net_tasks.NeighborORTask,
        net_tasks.BroadcastTask,
        net_tasks.NetworkSizeEstimateTask,
        mis.MISTask,
    ):
        method(cls, "sample_inputs", "network.tasks.sample_inputs")
        method(cls, "is_correct", "network.tasks.is_correct")

    function(vnetwork.network_records, "vectorized.network.records")
    method(vnetwork.NetworkBatchKernel, "step", "vectorized.network.step")
    method(vnetwork.NetworkBatchKernel, "plan", "vectorized.network.plan")
    method(vnetwork._BatchNetworkChannel, "_node_noise", "vectorized.network.node_noise")

    for simulator, name in (
        (vrunner.ChunkCommitSimulator, "vectorized.schemes.chunked"),
        (vrunner.RewindSimulator, "vectorized.schemes.rewind"),
    ):
        collapsed = vrunner._COLLAPSED_SCHEMES[simulator]
        vrunner._COLLAPSED_SCHEMES[simulator] = function(collapsed, name)
    method(decoder.VectorizedMLDecoder, "decode", "vectorized.decoder.decode")
    method(
        decoder.VectorizedMLDecoder, "decode_batch", "vectorized.decoder.decode_batch"
    )
    method(
        noise.BatchFlips,
        "__init__",
        "vectorized.noise.prefetch",
        lambda args, _: len(args[0]) * args[0].columns,
    )

    method(planner.AutoRunner, "_plan", "parallel.planner.plan")

    method(store.ResultStore, "get", "service.store.get")
    method(
        store.ResultStore,
        "put",
        "service.store.put",
        lambda args, path: path.stat().st_size,
    )
    function(sweep.run_sweep_point, "analysis.sweep.point")

    function(engine.run_protocol, "core.engine.run_protocol")
    for cls in _subclasses(simulation.Simulator):
        fn = cls.__dict__.get("simulate")
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            method(cls, "simulate", "simulation.simulate")
    method(ml.MLDecoder, "decode", "coding.ml.decode")
    method(ml.MinDistanceDecoder, "decode", "coding.ml.decode")
    # The entry points only: per-point methods run ~10^5 times inside
    # them, and nested spans of one name leave its self time unchanged.
    for attribute in ("__init__", "summary", "correctness_probability"):
        method(zeta.LowerBoundAnalyzer, attribute, "lowerbound.zeta")
    function(sampling.estimate_zeta, "lowerbound.zeta")
    for identifier, module in experiments.REGISTRY.items():
        module.run = tracer.wrap(f"experiments.{identifier}", module.run)


# ---------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``value``.

    A span's self time is its duration minus its children's durations.  ``total_s``
    sums only the outermost span of each name, so a recursive call is not
    counted twice.
    """
    spans = list(spans)
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _value in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end, value in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0}
        )
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(sid, 0.0)
        row["value"] += value
        ancestor = by_id.get(parent) if parent is not None else None
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1]) if ancestor[1] is not None else None
        if ancestor is None:
            row["total_s"] += duration
    return table


def _event_counts(events: Iterable[dict[str, Any]]) -> dict[str, float]:
    counts: dict[str, float] = {}
    for record in events:
        event = record["event"]
        if event == "backend_selected":
            key = f"decisions_{record['backend']}"
            counts[key] = counts.get(key, 0) + 1
            if record.get("fallback_reason") is not None:
                counts["fallbacks"] = counts.get("fallbacks", 0) + 1
        elif event in ("cache_hit", "cache_miss"):
            counts[event] = counts.get(event, 0) + 1
    return counts


def summarize(spans: list[Span], events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """One traced pass as additive numbers (see :func:`merge`)."""
    return {"spans": self_times(spans), "counts": _event_counts(events)}


def merge(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Add two :func:`summarize` results (nested dicts of numbers)."""
    out = dict(a)
    for key, value in b.items():
        if isinstance(value, dict):
            out[key] = merge(a.get(key, {}), value)
        else:
            out[key] = a.get(key, 0) + value
    return out


def layer_metrics(
    summary: dict[str, Any],
    traced_wall_s: float,
    untraced_wall_s: float,
    traced_total_s: float,
) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced repetition.

    ``summary`` is the merged cold and warm :func:`summarize` output; the
    wall times are the traced and untraced cold passes, and
    ``traced_total_s`` adds the traced warm pass (the self times cover
    both passes).
    """
    spans = summary.get("spans", {})
    counts = summary.get("counts", {})

    def get(name: str, field: str) -> float:
        return float(spans.get(name, {}).get(field, 0.0))

    metrics: dict[str, float] = {
        "network.topology.build_s": get("network.topology.build", "total_s"),
        "network.topology.edges": get("network.topology.build", "value"),
        "network.tasks.sample_inputs_s": get("network.tasks.sample_inputs", "total_s"),
        "network.tasks.is_correct_s": get("network.tasks.is_correct", "total_s"),
        "vectorized.network.records_s": get("vectorized.network.records", "total_s"),
        "vectorized.network.step_calls": get("vectorized.network.step", "calls"),
        "vectorized.network.step_s": get("vectorized.network.step", "total_s"),
        "vectorized.network.plan_calls": get("vectorized.network.plan", "calls"),
        "vectorized.network.plan_s": get("vectorized.network.plan", "total_s"),
        "vectorized.network.node_noise_s": get("vectorized.network.node_noise", "total_s"),
        "vectorized.schemes.rewind_calls": get("vectorized.schemes.rewind", "calls"),
        "vectorized.schemes.rewind_self_s": get("vectorized.schemes.rewind", "self_s"),
        "vectorized.schemes.chunked_calls": get("vectorized.schemes.chunked", "calls"),
        "vectorized.schemes.chunked_self_s": get("vectorized.schemes.chunked", "self_s"),
        "vectorized.decoder.decode_calls": get("vectorized.decoder.decode", "calls"),
        "vectorized.decoder.decode_s": get("vectorized.decoder.decode", "total_s"),
        "vectorized.decoder.decode_batch_calls": get("vectorized.decoder.decode_batch", "calls"),
        "vectorized.decoder.decode_batch_s": get("vectorized.decoder.decode_batch", "total_s"),
        "vectorized.noise.prefetch_s": get("vectorized.noise.prefetch", "total_s"),
        "vectorized.noise.prefetch_bits": get("vectorized.noise.prefetch", "value"),
        "parallel.planner.plan_s": get("parallel.planner.plan", "total_s"),
        "parallel.planner.fallbacks": counts.get("fallbacks", 0),
        "service.store.get_calls": get("service.store.get", "calls"),
        "service.store.get_s": get("service.store.get", "total_s"),
        "service.store.hit_ratio": (
            counts.get("cache_hit", 0)
            / (counts.get("cache_hit", 0) + counts.get("cache_miss", 0))
            if counts.get("cache_hit", 0) + counts.get("cache_miss", 0)
            else 0.0
        ),
        "service.store.put_calls": get("service.store.put", "calls"),
        "service.store.put_s": get("service.store.put", "total_s"),
        "service.store.bytes": get("service.store.put", "value"),
        "analysis.sweep.point_calls": get("analysis.sweep.point", "calls"),
        "analysis.sweep.point_self_s": get("analysis.sweep.point", "self_s"),
        "core.engine.run_protocol_calls": get("core.engine.run_protocol", "calls"),
        "core.engine.run_protocol_s": get("core.engine.run_protocol", "total_s"),
        "simulation.simulate_calls": get("simulation.simulate", "calls"),
        "simulation.simulate_s": get("simulation.simulate", "total_s"),
        "coding.ml.decode_calls": get("coding.ml.decode", "calls"),
        "coding.ml.decode_s": get("coding.ml.decode", "total_s"),
        "lowerbound.zeta.self_s": get("lowerbound.zeta", "self_s"),
        "trace.overhead_frac": (
            traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
        ),
        "trace.self_sum_frac": (
            sum(row["self_s"] for row in spans.values()) / traced_total_s
            if traced_total_s
            else 0.0
        ),
    }
    for backend in ("serial", "vectorized"):
        metrics[f"parallel.planner.decisions_{backend}"] = counts.get(
            f"decisions_{backend}", 0
        )
    for number in range(1, 14):
        metrics[f"experiments.E{number}_s"] = get(f"experiments.E{number}", "total_s")
    return metrics


def dominant(spans: dict[str, dict[str, float]]) -> str | None:
    """The layer with the most self time."""
    candidates = {
        name: row["self_s"]
        for name, row in spans.items()
        if not name.startswith("harness.")
    }
    return max(candidates, key=candidates.get) if candidates else None
