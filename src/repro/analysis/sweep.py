"""Monte-Carlo sweep drivers.

The benchmarks all share one loop: sample task inputs, run some executor
(a raw protocol or a simulator) over a freshly seeded channel, check the
outputs, aggregate.  :class:`SweepSpec` names the loop's execution knobs
once — ``trials``, ``seed``, ``runner``, ``observe`` — and
:func:`run_sweep_point` is the one way to run a Monte-Carlo point:
``run_sweep_point(task, executor, SweepSpec(trials, seed), params=...)``.
:func:`run_sweep` runs it over a grid, deriving each point's seed.

Executors receive ``(inputs, trial_seed)`` and return an
:class:`~repro.core.result.ExecutionResult`; they are expected to construct
their own channel from ``trial_seed`` so every trial is independent and the
whole sweep is reproducible from one master seed.

Trial execution is delegated to a pluggable
:class:`~repro.parallel.runner.TrialRunner` (pass ``runner=`` or install a
process-wide default with :func:`repro.parallel.use_runner`).  Because a
trial's randomness depends only on ``(seed, trial index)`` and aggregation
happens here in index order, every backend — serial or process pool, any
worker count, any chunk size — produces bitwise identical
:class:`SweepPoint` values.  Wall-clock measurements go to
:attr:`SweepPoint.timing`, which ``to_dict()`` excludes by default so
serialized results stay backend-independent.  The same invariance holds
for tracing: an :class:`~repro.observe.Observer` receives ``trial`` /
``sweep_batch`` / ``sweep_point`` events derived from the records, never
influences them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe import Observer

from repro.analysis.stats import ProportionEstimate, mean
from repro.core.result import ExecutionResult
from repro.errors import ConfigurationError
from repro.parallel import TrialBatch, TrialRunner, get_default_runner
from repro.rng import derive_seed
from repro.tasks.base import Task

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "run_sweep_point",
    "run_sweep",
]

Executor = Callable[[Sequence[Any], int], ExecutionResult]


@dataclass
class SweepPoint:
    """One grid point of a sweep.

    Attributes:
        params: The grid coordinates (e.g. ``{"n": 16, "epsilon": 0.1}``).
        success: Success-probability estimate with its Wilson interval.
        mean_rounds: Mean channel rounds per trial.
        mean_overhead: Mean ``rounds / noiseless_length`` per trial.
        extras: Aggregated simulator metadata (mean retries etc.) and
            per-trial channel-stat means — deterministic, backend-agnostic.
        timing: Runner wall-clock bookkeeping (``trials_per_s``,
            ``utilization``, ``fallback`` ...).  Excluded from
            :meth:`to_dict` by default: timing differs run to run, the
            measurement must not.
    """

    params: dict[str, Any]
    success: ProportionEstimate
    mean_rounds: float
    mean_overhead: float
    extras: dict[str, float] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        """A JSON-serialisable view (for results artifacts and logs).

        Deterministic for a fixed seed regardless of the trial runner;
        opt into the wall-clock numbers with ``include_timing=True``.
        """
        low, high = self.success.interval
        payload: dict[str, Any] = {
            "params": dict(self.params),
            "success": self.success.value,
            "success_interval": [low, high],
            "successes": self.success.successes,
            "trials": self.success.trials,
            "mean_rounds": self.mean_rounds,
            "mean_overhead": self.mean_overhead,
            "extras": dict(self.extras),
        }
        if include_timing:
            payload["timing"] = dict(self.timing)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a point from a :meth:`to_dict` payload.

        Exact inverse for everything :meth:`to_dict` emits: ``success``
        and ``success_interval`` are derived from ``successes``/``trials``
        on reconstruction, and JSON floats round-trip bitwise (``repr``
        precision), so ``from_dict(json.loads(json.dumps(p.to_dict())))``
        equals ``p`` minus the (deliberately unserialized) wall-clock
        ``timing`` — the property the result cache depends on.
        """
        return cls(
            params=dict(payload["params"]),
            success=ProportionEstimate(
                successes=int(payload["successes"]),
                trials=int(payload["trials"]),
            ),
            mean_rounds=float(payload["mean_rounds"]),
            mean_overhead=float(payload["mean_overhead"]),
            extras=dict(payload.get("extras", {})),
            timing=dict(payload.get("timing", {})),
        )


def _aggregate_batch(
    batch: TrialBatch,
    trials: int,
    noiseless_length: int,
    params: dict[str, Any] | None,
) -> SweepPoint:
    """Fold a batch of trial records into a :class:`SweepPoint`.

    Shared by every runner backend — aggregation order is trial-index
    order, so identical records give identical floats.
    """
    records = batch.records
    successes = sum(1 for record in records if record.success)
    rounds = [record.rounds for record in records]
    retry_totals = [
        record.chunk_attempts
        for record in records
        if record.chunk_attempts is not None
    ]
    completed = sum(1 for record in records if record.completed)
    extras: dict[str, float] = {}
    if retry_totals:
        extras["mean_chunk_attempts"] = mean(retry_totals)
        extras["completion_rate"] = completed / trials
    # Channel-counter aggregates: computed from the same records on every
    # backend, so a runner that mishandled trials could not drift silently.
    extras["mean_channel_flips"] = mean(
        [float(record.flips) for record in records]
    )
    extras["mean_beeps_sent"] = mean(
        [float(record.beeps_sent) for record in records]
    )
    return SweepPoint(
        params=dict(params or {}),
        success=ProportionEstimate(successes=successes, trials=trials),
        mean_rounds=mean(rounds),
        mean_overhead=mean(rounds) / noiseless_length,
        extras=extras,
        timing=dict(batch.timing),
    )


@dataclass
class SweepSpec:
    """The execution knobs every sweep entry point shares.

    One spec names *how* a sweep runs — how many trials per point, the
    master seed, which :class:`~repro.parallel.runner.TrialRunner`
    backend, and an optional :class:`~repro.observe.Observer` — separate
    from *what* runs (the task/executor pair or grid).  Every field is
    orthogonal: the estimate is bitwise independent of ``runner`` and
    ``observe``; only ``trials`` and ``seed`` shape the numbers.

    Attributes:
        trials: Independent trials per grid point (>= 1).
        seed: Master seed; grid point ``i`` derives
            ``derive_seed(seed, f"point[{i}]")``, and trial ``j`` within a
            point draws from the labels in
            :func:`repro.parallel.runner.run_trial`.
        runner: Execution backend; ``None`` means the process-wide
            default (see :func:`repro.parallel.get_default_runner`).
        observe: Trace-event observer; ``None`` (or a disabled observer)
            is free.
    """

    trials: int = 100
    seed: int = 0
    runner: TrialRunner | None = None
    observe: "Observer | None" = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )

    def resolve_runner(self) -> TrialRunner:
        """The backend this spec actually uses."""
        return self.runner if self.runner is not None else get_default_runner()

    def with_seed(self, seed: int) -> "SweepSpec":
        """A copy of this spec with a different master seed."""
        return SweepSpec(
            trials=self.trials,
            seed=seed,
            runner=self.runner,
            observe=self.observe,
        )

    def for_point(self, index: int) -> "SweepSpec":
        """The spec grid point ``index`` runs under: its seed is
        ``derive_seed(seed, f"point[{index}]")``."""
        return self.with_seed(derive_seed(self.seed, f"point[{index}]"))

    #: Version of the serialized form.  Bump on any change to the field
    #: set or meaning; :meth:`from_json` rejects other versions so stale
    #: payloads (and cache keys built from them) fail loudly.
    SCHEMA_VERSION = 1

    def to_json(self) -> str:
        """Canonical JSON for this spec: the fields that shape results.

        Only ``trials`` and ``seed`` appear — ``runner`` and ``observe``
        are execution knobs the determinism contract makes irrelevant to
        the numbers, so two specs that differ only there serialize (and
        cache) identically.  Keys are sorted and separators fixed, so the
        string is byte-stable and safe to hash.
        """
        return json.dumps(
            {
                "schema": self.SCHEMA_VERSION,
                "trials": self.trials,
                "seed": self.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(
        cls,
        payload: str | Mapping[str, Any],
        *,
        runner: TrialRunner | None = None,
        observe: "Observer | None" = None,
    ) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_json` output (string or dict).

        The execution-only fields are not serialized; pass ``runner=`` /
        ``observe=`` to attach them to the revived spec.
        """
        data = json.loads(payload) if isinstance(payload, str) else payload
        schema = data.get("schema")
        if schema != cls.SCHEMA_VERSION:
            raise ConfigurationError(
                f"SweepSpec schema {schema!r} is not supported "
                f"(expected {cls.SCHEMA_VERSION})"
            )
        return cls(
            trials=int(data["trials"]),
            seed=int(data["seed"]),
            runner=runner,
            observe=observe,
        )


def run_sweep_point(
    task: Task,
    executor: Executor,
    spec: SweepSpec,
    *,
    params: dict[str, Any] | None = None,
) -> SweepPoint:
    """Run one grid point under ``spec`` and aggregate.

    Each trial gets inputs from ``task.sample_inputs`` (seeded sub-stream)
    and a distinct ``trial_seed`` for the executor's channel/protocol
    randomness.  Success is ``task.is_correct(inputs, outputs)``.

    When ``spec.observe`` is enabled, the runner's ``trial`` /
    ``sweep_batch`` events are followed by one ``sweep_point`` event with
    the aggregated numbers.
    """
    noiseless_length = max(1, task.noiseless_length())
    observe = spec.observe
    batch = spec.resolve_runner().run_trials(
        task, executor, spec.trials, seed=spec.seed, observe=observe
    )
    point = _aggregate_batch(batch, spec.trials, noiseless_length, params)
    if observe is not None and observe.enabled:
        observe.emit(
            "sweep_point",
            params=dict(point.params),
            trials=point.success.trials,
            successes=point.success.successes,
            mean_rounds=point.mean_rounds,
            mean_overhead=point.mean_overhead,
        )
    return point


PointBuilder = Callable[[Any], tuple[Task, Executor, dict[str, Any]]]


def run_sweep(
    values: Iterable[Any],
    point_builder: PointBuilder,
    spec: SweepSpec,
) -> list[SweepPoint]:
    """Sweep a grid under ``spec``:
    ``point_builder(value) -> (task, executor, params)``.

    Each grid point gets a derived seed so points are independent but the
    curve is reproducible.  A pooled runner is reused across grid points,
    so worker startup is paid once per curve.
    """
    points: list[SweepPoint] = []
    for index, value in enumerate(values):
        task, executor, params = point_builder(value)
        points.append(
            run_sweep_point(
                task, executor, spec.for_point(index), params=params
            )
        )
    return points
