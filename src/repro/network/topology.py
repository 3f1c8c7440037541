"""Topologies as plain data: :class:`TopologySpec` and its registry.

The network engine separates *what the graph is* from *how it is stored*.
This module is the first half and imports no numpy, so a process that
only names, parses, keys or caches graphs (the sweep service's grids, a
warm re-run that reads every point from its store, ``repro info``) never
loads it:

* :class:`TopologySpec` — the declarative, JSON-round-trippable recipe:
  generator name + params + seed, e.g. ``{"kind": "grid", "rows": 32,
  "cols": 32}``.  Specs are frozen, hashable, picklable plain data —
  which is what lets network sweeps flow through the sweep service's
  content-addressed cache and process-pool executors exactly like
  single-hop ones.  :meth:`TopologySpec.build` resolves through the
  :data:`TOPOLOGIES` registry and memoizes the constructed graph, so a
  thousand per-trial channel constructions share one build.
* :data:`TOPOLOGIES` — maps the generator name to a
  :class:`TopologyFamily` holding its builder, mirroring the
  ``CHANNELS``/``SIMULATORS``/``TASKS`` tables in
  :mod:`repro.service.grid` (which re-exports it).  Each builder names
  its generator in :mod:`repro.network.graph` by import path and
  imports it on first call.  The CLI shorthand ``grid:32x32`` /
  ``geometric:n=10000,r=0.02,seed=7`` parses with :func:`parse_topology`
  into the same specs the library API uses.

The built graph, :class:`~repro.network.graph.Topology`, and the
generators' seeded contract live in :mod:`repro.network.graph`.
``repro.network.topology.Topology`` still resolves, importing that
module on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro._exports import lazy_exports, load
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import Topology

__all__ = [
    "Topology",
    "TopologyFamily",
    "TopologySpec",
    "TOPOLOGIES",
    "parse_topology",
]

# ``Topology`` is the numpy module's: resolved on first use.
__getattr__, __dir__ = lazy_exports(
    __name__, {"Topology": "repro.network.graph"}
)


def _generator(name: str) -> Callable[..., Topology]:
    """The builder of :mod:`repro.network.graph`'s generator ``name``,
    which imports that module on first call."""

    def builder(**params: Any) -> Topology:
        return load(f"repro.network.graph.{name}")(**params)

    builder.__name__ = builder.__qualname__ = name
    return builder


@dataclass(frozen=True)
class TopologyFamily:
    """One row of the :data:`TOPOLOGIES` registry: the family's builder,
    called with the spec's params (the generator's docstring in
    :mod:`repro.network.graph` describes the graph).  Kept as a record
    (not the bare builder) so a profiler can swap the builder with
    :func:`dataclasses.replace`; :func:`_build_topology` reads the row
    at call time."""

    builder: Callable[..., Topology]


TOPOLOGIES: dict[str, TopologyFamily] = {
    "complete": TopologyFamily(_generator("_complete")),
    "ring": TopologyFamily(_generator("_ring")),
    "grid": TopologyFamily(_generator("_grid")),
    "geometric": TopologyFamily(_generator("_geometric")),
    "scale-free": TopologyFamily(_generator("_scale_free")),
}

#: CLI shorthand aliases accepted by :func:`parse_topology`.
_PARAM_ALIASES = {"r": "radius", "columns": "cols"}


def _spec_size(kind: str, params: Mapping[str, Any]) -> int | None:
    """The node count a spec pins, or ``None`` when still scalable."""
    if kind == "grid" and "rows" in params and "cols" in params:
        return int(params["rows"]) * int(params["cols"])
    n = params.get("n")
    return int(n) if n is not None else None


@dataclass(frozen=True)
class TopologySpec:
    """A declarative topology: generator name + params, as plain data.

    Hashable, picklable and JSON-round-trippable
    (:meth:`to_dict`/:meth:`from_dict`), so it can ride inside
    :class:`~repro.parallel.ChannelSpec` across process boundaries and
    into sweep-service cache keys.  ``params`` is a sorted tuple of
    ``(key, value)`` pairs; use :meth:`of` to build from kwargs.

    A spec may leave the node count open (e.g. ``geometric`` with only a
    radius): :meth:`with_n` pins it, and a sweep's ``ns`` grid does so
    per point.  Pinned specs refuse a conflicting ``with_n`` loudly.
    """

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.kind!r} "
                f"(choose from {sorted(TOPOLOGIES)})"
            )
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        object.__setattr__(self, "params", params)

    @classmethod
    def of(cls, kind: str, **params: Any) -> "TopologySpec":
        """Build a spec from keyword params."""
        return cls(kind, tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def size(self) -> int | None:
        """The node count this spec pins (``None``: still scalable)."""
        return _spec_size(self.kind, self.param_dict())

    def with_n(self, n: int) -> "TopologySpec":
        """This spec pinned to ``n`` nodes.

        No-op when already pinned to ``n``; raises when pinned to a
        different size (a sweep's ``ns`` must match a pinned spec).
        """
        current = self.size
        if current is not None:
            if current != int(n):
                raise ConfigurationError(
                    f"topology {self.label()!r} pins {current} nodes; "
                    f"cannot re-pin to n={n}"
                )
            return self
        params = self.param_dict()
        params["n"] = int(n)
        return TopologySpec.of(self.kind, **params)

    def build(self) -> Topology:
        """The graph this spec describes (memoized per spec)."""
        return _build_topology(self)

    def label(self) -> str:
        """Canonical shorthand form, e.g. ``geometric:n=64,radius=0.25``
        (parseable back with :func:`parse_topology`)."""
        if not self.params:
            return self.kind
        rendered = ",".join(
            f"{key}={value}" for key, value in self.params
        )
        return f"{self.kind}:{rendered}"

    def to_dict(self) -> dict[str, Any]:
        """The flat JSON form, e.g. ``{"kind": "grid", "rows": 32,
        "cols": 32}``."""
        return {"kind": self.kind, **self.param_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        params = {
            str(k): v for k, v in data.items() if k != "kind"
        }
        try:
            kind = str(data["kind"])
        except KeyError:
            raise ConfigurationError(
                "a topology dict needs a 'kind' entry"
            ) from None
        return cls.of(kind, **params)


@lru_cache(maxsize=8)
def _build_topology(spec: TopologySpec) -> Topology:
    """Construct (and memoize) the graph of a fully-pinned spec.

    The cache is what keeps per-trial channel construction O(1): a sweep
    point builds its topology once and every trial's
    ``ChannelSpec.make`` reuses it (per process — specs pickle, graphs
    rebuild on first use in each worker).
    """
    family = TOPOLOGIES[spec.kind]
    try:
        return family.builder(**spec.param_dict())
    except TypeError as error:
        raise ConfigurationError(
            f"bad params for topology {spec.kind!r}: {error}"
        ) from None


def _parse_param_value(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_topology(text: str) -> TopologySpec:
    """Parse the CLI shorthand into a :class:`TopologySpec`.

    Forms (all resolved through :data:`TOPOLOGIES`):

    * ``ring`` — bare kind (size supplied later via ``with_n``);
    * ``complete:64`` — bare integer = node count;
    * ``grid:32x32`` — grid shape shorthand;
    * ``geometric:n=10000,r=0.02,seed=7`` — ``key=value`` params
      (``r`` aliases ``radius``).
    """
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind not in TOPOLOGIES:
        raise ConfigurationError(
            f"unknown topology {kind!r} "
            f"(choose from {sorted(TOPOLOGIES)})"
        )
    params: dict[str, Any] = {}
    for token in filter(None, (t.strip() for t in rest.split(","))):
        if "=" in token:
            key, _, value = token.partition("=")
            key = _PARAM_ALIASES.get(key.strip(), key.strip())
            params[key] = _parse_param_value(value.strip())
        elif kind == "grid" and "x" in token:
            rows_text, _, cols_text = token.partition("x")
            try:
                params["rows"] = int(rows_text)
                params["cols"] = int(cols_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad grid shape {token!r} (want ROWSxCOLS)"
                ) from None
        else:
            try:
                params["n"] = int(token)
            except ValueError:
                raise ConfigurationError(
                    f"bad topology param {token!r} in {text!r} "
                    "(want key=value, a bare node count, or ROWSxCOLS)"
                ) from None
    return TopologySpec.of(kind, **params)
