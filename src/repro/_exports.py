"""Lazy package exports: a public name imports its module on first use.

Every package ``__init__`` of :mod:`repro` lists its public names
against the module that defines them and installs the module
``__getattr__``/``__dir__`` pair :func:`lazy_exports` returns (PEP 562).
``import repro`` then executes no subpackage, and a process compiles and
runs only the modules whose names it touches: a warm sweep re-run that
reads every point from the result store never loads a kernel.  A
resolved name is cached in the package namespace, so each name costs
one import per process.

Registries that name their classes by import path (the task, channel and
simulator tables of :mod:`repro.service.grid`) resolve them with
:func:`load`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports", "load"]


def load(path: str) -> Any:
    """The object at dotted import ``path`` (``"package.module.name"``),
    importing its module."""
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose public
    ``exports`` map each name to the module that defines it.

    A name mapped to ``f"{package}.{name}"`` is that submodule itself.
    Names the package's own body needs are imported eagerly instead and
    left out of ``exports``.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        imported = importlib.import_module(module)
        if module == f"{package}.{name}":
            value = imported
        else:
            value = getattr(imported, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
