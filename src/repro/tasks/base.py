"""The task interface.

A task is a distributional communication problem: it samples inputs, defines
the reference output, and provides the canonical noiseless protocol.  The
analysis layer (:mod:`repro.analysis.sweep`) estimates a scheme's success
probability by sampling inputs from the task, running a (possibly simulated)
protocol, and checking outputs with :meth:`Task.is_correct`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.core.protocol import Protocol

__all__ = ["Task"]


class Task(ABC):
    """A distributional communication task for ``n_parties`` parties."""

    def __init__(self, n_parties: int) -> None:
        self.n_parties = n_parties

    @abstractmethod
    def sample_inputs(self, rng: random.Random) -> list[Any]:
        """Draw one input vector from the task's input distribution."""

    @abstractmethod
    def reference_output(self, inputs: Sequence[Any]) -> Any:
        """The value every party must output on ``inputs``."""

    @abstractmethod
    def noiseless_protocol(self) -> Protocol:
        """The canonical protocol solving the task over the noiseless
        beeping channel."""

    def is_correct(self, inputs: Sequence[Any], outputs: Sequence[Any]) -> bool:
        """Whether an execution solved the task.

        Default: *every* party output the reference value.  Tasks with
        per-party outputs override this.  Each distinct output object is
        compared once: the collapsed schemes hand every party that heard
        one transcript the same object, and comparing an n-element output
        n times made the check O(n²).
        """
        expected = self.reference_output(inputs)
        distinct = {id(output): output for output in outputs}
        return all(output == expected for output in distinct.values())

    def noiseless_length(self) -> int:
        """Rounds of the canonical noiseless protocol (denominator of every
        overhead measurement)."""
        length = self.noiseless_protocol().length()
        if length is None:  # pragma: no cover - defensive
            raise ValueError("noiseless protocol must have a fixed length")
        return length
