"""Party-collapsed form of the Appendix-D.2 hierarchy (``A_l``).

The scalar :class:`~repro.simulation.hierarchical.HierarchicalSimulator`
runs ``n`` party coroutines whose control flow — leaf simulations,
binary-search progress checks, truncations — is a pure function of
*shared* state under correlated noise.  The collapse therefore keeps the
recursion as plain driver code: each non-idle leaf runs the same phase
1+2 machinery as the chunk-commit collapse
(:func:`~repro.vectorized.schemes._chunk_phase12`), each progress-check
vote is one windowed draw, and per-party error flags become a boolean
vector per chunk, OR-reduced over prefixes.  Inner parties stay *live*
across leaves — the scalar scheme re-replays the full working prefix in
every leaf, ``n`` times over — and are rebuilt only after a truncation
actually rewinds them (under a declared beep schedule a rebuild only
resets the received prefix: see
:func:`~repro.vectorized.schemes._inner_programs`).  The depth, chunk
length and vote counts come from :meth:`HierarchicalSimulator.plan
<repro.simulation.hierarchical.HierarchicalSimulator.plan>`, as in the
scalar scheme.  Bitwise equal to the scalar execution: same RNG draw
order, rounds, channel statistics, per-party energy, outputs, report
fields and error parity.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as _np

from repro.channels.base import Channel
from repro.core.protocol import Protocol
from repro.core.result import ExecutionResult
from repro.simulation.hierarchical import HierarchicalSimulator
from repro.vectorized.noise import FlipSource
from repro.vectorized.schemes import (
    _chunk_flags,
    _chunk_phase12,
    _finish,
    _inner_programs,
    _owners_decoder,
    _shared_channel,
)

__all__ = ["simulate_hierarchical"]


def simulate_hierarchical(
    simulator: HierarchicalSimulator,
    protocol: Protocol,
    inputs: Sequence[Any],
    channel: Channel,
    *,
    shared_seed: int | None = None,
    flips: FlipSource | None = None,
    codebook_cache: dict | None = None,
) -> ExecutionResult:
    """The ``A_L`` hierarchy, party-collapsed; bitwise equal to
    ``simulator.simulate(protocol, inputs, channel)`` on the supported
    channels, with ``transcript=None``.

    ``flips`` optionally injects a pre-built noise stream (the runner's
    per-trial stream); ``codebook_cache`` shares the owners codebook and
    vectorized decoder across the trials of a batch — and with the
    chunk-commit collapse, whose codebook parameters are identical.
    """
    report, noise = simulator.plan(protocol, channel)
    inner_length = report.inner_length
    n_parties = protocol.n_parties
    chunk_length = report.extra["chunk_length"]
    repetitions = report.extra["repetitions"]
    verification_repetitions = report.extra["verification_repetitions"]
    level_repetition_step = simulator.level_repetition_step
    decoder = _owners_decoder(
        simulator.params, chunk_length, noise, codebook_cache
    )

    shared = _shared_channel(channel, flips)
    programs = _inner_programs(protocol, inputs, shared_seed, strict=True)
    energy = _np.zeros(n_parties, dtype=_np.int64)

    # Working state: per appended chunk, its transcript pi and each
    # party's error-flag vector (truncation only removes suffixes, so
    # flags stay valid — the scalar scheme's remembered-beeps argument).
    chunk_pis: list[list[int]] = []
    chunk_flag_rows: list["_np.ndarray"] = []
    working_rounds = 0
    leaf_calls = 0
    truncated_chunks = 0
    checks = 0

    def leaf() -> None:
        """``A_0``: simulate the next chunk (if any) and append it."""
        nonlocal leaf_calls, working_rounds
        leaf_calls += 1
        if working_rounds >= inner_length:
            return  # idle leaf; shared decision, zero rounds
        chunk_rounds = min(chunk_length, inner_length - working_rounds)
        if programs.position != working_rounds:
            # A truncation rewound the working prefix past the live
            # programs: replay it once (the scalar scheme replays it n
            # times, once per outer party, in *every* leaf).
            programs.rebuild(
                [bit for chunk in chunk_pis for bit in chunk]
            )
        pi, beep_matrix, owners, claimed_by = _chunk_phase12(
            programs, shared, energy, chunk_rounds, repetitions, decoder
        )
        chunk_pis.append(pi)
        chunk_flag_rows.append(
            _chunk_flags(pi, beep_matrix, owners, claimed_by)
        )
        working_rounds += len(pi)

    def progress_check(level: int) -> None:
        """Binary-search the longest consistent working prefix; truncate."""
        nonlocal checks, truncated_chunks, working_rounds, energy
        checks += 1
        votes = verification_repetitions + level_repetition_step * level
        low, high = 0, len(chunk_pis)
        while low < high:
            mid = (low + high + 1) // 2
            flags = chunk_flag_rows[0].copy()
            for row in chunk_flag_rows[1:mid]:
                flags |= row
            flag_beeps = int(flags.sum())
            or_flag = 1 if flag_beeps else 0
            ones = shared.window(or_flag, flag_beeps, votes)
            verdict = 1 if 2 * ones > votes else 0
            energy += flags * votes
            if verdict == 0:
                low = mid
            else:
                high = mid - 1
        if low < len(chunk_pis):
            truncated_chunks += len(chunk_pis) - low
            del chunk_pis[low:]
            del chunk_flag_rows[low:]
            working_rounds = sum(len(chunk) for chunk in chunk_pis)

    # ``A_depth`` unrolled: ``A_l`` runs ``A_{l-1}`` twice, then its
    # level-``l`` progress check, so the leaves run in order and a level's
    # check follows every ``2**l``-th leaf (lowest level first).  A loop,
    # not a recursive closure: that would form a reference cycle holding
    # the trial's noise stream and programs until a gen-2 collection.
    depth = report.extra["depth"]
    for index in range(1 << depth):
        leaf()
        level = 1
        while level <= depth and (index + 1) % (1 << level) == 0:
            progress_check(level)
            level += 1

    report.chunk_attempts = leaf_calls
    report.chunk_commits = len(chunk_pis)
    report.rewinds = truncated_chunks
    report.completed = working_rounds == inner_length
    report.extra["progress_checks"] = checks

    if report.completed and programs.position == inner_length:
        # The live programs just consumed the full committed transcript —
        # their outputs are the final replay's outputs (determinism).
        outputs = programs.outputs()
    else:
        committed = [bit for chunk in chunk_pis for bit in chunk]
        padded = committed + [0] * (inner_length - len(committed))
        outputs = programs.outputs_over(padded)
    return _finish(simulator, report, shared, energy, outputs)
