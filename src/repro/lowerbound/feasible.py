"""Feasible sets ``S^i(π)`` (§C.2).

Under one-sided (0→1) noise a received 0 proves that *every* party beeped 0
in that round.  The parties can therefore rule out any input that would have
made some party beep 1 in a 0-round.  The feasible set of party ``i`` given
a transcript prefix is

    ``S^i(π_{≤m}) = ∩_{j ∈ J} { y : f_j^i(y, π_{<j}) = 0 }``

with ``J`` the 0-positions of the prefix (the prefix's zero-mask, see
:class:`~repro.core.formal.BeepTable`).  Large feasible sets mean the
transcript has revealed little about a party's input — the quantity the
entropy argument of Lemma C.5 keeps large for most parties.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.formal import FormalProtocol
from repro.errors import ConfigurationError

__all__ = ["feasible_set", "feasible_sizes"]


def feasible_set(
    protocol: FormalProtocol, party: int, pi: Sequence[int]
) -> tuple[Any, ...]:
    """``S^i(π)`` for ``party`` given (a prefix of) transcript ``pi``.

    ``pi`` may be any prefix of a transcript (length ≤ the protocol
    length); only its 0-positions constrain the set.
    """
    if not 0 <= party < protocol.n_parties:
        raise ConfigurationError(
            f"party {party} out of range [0, {protocol.n_parties})"
        )
    if len(pi) > protocol.length():
        raise ConfigurationError(
            f"prefix length {len(pi)} exceeds protocol length "
            f"{protocol.length()}"
        )
    table = protocol.beep_table(pi)
    return tuple(
        candidate
        for candidate in protocol.input_spaces[party]
        if table.feasible(party, candidate)
    )


def feasible_sizes(
    protocol: FormalProtocol, pi: Sequence[int]
) -> list[int]:
    """``|S^i(π)|`` for every party ``i``."""
    return [
        len(feasible_set(protocol, party, pi))
        for party in range(protocol.n_parties)
    ]
