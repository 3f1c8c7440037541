"""The progress measure ζ(x, π) and its exact analysis (§C.2, §C.3).

For an input ``x`` and transcript ``π``:

    ``Z(x, π) = Σ_{i ∈ G(x,π)} E_{y ~ S^i(π)} [ Pr(x^{i=y}, π) ]``
    ``ζ(x, π) = Pr(x, π) / Z(x, π)``    (0 when ``Pr(x, π) = 0``)

ζ measures how much more likely the transcript makes ``x`` than its feasible
neighbors — i.e. how much the protocol has *learned*.  Theorem C.2 caps it
pointwise for short protocols; Theorem C.3 forces its conditional
expectation up for correct ones.  :class:`LowerBoundAnalyzer` computes both
sides exactly by enumerating the joint distribution of a
:class:`~repro.core.formal.FormalProtocol` — tractable for the small-n
instances experiment E5 uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.core.formal import FormalProtocol, NoiseModel
from repro.errors import ConfigurationError
from repro.lowerbound.feasible import feasible_set
from repro.lowerbound.good_players import (
    good_event_threshold,
    good_players,
)
from repro.util.bits import BitWord

__all__ = ["ZetaPoint", "ZetaSummary", "LowerBoundAnalyzer"]


@dataclass(frozen=True)
class ZetaSummary:
    """Aggregates of one full enumeration (see
    :meth:`LowerBoundAnalyzer.summary`).

    Attributes:
        good_event_probability: ``Pr(𝒢)``.
        expected_zeta_given_good: ``E[ζ | 𝒢]`` (Theorem C.3's left side).
        max_zeta_in_good: ``max ζ`` over 𝒢 (Theorem C.2's left side).
        correctness_probability: ``Pr(𝒞)`` when a reference was supplied,
            else ``None``.
        total_mass: Total probability enumerated (≈ 1.0; a sanity check).
    """

    good_event_probability: float
    expected_zeta_given_good: float
    max_zeta_in_good: float
    correctness_probability: float | None
    total_mass: float


@dataclass(frozen=True)
class ZetaPoint:
    """ζ and its ingredients at one ``(x, π)`` pair.

    Attributes:
        inputs: The input vector ``x``.
        pi: The transcript ``π``.
        probability: Joint ``Pr(x, π)``.
        z_value: The neighbor mass ``Z(x, π)``.
        zeta: The ratio ζ(x, π).
        good: The good-player set ``G(x, π)``.
        in_good_event: Whether ``|G| ≥ n/4`` (the event 𝒢).
    """

    inputs: tuple[Any, ...]
    pi: BitWord
    probability: float
    z_value: float
    zeta: float
    good: frozenset[int]
    in_good_event: bool


class LowerBoundAnalyzer:
    """Exact evaluation of the Appendix C quantities for small instances.

    Args:
        protocol: The formal protocol under analysis (e.g. the noiseless
            ``InputSet`` protocol, or a repetition-hardened variant).
        noise: The channel's noise law; the paper's lower bound uses
            ``NoiseModel.one_sided(1/3)``.
        g2_threshold: Feasible-set size threshold of ``G₂`` (default √n).
        good_fraction: 𝒢 requires ``|G| ≥ good_fraction · n`` (paper: 1/4).

    All expectations enumerate the full joint distribution — use only when
    ``(Π_i |X^i|) · 2^T`` is manageable (n ≤ 4 for ``InputSet``).
    """

    def __init__(
        self,
        protocol: FormalProtocol,
        noise: NoiseModel,
        g2_threshold: float | None = None,
        good_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < good_fraction <= 1.0:
            raise ConfigurationError(
                f"good_fraction must be in (0, 1], got {good_fraction}"
            )
        self.protocol = protocol
        self.noise = noise
        self.g2_threshold = g2_threshold
        self.good_fraction = good_fraction
        self._input_probability = protocol.input_probability()

    # ------------------------------------------------------------------
    # Pointwise quantities
    # ------------------------------------------------------------------

    def joint_probability(
        self, inputs: Sequence[Any], pi: Sequence[int]
    ) -> float:
        """``Pr(x, π) = Pr(x) · Pr(π | x)`` under uniform inputs."""
        return self._input_probability * self.protocol.transcript_probability(
            inputs, pi, self.noise
        )

    def good_set(
        self, inputs: Sequence[Any], pi: Sequence[int]
    ) -> frozenset[int]:
        """``G(x, π)`` with this analyzer's threshold."""
        return good_players(
            self.protocol, inputs, pi, threshold=self._g2_threshold()
        )

    def _g2_threshold(self) -> float:
        if self.g2_threshold is not None:
            return self.g2_threshold
        return math.sqrt(self.protocol.n_parties)

    def z_value(self, inputs: Sequence[Any], pi: Sequence[int]) -> float:
        """``Z(x, π)``: expected neighbor probability over good players."""
        return self._z_value(inputs, pi, self.good_set(inputs, pi))

    def _z_value(
        self, inputs: Sequence[Any], pi: Sequence[int], good: frozenset[int]
    ) -> float:
        # A neighbor x^{i=y} beeps the OR of the other parties' masks and
        # y's mask, so its probability is memoised per OR-mask.
        masks = self.protocol.beep_masks(inputs, pi)
        table = self.protocol.beep_table(pi)
        by_or_mask: dict[int, float] = {}
        total = 0.0
        for party in good:
            feasible = feasible_set(self.protocol, party, pi)
            if not feasible:
                continue
            others = 0
            for index, mask in enumerate(masks):
                if index != party:
                    others |= mask
            mass = 0.0
            for candidate in feasible:
                or_mask = others | table.mask(party, candidate)
                probability = by_or_mask.get(or_mask)
                if probability is None:
                    probability = by_or_mask[or_mask] = (
                        self._input_probability
                        * table.probability(or_mask, self.noise)
                    )
                mass += probability
            total += mass / len(feasible)
        return total

    def zeta_point(
        self, inputs: Sequence[Any], pi: Sequence[int]
    ) -> ZetaPoint:
        """ζ(x, π) with all ingredients."""
        inputs = tuple(inputs)
        pi = tuple(pi)
        probability = self.joint_probability(inputs, pi)
        good = self.good_set(inputs, pi)
        if probability == 0.0:
            z_value = 0.0
            zeta = 0.0
        else:
            z_value = self._z_value(inputs, pi, good)
            # Inside 𝒢 the good set is non-empty and contains x itself among
            # the feasible neighbors, so Z > 0 (§C.2).  Outside 𝒢 the good
            # set may be empty; ζ is then +inf by convention (the transcript
            # has no feasible competition to x), which never enters the
            # conditional expectation E[ζ | 𝒢].
            if z_value == 0.0:
                zeta = math.inf
            else:
                zeta = probability / z_value
        threshold = self.good_fraction * self.protocol.n_parties
        return ZetaPoint(
            inputs=inputs,
            pi=pi,
            probability=probability,
            z_value=z_value,
            zeta=zeta,
            good=good,
            in_good_event=len(good) >= threshold,
        )

    # ------------------------------------------------------------------
    # Exhaustive expectations
    # ------------------------------------------------------------------

    def enumerate_points(self) -> Iterator[ZetaPoint]:
        """Every positive-probability ``(x, π)`` pair, as ζ points."""
        for inputs in self.protocol.enumerate_inputs():
            for pi, conditional in self.protocol.enumerate_transcripts(
                inputs, self.noise
            ):
                if conditional == 0.0:
                    continue
                yield self.zeta_point(inputs, pi)

    def good_event_probability(self) -> float:
        """``Pr(𝒢)`` over inputs and channel noise."""
        return sum(
            point.probability
            for point in self.enumerate_points()
            if point.in_good_event
        )

    def expected_zeta_given_good(self) -> float:
        """``E[ζ(x, π) | 𝒢]`` — the left side of Theorem C.3."""
        mass = 0.0
        weighted = 0.0
        for point in self.enumerate_points():
            if not point.in_good_event:
                continue
            mass += point.probability
            weighted += point.probability * point.zeta
        if mass == 0.0:
            return 0.0
        return weighted / mass

    def max_zeta_in_good(self) -> float:
        """``max ζ(x, π)`` over 𝒢 — the quantity Theorem C.2 caps."""
        best = 0.0
        for point in self.enumerate_points():
            if point.in_good_event and point.zeta > best:
                best = point.zeta
        return best

    def summary(
        self, reference: Callable[[Sequence[Any]], Any] | None = None
    ) -> "ZetaSummary":
        """Every aggregate in one enumeration pass.

        Computes Pr(𝒢), E[ζ | 𝒢], max ζ on 𝒢 and (when ``reference`` is
        given) the protocol's exact correctness probability, visiting each
        positive-probability ``(x, π)`` pair once — the entry point the E5
        benchmark uses, since separate calls would redo the enumeration.
        """
        good_mass = 0.0
        weighted_zeta = 0.0
        max_zeta = 0.0
        correct_mass = 0.0
        total_mass = 0.0
        for inputs in self.protocol.enumerate_inputs():
            expected = reference(inputs) if reference is not None else None
            for pi, conditional in self.protocol.enumerate_transcripts(
                inputs, self.noise
            ):
                if conditional == 0.0:
                    continue
                point = self.zeta_point(inputs, pi)
                total_mass += point.probability
                if reference is not None and self.protocol.output(
                    pi
                ) == expected:
                    correct_mass += point.probability
                if point.in_good_event:
                    good_mass += point.probability
                    weighted_zeta += point.probability * point.zeta
                    if point.zeta > max_zeta:
                        max_zeta = point.zeta
        return ZetaSummary(
            good_event_probability=good_mass,
            expected_zeta_given_good=(
                weighted_zeta / good_mass if good_mass > 0 else 0.0
            ),
            max_zeta_in_good=max_zeta,
            correctness_probability=(
                correct_mass if reference is not None else None
            ),
            total_mass=total_mass,
        )

    def correctness_probability(
        self, reference: Callable[[Sequence[Any]], Any]
    ) -> float:
        """``Pr(𝒞)``: the transcript-determined output matches ``reference``.

        ``reference(x)`` is the task's correct answer (e.g. ``L(x)``); the
        protocol's output function is evaluated on the transcript alone,
        matching the paper's normalisation of player 1's output.
        """
        total = 0.0
        for inputs in self.protocol.enumerate_inputs():
            expected = reference(inputs)
            for pi, conditional in self.protocol.enumerate_transcripts(
                inputs, self.noise
            ):
                if conditional == 0.0:
                    continue
                if self.protocol.output(pi) == expected:
                    total += self._input_probability * conditional
        return total
