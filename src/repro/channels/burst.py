"""Bursty correlated noise (Gilbert–Elliott model).

The paper motivates correlated noise by *global interferences* — weather,
a contaminated environment (§1.2) — which in reality arrive in bursts, not
i.i.d. rounds.  :class:`BurstNoiseChannel` models this with the classic
Gilbert–Elliott two-state Markov chain: a *good* state with a low flip
probability and a *bad* state (the interference burst) with a high one.

The stationary flip rate is

    ``ε̄ = p_bad·ε_bad + (1 − p_bad)·ε_good``,
    ``p_bad = p_enter / (p_enter + p_exit)``,

so a burst channel can be matched in *average* noise to an i.i.d. channel
while concentrating its flips in runs of expected length ``1/p_exit`` —
the regime experiment E10 uses to probe whether the simulation schemes'
guarantees (proved for i.i.d. noise) survive temporal correlation.
Repetition-style voting is exactly what bursts attack: a burst longer than
the repetition block defeats the majority no matter how the votes are
counted, while the rewind machinery can re-simulate after the burst ends.
"""

from __future__ import annotations

import random

from repro.channels.base import Channel
from repro.errors import ConfigurationError
from repro.util.bits import BitWord

__all__ = ["BurstNoiseChannel"]


class BurstNoiseChannel(Channel):
    """Two-state Markov (Gilbert–Elliott) correlated noise.

    Args:
        epsilon_good: Flip probability in the good state.
        epsilon_bad: Flip probability inside a burst.
        p_enter: Per-round probability of entering a burst (good → bad).
        p_exit: Per-round probability of a burst ending (bad → good);
            expected burst length is ``1/p_exit`` rounds.
        rng: Noise source (drives both the state chain and the flips).

    Flips are two-sided (the OR is XOR-ed with the noise bit) and, as in
    the paper's model, delivered identically to every party.
    """

    correlated = True
    #: Every round draws, whatever its OR (the
    #: :class:`~repro.channels.base.ThresholdNoiseChannel` declaration).
    flips = (True, True)

    def __init__(
        self,
        epsilon_good: float,
        epsilon_bad: float,
        p_enter: float,
        p_exit: float,
        rng: random.Random | int | None = None,
    ) -> None:
        for name, value in (
            ("epsilon_good", epsilon_good),
            ("epsilon_bad", epsilon_bad),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {value}"
                )
        for name, value in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in (0, 1], got {value}"
                )
        super().__init__(rng)
        self.epsilon_good = epsilon_good
        self.epsilon_bad = epsilon_bad
        self.p_enter = p_enter
        self.p_exit = p_exit
        self._in_burst = False
        self.burst_rounds = 0

    @property
    def stationary_bad_probability(self) -> float:
        """Long-run fraction of rounds spent inside bursts."""
        return self.p_enter / (self.p_enter + self.p_exit)

    @property
    def stationary_flip_rate(self) -> float:
        """Long-run average flip probability ``ε̄``."""
        p_bad = self.stationary_bad_probability
        return p_bad * self.epsilon_bad + (1.0 - p_bad) * self.epsilon_good

    @classmethod
    def matched_to(
        cls,
        average_epsilon: float,
        burst_length: float,
        epsilon_bad: float = 0.5,
        epsilon_good: float = 0.0,
        rng: random.Random | int | None = None,
    ) -> "BurstNoiseChannel":
        """A burst channel with a prescribed *average* flip rate.

        Args:
            average_epsilon: Target stationary flip rate ``ε̄``.
            burst_length: Expected burst length in rounds (``1/p_exit``).
            epsilon_bad: Flip probability inside bursts (default: 1/2, a
                fully-garbled burst).
            epsilon_good: Flip probability outside bursts (default: clean).
            rng: Noise source.

        Solves for ``p_enter`` from the stationary equation; requires
        ``epsilon_good ≤ average_epsilon < epsilon_bad``.
        """
        if burst_length < 1.0:
            raise ConfigurationError(
                f"burst_length must be >= 1, got {burst_length}"
            )
        if not epsilon_good <= average_epsilon < epsilon_bad:
            raise ConfigurationError(
                "need epsilon_good <= average_epsilon < epsilon_bad "
                f"(got {epsilon_good}, {average_epsilon}, {epsilon_bad})"
            )
        p_exit = 1.0 / burst_length
        # p_bad = (avg - good) / (bad - good); p_enter from stationarity.
        p_bad = (average_epsilon - epsilon_good) / (
            epsilon_bad - epsilon_good
        )
        if p_bad >= 1.0:
            raise ConfigurationError(
                "average noise unreachable with these state parameters"
            )
        if p_bad == 0.0:
            raise ConfigurationError(
                "average_epsilon equals epsilon_good; use a plain "
                "CorrelatedNoiseChannel instead"
            )
        p_enter = p_exit * p_bad / (1.0 - p_bad)
        return cls(
            epsilon_good=epsilon_good,
            epsilon_bad=epsilon_bad,
            p_enter=min(p_enter, 1.0),
            p_exit=p_exit,
            rng=rng,
        )

    def _deliver(self, or_value: int, n_parties: int) -> BitWord:
        # Advance the interference state, then flip at the state's rate.
        # Both draws come from the block-buffered stream, in the seed
        # engine's order: state transition first, then the noise coin.
        if self._in_burst:
            if self._next_noise_float() < self.p_exit:
                self._in_burst = False
        else:
            if self._next_noise_float() < self.p_enter:
                self._in_burst = True
        if self._in_burst:
            self.burst_rounds += 1
        epsilon = self.epsilon_bad if self._in_burst else self.epsilon_good
        noise = 1 if self._next_noise_float() < epsilon else 0
        return (or_value ^ noise,) * n_parties

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BurstNoiseChannel(good={self.epsilon_good}, "
            f"bad={self.epsilon_bad}, enter={self.p_enter}, "
            f"exit={self.p_exit})"
        )
