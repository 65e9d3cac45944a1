"""Statistical helpers for reporting measured rates.

Measurement papers report proportions over finite samples; when scaling
the reproduction down, interval estimates say whether a paper figure is
compatible with a synthetic one.  Wilson score intervals behave well for
the small counts the rare-population analyses produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Proportion:
    """A measured proportion with its confidence interval."""

    successes: int
    trials: int
    low: float
    high: float
    confidence: float

    @property
    def point(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def contains(self, value: float) -> bool:
        """Whether *value* is compatible with this measurement."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{100 * self.point:.1f}% "
            f"[{100 * self.low:.1f}%, {100 * self.high:.1f}%]"
        )


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> Proportion:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if trials == 0:
        return Proportion(0, 0, 0.0, 1.0, confidence)
    # Imported on first use: scipy costs a second to load, and no
    # campaign stage calls this.
    from scipy import stats as scipy_stats

    z = float(scipy_stats.norm.ppf(0.5 + confidence / 2))
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    # Exact endpoints at the extremes (guards against float fuzz).
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return Proportion(successes, trials, low, high, confidence)


def rates_compatible(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    *,
    confidence: float = 0.95,
) -> bool:
    """Whether two proportions' Wilson intervals overlap.

    A coarse two-sample check, used to compare a synthetic campaign's
    rate against the paper's published rate at the paper's scale.
    """
    a = wilson_interval(successes_a, trials_a, confidence=confidence)
    b = wilson_interval(successes_b, trials_b, confidence=confidence)
    return a.low <= b.high and b.low <= a.high
