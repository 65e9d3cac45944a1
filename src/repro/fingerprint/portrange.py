"""Source-port-range modelling and OS classification (Section 5.3.2).

Given 10 queries from a resolver drawing source ports uniformly from a
pool of size *s*, the normalized observed range ``R/(s-1)`` follows a
Beta distribution with parameters alpha=9, beta=2 (the distribution of
the range of n=10 uniform order statistics).  The paper fits this model
to lab data per OS, derives range cutoffs that minimize misclassification
between adjacent pool sizes, and then classifies Internet resolvers by
their observed ranges (Table 4, Figures 3a/3b).

This module implements: the Beta model, the Windows DNS wrapped-pool
port adjustment algorithm (reproduced verbatim from the paper), the
cutoff optimizer, the resulting classifier, and the sequential-pattern
detectors used in Section 5.2.3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..oskernel.ports import (
    IANA_EPHEMERAL_HIGH,
    IANA_EPHEMERAL_LOW,
    WINDOWS_DNS_POOL_SIZE,
)

if TYPE_CHECKING:
    from scipy import stats

#: Order-statistic parameters for the range of n=10 uniform samples.
SAMPLE_SIZE = 10
BETA_ALPHA = SAMPLE_SIZE - 1
BETA_BETA = 2

#: Known ephemeral pool sizes, as the paper states them (Section 5.3.2).
POOL_WINDOWS_DNS = 2500
POOL_FREEBSD = 16383
POOL_LINUX = 28232
POOL_FULL = 64511


class PortRangeClass(enum.Enum):
    """Table 4 rows: observed source-port-range buckets.

    ``os_label`` carries the OS attribution for the three buckets the
    model identifies; the others are boundary/buffer buckets.
    """

    ZERO = ("0", 0, 0, None)
    TINY = ("1-200", 1, 200, None)
    LOW = ("201-940", 201, 940, None)
    WINDOWS = ("941-2,488 (Windows DNS)", 941, 2488, "Windows")
    MID = ("2,489-6,124", 2489, 6124, None)
    FREEBSD = ("6,125-16,331 (FreeBSD)", 6125, 16331, "FreeBSD")
    LINUX = ("16,332-28,222 (Linux)", 16332, 28222, "Linux")
    FULL = ("28,223-65,536 (Full Port Range)", 28223, 65536, None)

    def __init__(
        self, label: str, low: int, high: int, os_label: str | None
    ) -> None:
        self.label = label
        self.low = low
        self.high = high
        self.os_label = os_label


def classify_range(range_value: int) -> PortRangeClass:
    """Map an observed source-port range onto its Table 4 bucket."""
    if range_value < 0:
        raise ValueError(f"negative range: {range_value}")
    for bucket in PortRangeClass:
        if bucket.low <= range_value <= bucket.high:
            return bucket
    raise ValueError(f"range out of bounds: {range_value}")


# -- Beta model -------------------------------------------------------------


def range_distribution(pool_size: int) -> stats.rv_continuous:
    """Frozen Beta(9, 2) distribution of the range for *pool_size*.

    The support is scaled to ``[0, pool_size - 1]``, the largest range a
    pool of that size can produce.
    """
    # scipy loads in about a second and only the fingerprint analyses
    # call it, so it is imported here rather than by every campaign.
    from scipy import stats

    if pool_size < 2:
        raise ValueError(f"pool too small for a range model: {pool_size}")
    return stats.beta(BETA_ALPHA, BETA_BETA, loc=0, scale=pool_size - 1)


def range_pdf(range_value: float, pool_size: int) -> float:
    """Density of observing *range_value* from a pool of *pool_size*."""
    return float(range_distribution(pool_size).pdf(range_value))


def optimize_cutoff(
    small_pool: int, large_pool: int, *, weight_small: float = 0.5
) -> tuple[int, float]:
    """Find the range cutoff best separating two pool sizes.

    Returns ``(cutoff, error)`` where *error* is the weighted total
    misclassification probability: ranges above the cutoff from the
    small pool plus ranges at/below it from the large pool.  This is
    the optimization the paper applies between FreeBSD and Linux
    (cutoff 16,331) and between Linux and the full range (28,222).
    """
    if small_pool >= large_pool:
        raise ValueError("small_pool must be smaller than large_pool")
    dist_small = range_distribution(small_pool)
    dist_large = range_distribution(large_pool)

    def error(cutoff: float) -> float:
        misses_small = 1.0 - float(dist_small.cdf(cutoff))
        misses_large = float(dist_large.cdf(cutoff))
        return weight_small * misses_small + (1 - weight_small) * misses_large

    low, high = 0, large_pool - 1
    best_cutoff, best_error = low, error(low)
    # The error is unimodal in the crossover region; a coarse-to-fine
    # grid search is robust and plenty fast.
    step = max((high - low) // 512, 1)
    grid = range(low, high + 1, step)
    for cutoff in grid:
        e = error(cutoff)
        if e < best_error:
            best_cutoff, best_error = cutoff, e
    for cutoff in range(
        max(low, best_cutoff - step), min(high, best_cutoff + step) + 1
    ):
        e = error(cutoff)
        if e < best_error:
            best_cutoff, best_error = cutoff, e
    return best_cutoff, best_error


def quantile_cutoff(pool_size: int, accuracy: float = 0.999) -> int:
    """Range below which *accuracy* of samples from *pool_size* fall.

    Used for the buffer buckets, "selected to achieve 99.9%
    classification accuracy" in the paper's words.
    """
    return int(math.ceil(float(range_distribution(pool_size).ppf(accuracy))))


# -- Windows wrapped-pool adjustment (verbatim from Section 5.3.2) ----------


def adjust_wrapped_ports(
    ports: list[int],
    *,
    pool_size: int = WINDOWS_DNS_POOL_SIZE,
    iana_min: int = IANA_EPHEMERAL_LOW,
    iana_max: int = IANA_EPHEMERAL_HIGH,
) -> list[int]:
    """Un-wrap a Windows DNS port sample split across the IANA range.

    Let ``R_low = [iana_min, iana_min + s - 1]`` and ``R_high =
    (iana_max - (s - 1), iana_max]``.  If every observed port falls in
    one of the two regions and both regions are represented, the sample
    plausibly comes from a pool that wrapped around the top of the IANA
    range; ports in the low region are lifted by ``iana_max - iana_min``
    so the computed range reflects the contiguous pool.  Otherwise the
    ports are returned unchanged.
    """
    if not ports:
        return []
    r_low_high = iana_min + pool_size - 1
    r_high_low = iana_max - (pool_size - 1)

    def in_low(port: int) -> bool:
        return iana_min <= port <= r_low_high

    def in_high(port: int) -> bool:
        return r_high_low < port <= iana_max

    all_in_regions = all(in_low(p) or in_high(p) for p in ports)
    has_low = any(in_low(p) for p in ports)
    has_high = any(in_high(p) for p in ports)
    if not (all_in_regions and has_low and has_high):
        return list(ports)
    shift = iana_max - iana_min
    return [p + shift if in_low(p) else p for p in ports]


# -- sequential pattern analysis (Section 5.2.3) -----------------------------


def is_strictly_increasing(ports: list[int]) -> bool:
    """True if each port is strictly greater than its predecessor."""
    return all(b > a for a, b in zip(ports, ports[1:]))


def is_increasing_with_wrap(ports: list[int]) -> bool:
    """True for a strictly increasing sequence with exactly one wrap.

    Matches the Section 5.2.3 observation: counters that climb to a
    maximum and then restart from the bottom of their pool.
    """
    if len(ports) < 2:
        return True
    drops = sum(1 for a, b in zip(ports, ports[1:]) if b <= a)
    if drops == 0:
        return False  # strictly increasing, no wrap
    if drops != 1:
        return False
    wrap_at = next(i for i, (a, b) in enumerate(zip(ports, ports[1:])) if b <= a)
    before = ports[: wrap_at + 1]
    after = ports[wrap_at + 1 :]
    return (
        is_strictly_increasing(before)
        and is_strictly_increasing(after)
        and (not after or after[0] < before[0])
    )


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def probability_unique_at_most(
    pool_size: int, draws: int, max_unique: int
) -> float:
    """P(#distinct values <= max_unique) for uniform draws from a pool.

    The paper notes that observing <= 7 unique ports out of 10 queries
    would occur only ~0.066% of the time if the pool truly held 200
    ports — evidence the effective pool is far smaller (Section 5.2.3).
    """
    if pool_size <= 0 or draws <= 0:
        raise ValueError("pool_size and draws must be positive")
    total = 0.0
    for unique in range(1, min(max_unique, draws, pool_size) + 1):
        arrangements = _stirling2(draws, unique)
        falling = 1.0
        for i in range(unique):
            falling *= pool_size - i
        total += arrangements * falling
    return total / pool_size**draws


@dataclass(frozen=True, slots=True)
class RangeObservation:
    """Ports observed from one resolver, with derived statistics."""

    ports: tuple[int, ...]
    adjusted: bool = False

    @property
    def range(self) -> int:
        return max(self.ports) - min(self.ports)

    @property
    def unique_ports(self) -> int:
        return len(set(self.ports))

    @property
    def bucket(self) -> PortRangeClass:
        return classify_range(self.range)


def observe(
    ports: list[int], *, windows_adjust: bool = False
) -> RangeObservation:
    """Build a :class:`RangeObservation`, optionally un-wrapping Windows
    pools first (the paper applies the adjustment to resolvers p0f
    identified as Windows)."""
    if not ports:
        raise ValueError("no ports observed")
    if windows_adjust:
        adjusted_ports = adjust_wrapped_ports(ports)
        return RangeObservation(
            tuple(adjusted_ports), adjusted=adjusted_ports != list(ports)
        )
    return RangeObservation(tuple(ports))
