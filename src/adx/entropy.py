"""Adversity Index: plug-in entropy of AE episode counts, with inference.

The index is the Shannon entropy of the relative episode frequencies over
AE types, in natural-log units. Higher values mean more types and/or more
even counts, read as a lower overall safety level. The asymptotic variance
is the classical plug-in form sigma^2/N with the sample index substituted
for the population value; no small-sample bias correction is applied (the
downward bias of order K/N is characterized empirically in the simulation
module instead). A profile tallies PT codes and sums them into each code's
term at a level, read from the trial's list (``TrialDataset.terms_at``).

Known limitation: N counts episodes, so within-subject correlation of
episodes is ignored, exactly as in the defining formulas.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Collection, Sequence
from operator import mul
from typing import NamedTuple

from .data import Coded
from .errors import DegenerateVariance, EmptyProfile


class _ProfileFields(NamedTuple):
    counts: dict[str, int]


class FrequencyProfile(_ProfileFields):
    """Episode counts per AE type for one cohort, an immutable named tuple.

    Zero-count types are dropped at construction: they contribute nothing
    to the sums (0*ln 0 := 0) and are excluded from K.
    """

    __slots__ = ()

    def __new__(cls, counts: dict[str, int]):
        cleaned = {}
        for label, c in counts.items():
            if c < 0:
                raise ValueError(f"negative count for {label!r}")
            if c > 0:
                cleaned[label] = int(c)
        return tuple.__new__(cls, (cleaned,))

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @property
    def n_types(self) -> int:
        return len(self.counts)


def profile_from_episodes(episodes: Coded, terms: Sequence[str] | None = None) -> FrequencyProfile:
    """Tally a cell of coded PT terms (such as a column's ``select``) by code,
    then sum the counts into each code's term in ``terms`` (a trial's
    ``terms_at(level)``; the cell's own PT terms by default)."""
    return rollup(Counter(episodes.codes), episodes.values if terms is None else terms)


def rollup(counts: dict, terms) -> FrequencyProfile:
    """``counts`` summed into ``terms[key]`` of each key, terms in order of first appearance."""
    rolled: Counter = Counter()
    for key, c in counts.items():
        rolled[terms[key]] += c
    return FrequencyProfile(rolled)


def _adx_and_variance(counts: Collection[int]) -> tuple[float, float]:
    """The one entropy kernel: ``(adx, variance)`` of positive counts per type.

    adx is -sum p_i ln p_i, as ``0.0 - sum`` so a single type gives +0.0,
    and the variance is (1/N) sum p_i (ln p_i + adx)^2. p and ln p are
    computed once. Both sums are ``math.fsum``, which is exactly rounded,
    so the result does not depend on the order of the counts.
    """
    n = sum(counts)
    if n == 0:
        raise EmptyProfile("profile has no episodes")
    p = [c / n for c in counts]
    log_p = list(map(math.log, p))
    h = 0.0 - math.fsum(map(mul, p, log_p))
    if len(set(counts)) == 1:
        return h, 0.0  # all p_i equal: every ln p_i = -adx, exactly zero
    return h, math.fsum([pi * (lp + h) ** 2 for pi, lp in zip(p, log_p)]) / n


def adx(profile: FrequencyProfile) -> float:
    """Point estimate: -sum p_i ln p_i over observed types."""
    return _adx_and_variance(profile.counts.values())[0]


def adx_variance(profile: FrequencyProfile) -> float:
    """Asymptotic variance (1/N) sum p_i (ln p_i + adx)^2."""
    return _adx_and_variance(profile.counts.values())[1]


def eals(adx_value: float) -> float:
    """Effective adversity load score: exp(adx), the equivalent number of
    equally frequent AE types. Reporting layers round to an integer; the
    real value is returned here."""
    if adx_value < 0:
        raise ValueError("adx_value must be >= 0")
    return math.exp(adx_value)


class AdxEstimate(NamedTuple):
    adx: float
    variance: float
    se: float
    k: int
    n: int
    eals: float
    seals: float


def seals(estimate: AdxEstimate) -> float:
    """Standardised EALS: eals / K, in (0, 1]."""
    return estimate.eals / estimate.k


def estimate(profile: FrequencyProfile) -> AdxEstimate:
    """Full point estimate with variance, SE and the EALS/SEALS transforms."""
    h, v = _adx_and_variance(profile.counts.values())
    k_star = eals(h)
    return AdxEstimate(
        adx=h,
        variance=v,
        se=math.sqrt(v),
        k=profile.n_types,
        n=profile.n_total,
        eals=k_star,
        seals=k_star / profile.n_types,
    )


_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = math.log(sys.float_info.max)


def normal_cdf(a: float) -> float:
    """Standard normal cdf, with the branch structure of the Cephes
    ``ndtr`` that scipy uses: ``erf`` near zero, ``erfc`` of |x| in the
    tails (so small tail areas keep full relative precision), and 0 once
    ``erfc`` would underflow (x^2 > ln(DBL_MAX))."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z) if z * z <= _MAXLOG else 0.0
    return 1.0 - y if x > 0 else y


class ComparisonResult(NamedTuple):
    diff: float
    se_diff: float
    z: float
    p_value: float
    direction: str  # "t1_less_safe" | "t2_less_safe" | "no_difference"
    alpha: float
    two_sided: bool


def compare(
    a: AdxEstimate,
    b: AdxEstimate,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> ComparisonResult:
    """Normal-approximation test of adx(a) - adx(b).

    se(diff)^2 = se(a)^2 + se(b)^2; the treatment with higher adx is read
    as less safe. One-sided p is the tail in the direction of the observed
    difference.
    """
    diff = a.adx - b.adx
    se_diff = math.sqrt(a.se ** 2 + b.se ** 2)
    if se_diff == 0.0:
        raise DegenerateVariance(
            "se(diff) is zero (both profiles uniform); normal approximation unusable"
        )
    z = diff / se_diff
    p = normal_cdf(-abs(z))
    if two_sided:
        p = min(2.0 * p, 1.0)
    if p < alpha:
        direction = "t1_less_safe" if diff > 0 else "t2_less_safe"
    else:
        direction = "no_difference"
    return ComparisonResult(
        diff=diff, se_diff=se_diff, z=z, p_value=p,
        direction=direction, alpha=alpha, two_sided=two_sided,
    )
