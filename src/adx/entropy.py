"""Adversity Index: plug-in entropy of AE episode counts, with inference.

The index is the Shannon entropy of the relative episode frequencies over
AE types, in natural-log units. Higher values mean more types and/or more
even counts, read as a lower overall safety level. The asymptotic variance
is the classical plug-in form sigma^2/N with the sample index substituted
for the population value; no small-sample bias correction is applied (the
downward bias of order K/N is characterized empirically in the simulation
module instead).

Known limitation: N counts episodes, so within-subject correlation of
episodes is ignored, exactly as in the defining formulas.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

from .data import HIERARCHY_LEVELS, AeEpisode, HierarchyMap
from .errors import DegenerateVariance, EmptyProfile, MissingHierarchy


@dataclass(frozen=True)
class FrequencyProfile:
    """Episode counts per AE type for one cohort.

    Zero-count types are dropped at construction: they contribute nothing
    to the sums (0*ln 0 := 0) and are excluded from K.
    """

    counts: dict[str, int]

    def __post_init__(self):
        cleaned = {}
        for label, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count for {label!r}")
            if c > 0:
                cleaned[label] = int(c)
        object.__setattr__(self, "counts", cleaned)

    @property
    def n_total(self) -> int:
        return sum(self.counts.values())

    @property
    def n_types(self) -> int:
        return len(self.counts)

    @property
    def proportions(self) -> dict[str, float]:
        n = self.n_total
        return {label: c / n for label, c in self.counts.items()}


def profile_from_episodes(
    episodes: list[AeEpisode],
    level: str = "pt",
    hierarchy: HierarchyMap | None = None,
) -> FrequencyProfile:
    """Tally episodes by term at the requested hierarchy level."""
    if level not in HIERARCHY_LEVELS:
        raise ValueError(f"level must be one of {HIERARCHY_LEVELS}, got {level!r}")
    if level == "pt":
        return FrequencyProfile(Counter(e.pt_term for e in episodes))
    if hierarchy is None:
        raise MissingHierarchy(f"level {level!r} requires a hierarchy mapping")
    return FrequencyProfile(Counter(hierarchy.term_at(e.pt_term, level) for e in episodes))


def adx(profile: FrequencyProfile) -> float:
    """Point estimate: -sum p_i ln p_i over observed types.

    Computed as ``0.0 - sum``, so a single-type profile gives +0.0, not -0.0.
    """
    n = profile.n_total
    if n == 0:
        raise EmptyProfile("profile has no episodes")
    return 0.0 - sum((c / n) * math.log(c / n) for c in profile.counts.values())


def adx_variance(profile: FrequencyProfile) -> float:
    """Asymptotic variance (1/N) sum p_i (ln p_i + adx)^2."""
    n = profile.n_total
    if n == 0:
        raise EmptyProfile("profile has no episodes")
    counts = profile.counts.values()
    if len(set(counts)) == 1:
        return 0.0  # all p_i equal: every ln p_i = -adx, exactly zero
    h = adx(profile)
    return sum((c / n) * (math.log(c / n) + h) ** 2 for c in counts) / n


def eals(adx_value: float) -> float:
    """Effective adversity load score: exp(adx), the equivalent number of
    equally frequent AE types. Reporting layers round to an integer; the
    real value is returned here."""
    if adx_value < 0:
        raise ValueError("adx_value must be >= 0")
    return math.exp(adx_value)


@dataclass(frozen=True)
class AdxEstimate:
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
    h = adx(profile)
    v = adx_variance(profile)
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


def estimate_from_stats(adx_value: float, se: float, k: int, n: int = 0) -> AdxEstimate:
    """Build an estimate from published summary numbers (golden-test aid)."""
    k_star = eals(adx_value)
    return AdxEstimate(
        adx=adx_value,
        variance=se * se,
        se=se,
        k=k,
        n=n,
        eals=k_star,
        seals=k_star / k if k else float("nan"),
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


@dataclass(frozen=True)
class ComparisonResult:
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
