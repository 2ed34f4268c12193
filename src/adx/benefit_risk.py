"""Benefit-risk measures: REAd (efficacy magnitude / AdX) and Re-REAd.

Efficacy enters as an external scalar per arm (e.g. median PFS, or a mean
change from baseline); the toolkit does not derive it from raw data, and
it is held fixed across bootstrap replicates, so the interval reflects
AdX sampling variability only.
"""
from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import Column, Fault, TrialDataset, read_table
from .entropy import AdxEstimate, estimate, profile_from_episodes
from .errors import (
    DivisionByZeroBenefit,
    InsufficientData,
    MalformedRow,
    ZeroAdversity,
)
from . import kernel


class _EfficacyFields(NamedTuple):
    arm: str
    value: float
    higher_is_better: bool
    label: str


class EfficacyInput(_EfficacyFields):
    __slots__ = ()

    def __new__(cls, arm: str, value: float, higher_is_better: bool = True, label: str = ""):
        if not math.isfinite(value):
            raise ValueError("efficacy value must be finite")
        return tuple.__new__(cls, (arm, value, higher_is_better, label))

    @property
    def benefit(self) -> float:
        """Magnitude used downstream; negative-is-better endpoints fold
        through absolute value."""
        return self.value if self.higher_is_better else abs(self.value)


def _bad_row(parse):
    """``parse``; its failure is a bad efficacy row."""
    def checked(raw):
        try:
            return parse(raw)
        except (AttributeError, TypeError, ValueError) as exc:
            raise Fault(f"bad efficacy row: {exc}", 1) from None
    return checked


_EFFICACY_COLUMNS = (
    Column("arm", _bad_row(lambda raw: raw.strip()), required=True),
    Column("value", _bad_row(float), required=True),
    Column("higher_is_better",
           _bad_row(lambda raw: raw.strip().lower() in ("1", "true", "yes", "y")), absent="true"),
    Column("endpoint_label", lambda raw: (raw or "").strip()),
)


def load_efficacy(path: str | Path) -> dict[str, EfficacyInput]:
    """Read the efficacy CSV: arm,endpoint_label,value,higher_is_better,
    one row per arm."""
    out: dict[str, EfficacyInput] = {}

    def check(entry: EfficacyInput, line_no: int) -> None:
        _bad_row(lambda fields: EfficacyInput(*fields))(entry)  # the constructor's value check
        if out.setdefault(entry.arm, entry) is not entry:
            raise ValueError(f"second efficacy row for arm {entry.arm!r}")
    read_table(path, EfficacyInput, _EFFICACY_COLUMNS, check)
    if not out:
        raise MalformedRow(path, 1, "efficacy file has no rows")
    return out


def read_score(efficacy: EfficacyInput, est: AdxEstimate) -> float:
    """REAd: |benefit| / adx."""
    if est.adx == 0.0:
        raise ZeroAdversity(
            f"arm {efficacy.arm!r} has a single AE type (adx 0, eals {est.eals:.0f}); "
            "the benefit/adversity ratio is ill-defined"
        )
    return abs(efficacy.benefit) / est.adx


def re_read(read_a: float, read_b: float) -> float:
    """Ratio of two REAd values, from unrounded inputs."""
    if read_b == 0.0:
        raise DivisionByZeroBenefit("denominator REAd is zero")
    return read_a / read_b


def check_sign_consistency(inputs: dict[str, EfficacyInput]) -> None:
    """Warn when higher_is_better contradicts the sign pattern: a
    lower-is-better endpoint whose values are all positive (or vice versa)
    usually means the flag is wrong."""
    values = [e.value for e in inputs.values()]
    hib = {e.higher_is_better for e in inputs.values()}
    if len(hib) == 1 and not hib.pop() and values and all(v > 0 for v in values):
        warnings.warn(
            "all efficacy values are positive but higher_is_better is false; "
            "check the endpoint direction",
            stacklevel=2,
        )


class BenefitRiskResult(NamedTuple):
    read_values: dict[str, float]
    re_read_values: dict[tuple[str, str], float]


def benefit_risk(
    estimates: dict[str, AdxEstimate],
    efficacy: dict[str, EfficacyInput],
    pairs: list[tuple[str, str]],
) -> BenefitRiskResult:
    """REAd per arm and Re-REAd per pair of ``pairs``."""
    check_sign_consistency(efficacy)
    reads = {arm: read_score(efficacy[arm], est) for arm, est in estimates.items() if arm in efficacy}
    rr = {(a, b): re_read(reads[a], reads[b]) for a, b in pairs}
    return BenefitRiskResult(read_values=reads, re_read_values=rr)


def re_read_bootstrap_ci(
    data: TrialDataset,
    efficacy: dict[str, EfficacyInput],
    arms: tuple[str, str],
    level: float = 0.95,
    replicates: int = 1000,
    seed: int = 0,
    unit: str = "episode",
    hierarchy_level: str = "pt",
) -> tuple[float, float]:
    """Percentile bootstrap interval for Re-REAd(arms[0]/arms[1]).

    Resampling unit is the episode by default (matching the estimator's
    counting unit); ``unit="subject"`` draws whole subjects to respect
    within-subject correlation. Replicate r uses the stream seeded by
    (seed, r), so results are independent of evaluation order and of the
    number of workers ``kernel.replicates`` spreads the replicates over.
    """
    if unit not in ("episode", "subject"):
        raise ValueError("unit must be 'episode' or 'subject'")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if replicates < 200:
        raise InsufficientData("need at least 200 bootstrap replicates")

    # Code each arm's terms and subjects once, in order of first appearance.
    # A replicate's counts are then a bincount of the drawn term codes or,
    # for the subject unit, of every code weighted by how often its subject
    # was drawn.
    arm_codes: dict[str, tuple[np.ndarray, int, np.ndarray, int]] = {}
    for arm in arms:
        eps = data.episodes_for_arm(arm)
        if len(eps) < 2:
            raise InsufficientData(f"arm {arm!r} has fewer than 2 episodes")
        if hierarchy_level == "pt":
            terms = [e.pt_term for e in eps]
        else:
            h = data.require_hierarchy()
            terms = [h.term_at(e.pt_term, hierarchy_level) for e in eps]
        term_index: dict[str, int] = {}
        subject_index: dict[str, int] = {}
        codes = np.fromiter((term_index.setdefault(t, len(term_index)) for t in terms),
                            np.intp, len(eps))
        subjects = np.fromiter((subject_index.setdefault(e.subject_id, len(subject_index))
                                for e in eps), np.intp, len(eps))
        arm_codes[arm] = (codes, len(term_index), subjects, len(subject_index))
        # fail fast on a degenerate point estimate
        read_score(efficacy[arm], estimate(profile_from_episodes(eps, hierarchy_level, data.hierarchy)))

    def adxs(r: int) -> list[float]:
        """Each arm's adx in replicate r."""
        rng = np.random.default_rng([seed, r])
        row = []
        for arm in arms:
            codes, k, subjects, s = arm_codes[arm]
            if unit == "episode":
                drawn = codes[rng.integers(0, len(codes), size=len(codes))]
                counts = np.bincount(drawn, minlength=k)
            else:
                mult = np.bincount(rng.integers(0, s, size=s), minlength=s)
                counts = np.bincount(codes, weights=mult[subjects], minlength=k)
            row.append(kernel.adx(counts))
        return row

    h = kernel.replicates(adxs, replicates, len(arms))
    collapsed = np.argwhere(h == 0.0)  # in replicate order, then arm order
    if len(collapsed):
        r, i = collapsed[0]
        raise ZeroAdversity(f"bootstrap replicate {r}: arm {arms[i]!r} collapsed to one AE type")
    reads = [abs(efficacy[arm].benefit) / h[:, i] for i, arm in enumerate(arms)]
    values = reads[0] / reads[1]
    lo_q = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [lo_q, 1.0 - lo_q])
    return float(lo), float(hi)
