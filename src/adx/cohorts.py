"""Cohort partitioning: subgroup, SOC-wise, drilldown and hierarchy rollup.

Cells are (arm x subgroup) slices of the trial's episode columns. Every
estimation delegates to the entropy module, so a subgroup estimate is by
construction identical to a direct estimate on the restricted episode list.
PTs map to a level, and to a soc cell, by the trial's ``terms_at`` lists.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import cache, partial
from itertools import compress
from typing import NamedTuple

from .data import Coded, SubjectRecord, TrialDataset, _store, normalize_term
from .entropy import (
    AdxEstimate,
    ComparisonResult,
    FrequencyProfile,
    compare,
    estimate,
    profile_from_episodes,
    rollup,
)
from .errors import DegenerateVariance, EmptyProfile, UnknownDimension, UnknownSoc

SUBJECT_DIMENSIONS = ("sex", "age", "background_therapy", "substudy")
EPISODE_DIMENSIONS = ("soc", "seriousness", "severity", "tier")
DIMENSIONS = SUBJECT_DIMENSIONS + EPISODE_DIMENSIONS

UNKNOWN = "Unknown"


class _AgeBinningFields(NamedTuple):
    cut_points: tuple[float, ...]


class AgeBinning(_AgeBinningFields):
    """Half-open age bins: [cut0, cut1), ..., [last, inf); below cut0 is
    its own bin. The convention is printed in report footers because
    published boundary labels are ambiguous."""

    __slots__ = ()

    def __new__(cls, cut_points: tuple[float, ...] = (40.0, 50.0, 65.0)):
        cuts = tuple(float(c) for c in cut_points)
        if not all(map(math.isfinite, cuts)):
            raise ValueError(f"cut_points must be finite, got {', '.join(map(str, cuts))}")
        if list(cuts) != sorted(set(cuts)):
            raise ValueError("cut_points must be strictly ascending")
        if not cuts:
            raise ValueError("at least one cut point required")
        if cuts[0] <= 0:  # the bin below it could hold no subject
            raise ValueError(f"cut_points must be > 0, got {cuts[0]:g}")
        return tuple.__new__(cls, (cuts,))

    def label(self, age: float | None) -> str:
        return UNKNOWN if age is None else self.labels()[bisect_right(self.cut_points, age)]

    @cache  # label calls it once per subject
    def labels(self) -> tuple[str, ...]:
        cuts = self.cut_points
        out = [f"<{cuts[0]:g}"]
        out += [f"[{lo:g},{hi:g})" for lo, hi in zip(cuts, cuts[1:])]
        out.append(f">={cuts[-1]:g}")
        return tuple(out)


class _CohortKeyFields(NamedTuple):
    arm: str
    filters: tuple[tuple[str, str], ...]


class CohortKey(_CohortKeyFields):
    """One (arm x subgroup) cell, an immutable named tuple; the filters are
    sorted at construction, so a key hashes as ``(arm, sorted filters)``."""

    __slots__ = ()

    def __new__(cls, arm: str, filters: tuple[tuple[str, str], ...] = ()):
        dims = [d for d, _ in filters]
        if len(dims) != len(set(dims)):
            raise ValueError("at most one filter per dimension")
        return tuple.__new__(cls, (arm, tuple(sorted(filters))))

    def __str__(self) -> str:
        parts = [self.arm] + [f"{d}={v}" for d, v in self.filters]
        return " | ".join(parts)


class SubgroupReport:
    """Per-cell estimates and within-cell comparisons, filled in by the analysis."""

    def __init__(self):
        self.estimates: dict[CohortKey, AdxEstimate] = {}
        self.comparisons: list[tuple[CohortKey, CohortKey, ComparisonResult]] = []
        self.low_n: set[CohortKey] = set()
        self.empty: list[CohortKey] = []
        self.degenerate: list[tuple[CohortKey, CohortKey]] = []
        self.footnotes: list[str] = []


# the episode column each episode dimension is read from
_EPISODE_FIELD = {
    "soc": "pt_term", "seriousness": "serious", "severity": "severity", "tier": "tier"
}


def _episode_dimension_value(dim: str, value) -> str:
    """Episode dimension ``dim`` for an episode whose ``_EPISODE_FIELD[dim]``
    holds ``value``, or for ``soc`` whose PT has the soc term ``value``."""
    if dim == "seriousness":
        if value is None:
            return UNKNOWN
        return "serious" if value else "non-serious"
    if dim == "severity":
        return UNKNOWN if value is None else str(value)
    return value  # tier, soc


def _subject_value(subj: SubjectRecord, dim: str, age_binning: AgeBinning) -> str:
    if dim == "age":
        return age_binning.label(subj.age_years)
    value = getattr(subj, dim)
    return value if value is not None else UNKNOWN


def _cells(
    data: TrialDataset,
    dimensions: Sequence[str] = (),
    age_binning: AgeBinning | None = None,
    within: Iterable | None = None,
    by: Iterable | None = None,
) -> dict:
    """Group the episodes, or those that ``within`` marks true, into
    (arm x subgroup) cells: each the ``Coded`` PT terms of its episodes, in
    episode order, under its ``CohortKey``. With ``by``, one value per
    episode, each cell is split by that value, under ``(CohortKey, value)``.
    ``within`` and ``by`` are read once, in episode order.

    Each dimension is one part of an episode's key. One pass over the
    dimension's value of each code of its column (the subject column for a
    subject dimension, the PT column for ``soc``) builds its filters, each
    ``(dim, value)`` once per distinct value; episodes map to them by code.
    """
    for dim in dimensions:
        if dim not in DIMENSIONS:
            raise UnknownDimension(f"{dim!r}; valid: {', '.join(DIMENSIONS)}")
    binning = age_binning or AgeBinning()
    columns, tables = data.columns, []  # per key part after the arm, its filters by code
    keys = [columns.arm.codes]
    for dim in dimensions:
        if dim in SUBJECT_DIMENSIONS:
            column = columns.subject_id
            values = (_subject_value(s, dim, binning) for s in data.subject_of_code)
        else:
            column = getattr(columns, _EPISODE_FIELD[dim])
            source = data.terms_at("soc") if dim == "soc" else column.values
            values = map(partial(_episode_dimension_value, dim), source)
        table = {}  # value -> its code
        index = [table.setdefault(v, len(table)) for v in values]  # per column code, that code
        tables.append([(dim, v) for v in table])
        keys.append(map(index.__getitem__, column.codes))
    if by is not None:
        keys.append(by)
    pts = columns.pt_term
    groups = defaultdict(partial(_store, len(pts.values)))  # in order of first appearance
    rows = zip(pts.codes, zip(*keys))
    for code, key in rows if within is None else compress(rows, within):
        groups[key].append(code)
    cells = {}
    for (arm, *codes), group in groups.items():
        filters = map(list.__getitem__, tables, codes)  # stops before ``by``
        key = CohortKey(columns.arm.values[arm], tuple(filters))
        cells[key if by is None else (key, codes[-1])] = Coded(group, pts.values)
    return cells


def _estimate_and_pair(
    data: TrialDataset,
    profiles: dict[CohortKey, FrequencyProfile],
    control: str | None,
    alpha: float,
    two_sided: bool,
) -> SubgroupReport:
    """Estimate every cell's profile and compare the arms within each cell.

    Cells are ordered by filters, then arm, in ``data.arms`` order, and arms
    pair in that order: each arm against ``control`` when the cell has it,
    else every pair. Zero-variance pairs go to ``degenerate``; arms missing
    from a cell that has others go to ``empty``, in the same order.
    """
    report = SubgroupReport()
    by_cell: dict[tuple, dict[str, CohortKey]] = {}
    for key in sorted(profiles, key=lambda k: (k.filters, data.arms.index(k.arm))):
        report.estimates[key] = estimate(profiles[key])
        by_cell.setdefault(key.filters, {})[key.arm] = key
    for filters, arm_keys in by_cell.items():
        arms = [a for a in data.arms if a in arm_keys]
        if control in arm_keys:
            pairs = [(a, control) for a in arms if a != control]
        else:
            pairs = itertools.combinations(arms, 2)
        for a, b in pairs:
            ka, kb = arm_keys[a], arm_keys[b]
            try:
                res = compare(report.estimates[ka], report.estimates[kb], alpha, two_sided)
            except DegenerateVariance:
                report.degenerate.append((ka, kb))
                continue
            report.comparisons.append((ka, kb, res))
        report.empty += [CohortKey(a, filters) for a in data.arms if a not in arm_keys]
    return report


def subgroup_analysis(
    data: TrialDataset,
    dimensions: list[str],
    level: str = "pt",
    age_binning: AgeBinning | None = None,
    min_episodes: int = 10,
    control: str | None = None,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> SubgroupReport:
    """One estimate per (arm x subgroup cell), pairwise arm comparisons
    within each cell.

    Records lacking a dimension value land in an "Unknown" cell. Cells
    below ``min_episodes`` are still estimated but flagged low-N; empty
    cells are flagged, not fatal.
    """
    binning = age_binning or AgeBinning()
    cells = _cells(data, dimensions, binning)
    terms = data.terms_at(level)
    profiles = {key: profile_from_episodes(cell, terms) for key, cell in cells.items()}
    report = _estimate_and_pair(data, profiles, control, alpha, two_sided)
    report.low_n = {key for key, est in report.estimates.items() if est.n < min_episodes}
    if "age" in dimensions:
        report.footnotes.append(
            "age bins are left-closed right-open: " + ", ".join(binning.labels())
        )
    return report


def soc_analysis(
    data: TrialDataset,
    control: str | None = None,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> SubgroupReport:
    """Per-SOC AdX per arm (PT-level profiles restricted to the SOC) with
    active-vs-control comparisons."""
    return subgroup_analysis(
        data, ["soc"], level="pt", control=control, alpha=alpha, two_sided=two_sided
    )


class DrilldownTable(NamedTuple):
    soc: str
    arms: list[str]
    rows: list[tuple[str, dict[str, int]]]  # (pt term, counts per arm), top-n
    others: dict[str, int]
    zero_count_types: dict[str, int]
    totals: dict[str, int]
    total_types: int


def drilldown(data: TrialDataset, soc: str, arms: list[str] | None = None,
              top_n: int = 2) -> DrilldownTable:
    """Per-arm episode counts for the leading AE types inside one SOC,
    with "Others" and zero-count-type rows.

    The zero-count row counts, per arm, the types observed in the SOC
    across the listed arms but absent from that arm. It is informational:
    per-arm totals are named rows + Others.
    """
    if top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")
    soc_of = dict(zip(data.terms_at("pt"), data.terms_at("soc")))
    soc_n = normalize_term(soc)
    if soc_n not in data.hierarchy.socs():
        raise UnknownSoc(f"soc {soc_n!r} not present in hierarchy")
    arms = list(arms) if arms else list(data.arms)

    counts: dict[str, dict[str, int]] = {}
    for arm in dict.fromkeys(arms):
        terms = data.columns.pt_term.select(data.in_arm(arm))
        for pt, c in profile_from_episodes(terms).counts.items():
            if soc_of[pt] == soc_n:
                counts.setdefault(pt, {a: 0 for a in arms})[arm] = c

    ranked = sorted(counts, key=lambda pt: (-max(counts[pt].values()), pt))
    top = ranked[:top_n]
    rest = ranked[len(top):]
    others = {a: sum(counts[pt][a] for pt in rest) for a in arms}
    zero = {a: sum(1 for pt in counts if counts[pt][a] == 0) for a in arms}
    totals = {a: sum(counts[pt][a] for pt in counts) for a in arms}
    return DrilldownTable(
        soc=soc_n,
        arms=arms,
        rows=[(pt, dict(counts[pt])) for pt in top],
        others=others,
        zero_count_types=zero,
        totals=totals,
        total_types=len(counts),
    )


class PropositionReport(NamedTuple):
    """AdX by hierarchy level and the rollup diagnostics.

    Rolling the profile up one level can only merge types, so the index
    can never increase (proposition 1, asserted). Rank preservation and
    significance propagation across levels (propositions 2-4) are not
    guaranteed and are recorded empirically only; proposition 4 is the
    contrapositive of proposition 3, so ``p4_holds`` always equals
    ``p3_holds``.
    """

    levels: list[str]
    estimates: dict[tuple[str, str], AdxEstimate]  # (arm, level) -> estimate
    comparisons: dict[tuple[str, str, str], ComparisonResult]  # (a, b, level)
    degenerate: list[tuple[str, str, str]]  # (a, b, level) of the zero-variance pairs
    p1_holds: bool
    p2_holds: bool
    p3_holds: bool
    p4_holds: bool


def hierarchy_sweep(
    data: TrialDataset,
    levels: tuple[str, ...] = ("pt", "hlt", "hlgt"),
    control: str | None = None,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> PropositionReport:
    arms = list(data.arms)
    folds = {level: dict(zip(data.terms_at("pt"), data.terms_at(level))) for level in levels}
    cells = _cells(data)
    missing = [arm for arm in arms if CohortKey(arm) not in cells]
    if missing:
        raise EmptyProfile(f"no episodes in arm(s): {', '.join(missing)}")
    estimates: dict[tuple[str, str], AdxEstimate] = {}
    comparisons: dict[tuple[str, str, str], ComparisonResult] = {}
    degenerate: list[tuple[str, str, str]] = []
    by_pt = {key: profile_from_episodes(terms) for key, terms in cells.items()}
    for level in levels:
        profiles = {key: rollup(profile.counts, folds[level]) for key, profile in by_pt.items()}
        rep = _estimate_and_pair(data, profiles, control, alpha, two_sided)
        by_arm = {key.arm: est for key, est in rep.estimates.items()}
        estimates.update(((arm, level), by_arm[arm]) for arm in arms)
        comparisons.update(((ka.arm, kb.arm, level), res) for ka, kb, res in rep.comparisons)
        degenerate += [(ka.arm, kb.arm, level) for ka, kb in rep.degenerate]

    # P1: coarsening never increases the index (theorem; tiny float slack)
    p1 = all(
        estimates[(arm, levels[i])].adx >= estimates[(arm, levels[i + 1])].adx - 1e-9
        for arm in arms
        for i in range(len(levels) - 1)
    )
    if not p1:
        raise AssertionError("coarsening increased AdX; entropy rollup is broken")

    rankings = [
        tuple(sorted(arms, key=lambda a: estimates[(a, level)].adx)) for level in levels
    ]
    p2 = all(r == rankings[0] for r in rankings)

    # finer level = earlier in `levels`. P3: significance at a coarser level
    # implies significance at every finer level. P4, non-significance at a
    # finer level implies it at every coarser level, is P3's contrapositive,
    # so it always equals P3.
    p3 = True
    for a, b in dict.fromkeys((a, b) for a, b, _ in comparisons):
        sig = [
            (a, b, lv) in comparisons and comparisons[(a, b, lv)].p_value < alpha
            for lv in levels
        ]
        if any(sig[i + 1] and not sig[i] for i in range(len(levels) - 1)):
            p3 = False
    return PropositionReport(
        levels=list(levels),
        estimates=estimates,
        comparisons=comparisons,
        degenerate=degenerate,
        p1_holds=p1,
        p2_holds=p2,
        p3_holds=p3,
        p4_holds=p3,
    )
