"""Cumulative AdX at interim looks and AE profiles by exposure (cycles).

Per-look tests are the naive normal tests on the cumulative profile at
that look; no alpha spending or group-sequential adjustment is applied,
and that caveat travels with every report. Only the episodes within the
last look are grouped, their PTs counted by the trial's ``terms_at`` list.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import NamedTuple

from .cohorts import AgeBinning, CohortKey, _cells, _estimate_and_pair
from .data import TrialDataset
from .entropy import (
    AdxEstimate,
    ComparisonResult,
    FrequencyProfile,
    estimate,
    profile_from_episodes,
)
from .errors import ExposureBelowEpisodes, NoCycleData, NoDatedEpisodes, UnknownSubject

SEQUENTIAL_CAVEAT = (
    "per-look tests are unadjusted for repeated looks (no alpha spending)"
)


class _LookScheduleFields(NamedTuple):
    cutoff_days: tuple[int, ...]


class LookSchedule(_LookScheduleFields):
    __slots__ = ()

    def __new__(cls, cutoff_days: tuple[int, ...]):
        cuts = tuple(int(c) for c in cutoff_days)
        if list(cuts) != sorted(set(cuts)):
            raise ValueError("cutoff_days must be strictly ascending")
        if not cuts:
            raise ValueError("at least one cutoff required")
        if cuts[0] < 0:
            raise ValueError(f"cutoff_days must be >= 0, got {cuts[0]}")
        return tuple.__new__(cls, (cuts,))


def default_schedule(data: TrialDataset) -> LookSchedule:
    """Divide the observed onset-day span into thirds, repeated cutoffs
    dropped; the last cutoff is the max onset day so the final look sees
    every dated episode."""
    column = data.columns.onset_day  # its table may hold days no episode has
    days = {column.values[code] for code in set(column.codes)} - {None}
    if not days:
        raise NoDatedEpisodes("no episode carries onset_day")
    lo, hi = min(days), max(days)
    return LookSchedule(tuple(dict.fromkeys(lo + round(i * (hi - lo) / 3) for i in (1, 2, 3))))


class InterimSeries:
    """Per-look estimates, comparisons and zero-variance pairs, filled in
    look by look."""

    def __init__(self, schedule: LookSchedule, excluded_undated: int):
        self.schedule = schedule
        self.estimates: dict[tuple[CohortKey, int], AdxEstimate] = {}  # (key, look index)
        self.comparisons: list[tuple[CohortKey, CohortKey, int, ComparisonResult]] = []
        self.degenerate: list[tuple[CohortKey, CohortKey, int]] = []
        self.excluded_undated = excluded_undated


def interim_series(
    data: TrialDataset,
    schedule: LookSchedule | None = None,
    dimensions: list[str] | None = None,
    level: str = "pt",
    age_binning: AgeBinning | None = None,
    control: str | None = None,
    alpha: float = 0.05,
    two_sided: bool = True,
) -> InterimSeries:
    """Cumulative estimates per (arm x optional subgroup cell x look).

    Look t covers episodes with onset_day <= cutoff[t]; undated episodes
    are excluded and their count reported.
    """
    terms = data.terms_at(level)
    if "soc" in (dimensions or ()):  # a soc filter's terms, before the episodes are checked
        data.terms_at("soc")
    days = data.columns.onset_day
    undated = days.count(None)
    if undated == len(days):
        raise NoDatedEpisodes("no episode carries onset_day")
    if schedule is None:
        schedule = default_schedule(data)
    series = InterimSeries(schedule, undated)
    looks = _cumulative_profiles(data, days, schedule.cutoff_days, terms, dimensions or (),
                                 age_binning)
    for look, profiles in enumerate(looks):
        rep = _estimate_and_pair(data, profiles, control, alpha, two_sided)
        series.estimates.update(((key, look), est) for key, est in rep.estimates.items())
        series.comparisons += [(ka, kb, look, res) for ka, kb, res in rep.comparisons]
        series.degenerate += [(ka, kb, look) for ka, kb in rep.degenerate]
    return series


def _cumulative_profiles(data: TrialDataset, column, cutoffs, terms, dimensions=(),
                         age_binning: AgeBinning | None = None):
    """Per ascending cutoff, the profile at ``terms`` (a ``terms_at``) of each
    (arm x subgroup) cell's episodes whose value in the coded ``column`` is at
    most the cutoff (cells with none left out). ``_cells`` groups the PT codes
    of the episodes within the last cutoff by cell and look (the first cutoff
    an episode is within, worked out once per code); each look's tally
    updates the cell's running ``Counter``: O(N + looks x K)."""
    look = [None if v is None or v > cutoffs[-1] else bisect_left(cutoffs, v)
            for v in column.values]
    has_look = bytes(i is not None for i in look)
    groups = _cells(data, dimensions, age_binning, map(has_look.__getitem__, column.codes),
                    map(look.__getitem__, column.codes))
    running = {key: Counter() for key, _ in groups}
    for i in range(len(cutoffs)):
        for key, counts in running.items():
            if (key, i) in groups:
                counts.update(profile_from_episodes(groups[key, i], terms).counts)
        # the running counts are all positive: a profile of them needs no re-check
        yield {key: tuple.__new__(FrequencyProfile, (dict(counts),))
               for key, counts in running.items() if counts}


def _last_cycles(data: TrialDataset, exposure: dict[str, int]) -> tuple[int, Counter]:
    """The highest episode cycle, and per (arm, last cycle) how many subjects
    have it: a subject's ``exposure`` row, if any, in place of its episodes'
    highest cycle, which the row may not be below; a row must name a subject
    of the trial. Its per-subject scratch is freed on return."""
    ids = data.columns.subject_id
    last = [0] * len(ids.values)  # per subject code, the highest episode cycle
    for s, c in zip(ids.codes, data.columns.cycle):
        if c is not None and c > last[s]:
            last[s] = c
    highest = dict(zip(ids.values, last)) if exposure else {}  # as large as ``exposure``
    known = {s.subject_id for s in data.subjects} if exposure else ()
    for subject_id, given in exposure.items():  # the first faulty row in the map's order
        if subject_id not in known:
            raise UnknownSubject(f"exposure row references unknown subject {subject_id!r}",
                                 subject_id)
        if given < (cycle := highest.get(subject_id, 0)):
            raise ExposureBelowEpisodes(
                f"exposure row gives subject {subject_id!r} last_cycle {given}, "
                f"below its episodes' cycle {cycle}", subject_id)
    reach = Counter((subject.arm, c) for subject, c in zip(data.subject_of_code, last)
                    if c and subject.subject_id not in exposure)
    reach.update((s.arm, exposure[s.subject_id]) for s in data.subjects
                 if s.subject_id in exposure)
    return max(last), reach


class ExposureCurves(NamedTuple):
    max_cycle: int
    # per arm: list of rows (cycle, adx, k, n, subjects_at_cycle)
    curves: dict[str, list[tuple[int, float, int, int, int]]]
    excluded_no_cycle: int


def exposure_curves(
    data: TrialDataset,
    max_cycle: int | None = None,
    exposure: dict[str, int] | None = None,
    level: str = "pt",
) -> ExposureCurves:
    """Cumulative AdX/K/N per arm as a function of cycles completed.

    subjects_at_cycle c counts subjects whose exposure (explicit
    ``exposure`` map of subject_id -> last_cycle, else the subject's max
    episode cycle) reaches cycle c. ``max_cycle`` defaults to the highest
    episode cycle and must be at least 1.
    """
    if max_cycle is not None and max_cycle < 1:
        raise ValueError(f"max_cycle must be >= 1, got {max_cycle}")
    terms = data.terms_at(level)
    cycle = data.columns.cycle
    no_cycle = cycle.count(None)
    if no_cycle == len(cycle):
        raise NoCycleData("no episode carries a cycle number")
    highest, reach = _last_cycles(data, exposure or {})
    top = highest if max_cycle is None else max_cycle
    cycles = range(1, top + 1)
    looks = _cumulative_profiles(data, cycle, cycles, terms)
    curves: dict[str, list[tuple[int, float, int, int, int]]] = {arm: [] for arm in data.arms}
    for c, profiles in zip(cycles, looks):
        for arm, rows in curves.items():
            at_cycle = sum(n for (a, last_c), n in reach.items() if a == arm and last_c >= c)
            if CohortKey(arm) in profiles:
                est = estimate(profiles[CohortKey(arm)])
                rows.append((c, est.adx, est.k, est.n, at_cycle))
            else:
                rows.append((c, 0.0, 0, 0, at_cycle))
    return ExposureCurves(max_cycle=top, curves=curves, excluded_no_cycle=no_cycle)
