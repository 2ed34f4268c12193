"""Cumulative AdX at interim looks and AE profiles by exposure (cycles).

Per-look tests are the naive normal tests on the cumulative profile at
that look; no alpha spending or group-sequential adjustment is applied,
and that caveat travels with every report.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cohorts import AgeBinning, CohortKey, _cells, _estimate_and_pair
from .data import TrialDataset
from .entropy import AdxEstimate, ComparisonResult, estimate, profile_from_episodes
from .errors import NoCycleData, NoDatedEpisodes

SEQUENTIAL_CAVEAT = (
    "per-look tests are unadjusted for repeated looks (no alpha spending)"
)


@dataclass(frozen=True)
class LookSchedule:
    cutoff_days: tuple[int, ...]

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cutoff_days)
        if list(cuts) != sorted(set(cuts)):
            raise ValueError("cutoff_days must be strictly ascending")
        if not cuts:
            raise ValueError("at least one cutoff required")
        object.__setattr__(self, "cutoff_days", cuts)


def default_schedule(data: TrialDataset, parts: int = 3) -> LookSchedule:
    """Divide the observed onset-day span into equal parts; the last
    cutoff is the max onset day so the final look sees every dated episode."""
    days = [e.onset_day for e in data.episodes if e.onset_day is not None]
    if not days:
        raise NoDatedEpisodes("no episode carries onset_day")
    lo, hi = min(days), max(days)
    if lo == hi:
        return LookSchedule((hi,))
    cuts = []
    for i in range(1, parts + 1):
        c = lo + round(i * (hi - lo) / parts)
        if not cuts or c > cuts[-1]:
            cuts.append(c)
    cuts[-1] = hi
    return LookSchedule(tuple(cuts))


@dataclass
class InterimSeries:
    schedule: LookSchedule
    estimates: dict[tuple[CohortKey, int], AdxEstimate]  # (key, look index)
    comparisons: list[tuple[CohortKey, CohortKey, int, ComparisonResult]]
    excluded_undated: int
    caveats: list[str] = field(default_factory=lambda: [SEQUENTIAL_CAVEAT])


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
    dated = [e for e in data.episodes if e.onset_day is not None]
    excluded = len(data.episodes) - len(dated)
    if not dated:
        raise NoDatedEpisodes("no episode carries onset_day")
    if schedule is None:
        schedule = default_schedule(data)
    cells = _cells(data, dated, dimensions or (), age_binning)
    series = InterimSeries(schedule=schedule, estimates={}, comparisons=[], excluded_undated=excluded)
    for look, cutoff in enumerate(schedule.cutoff_days):
        upto = {key: [e for e in eps if e.onset_day <= cutoff] for key, eps in cells.items()}
        rep = _estimate_and_pair(
            data, {key: eps for key, eps in upto.items() if eps}, level, control, alpha, two_sided
        )
        series.estimates.update(((key, look), est) for key, est in rep.estimates.items())
        series.comparisons += [(ka, kb, look, res) for ka, kb, res in rep.comparisons]
    return series


@dataclass
class ExposureCurves:
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
    episode cycle) reaches cycle c.
    """
    cycled = [e for e in data.episodes if e.cycle is not None]
    excluded = len(data.episodes) - len(cycled)
    if not cycled:
        raise NoCycleData("no episode carries a cycle number")
    top = max_cycle or max(e.cycle for e in cycled)

    last_cycle: dict[str, int] = {}
    for e in cycled:
        last_cycle[e.subject_id] = max(last_cycle.get(e.subject_id, 0), e.cycle)
    if exposure:
        last_cycle.update(exposure)

    curves: dict[str, list[tuple[int, float, int, int, int]]] = {}
    for arm in data.arms:
        arm_eps = [e for e in cycled if e.arm == arm]
        arm_subjects = [s.subject_id for s in data.subjects if s.arm == arm]
        rows = []
        for c in range(1, top + 1):
            upto = [e for e in arm_eps if e.cycle <= c]
            at_cycle = sum(1 for sid in arm_subjects if last_cycle.get(sid, 0) >= c)
            if upto:
                est = estimate(profile_from_episodes(upto, level, data.hierarchy))
                rows.append((c, est.adx, est.k, est.n, at_cycle))
            else:
                rows.append((c, 0.0, 0, 0, at_cycle))
        curves[arm] = rows
    return ExposureCurves(max_cycle=top, curves=curves, excluded_no_cycle=excluded)
