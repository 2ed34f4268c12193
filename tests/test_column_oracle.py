"""The analyses on the trial's columns against the per-episode path they
replaced, kept here as the oracle: cells of ``AeEpisode`` records (decoded
from the columns by ``conftest.episode_records``) grouped episode by episode,
and profiles tallied off the records' ``pt_term`` (``conftest.record_profile``).

Trials are drawn with empty arms, missing onset, cycle, serious and
severity values, and terms with commas and non-ASCII letters. Some are
built in code with a full hierarchy; the rest go through CSV files and
``load_trial`` with a partial hierarchy read with ``unmapped="synthetic"``,
after building them in code with that hierarchy has failed on the PTs it
does not map.
"""
import gc
import itertools
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import cache
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adx import cli, cohorts, temporal
from adx.cohorts import (
    DIMENSIONS,
    EPISODE_DIMENSIONS,
    SUBJECT_DIMENSIONS,
    AgeBinning,
    CohortKey,
    DrilldownTable,
    PropositionReport,
    _episode_dimension_value,
    _estimate_and_pair,
    _subject_value,
)
from adx.data import (
    AeEpisode,
    HierarchyMap,
    SubjectRecord,
    TrialDataset,
    dataset_summary,
    load_trial,
    normalize_term,
    write_trial,
)
from adx.entropy import estimate
from adx.errors import (
    AdxError,
    EmptyProfile,
    ExposureBelowEpisodes,
    NoCycleData,
    NoDatedEpisodes,
    UnknownDimension,
    UnmappedTerm,
)
from adx.temporal import ExposureCurves, InterimSeries, LookSchedule

from conftest import episode_records, record_profile, rollup, write_csv

# --- the per-episode path -------------------------------------------------


def reference_cells(data, episodes, dimensions=(), age_binning=None):
    for dim in dimensions:
        if dim not in DIMENSIONS:
            raise UnknownDimension(f"{dim!r}; valid: {', '.join(DIMENSIONS)}")
    binning = age_binning or AgeBinning()
    fields = {"soc": "pt_term", "seriousness": "serious", "severity": "severity", "tier": "tier"}
    subject_dims = [d for d in dimensions if d in SUBJECT_DIMENSIONS]
    episode_fields = [(d, fields[d]) for d in dimensions if d in EPISODE_DIMENSIONS]
    by_subject = {
        s.subject_id: tuple((d, _subject_value(s, d, binning)) for d in subject_dims)
        for s in data.subjects
    }

    @cache
    def episode_filter(dim, value):
        if dim == "soc":
            return dim, data.hierarchy.term_at(value, "soc")
        return dim, _episode_dimension_value(dim, value)

    groups = defaultdict(list)
    for ep in episodes:
        filters = by_subject[ep.subject_id]
        for dim, name in episode_fields:
            filters += (episode_filter(dim, getattr(ep, name)),)
        groups[ep.arm, filters].append(ep)
    return {CohortKey(arm, filters): eps for (arm, filters), eps in groups.items()}


def reference_subgroup_analysis(data, dimensions, level="pt", age_binning=None, min_episodes=10,
                                control=None, alpha=0.05, two_sided=True):
    binning = age_binning or AgeBinning()
    cells = reference_cells(data, episode_records(data.columns), dimensions, binning)
    profiles = {key: record_profile(eps, level, data.hierarchy) for key, eps in cells.items()}
    report = _estimate_and_pair(data, profiles, control, alpha, two_sided)
    report.low_n = {key for key, est in report.estimates.items() if est.n < min_episodes}
    if "age" in dimensions:
        report.footnotes.append(
            "age bins are left-closed right-open: " + ", ".join(binning.labels()))
    return report


def reference_drilldown(data, soc, arms=None, top_n=2):
    hierarchy = data.hierarchy
    soc_n = normalize_term(soc)
    arms = list(arms) if arms else list(data.arms)
    counts = {}
    for arm in dict.fromkeys(arms):
        for pt, c in record_profile(episode_records(data.columns, arm)).counts.items():
            if hierarchy.term_at(pt, "soc") == soc_n:
                counts.setdefault(pt, {a: 0 for a in arms})[arm] = c
    ranked = sorted(counts, key=lambda pt: (-max(counts[pt].values()), pt))
    top, rest = ranked[:top_n], ranked[top_n:]
    return DrilldownTable(
        soc=soc_n, arms=arms, rows=[(pt, dict(counts[pt])) for pt in top],
        others={a: sum(counts[pt][a] for pt in rest) for a in arms},
        zero_count_types={a: sum(1 for pt in counts if counts[pt][a] == 0) for a in arms},
        totals={a: sum(counts[pt][a] for pt in counts) for a in arms}, total_types=len(counts))


def reference_hierarchy_sweep(data, levels=("pt", "hlt", "hlgt"), control=None, alpha=0.05,
                              two_sided=True):
    arms = list(data.arms)
    cells = reference_cells(data, episode_records(data.columns))
    missing = [arm for arm in arms if CohortKey(arm) not in cells]
    if missing:
        raise EmptyProfile(f"no episodes in arm(s): {', '.join(missing)}")
    estimates, comparisons, degenerate = {}, {}, []
    by_pt = {key: record_profile(eps) for key, eps in cells.items()}
    for level in levels:
        profiles = {key: rollup(profile, level, data.hierarchy) for key, profile in by_pt.items()}
        rep = _estimate_and_pair(data, profiles, control, alpha, two_sided)
        by_arm = {key.arm: est for key, est in rep.estimates.items()}
        estimates.update(((arm, level), by_arm[arm]) for arm in arms)
        comparisons.update(((ka.arm, kb.arm, level), res) for ka, kb, res in rep.comparisons)
        degenerate += [(ka.arm, kb.arm, level) for ka, kb in rep.degenerate]
    p1 = all(estimates[(arm, levels[i])].adx >= estimates[(arm, levels[i + 1])].adx - 1e-9
             for arm in arms for i in range(len(levels) - 1))
    rankings = [tuple(sorted(arms, key=lambda a: estimates[(a, lv)].adx)) for lv in levels]
    p3 = True
    for a, b in dict.fromkeys((a, b) for a, b, _ in comparisons):
        sig = [(a, b, lv) in comparisons and comparisons[(a, b, lv)].p_value < alpha
               for lv in levels]
        if any(sig[i + 1] and not sig[i] for i in range(len(levels) - 1)):
            p3 = False
    return PropositionReport(list(levels), estimates, comparisons, degenerate, p1,
                             all(r == rankings[0] for r in rankings), p3, p3)


def reference_cumulative_profiles(data, cells, attr, cutoffs, level):
    """Each look's profiles, recounted from each cell's episodes up to its cutoff."""
    for cutoff in cutoffs:
        upto = {key: [e for e in eps if getattr(e, attr) <= cutoff] for key, eps in cells.items()}
        yield {key: record_profile(eps, level, data.hierarchy)
               for key, eps in upto.items() if eps}


def reference_default_schedule(data):
    days = [e.onset_day for e in episode_records(data.columns) if e.onset_day is not None]
    if not days:
        raise NoDatedEpisodes("no episode carries onset_day")
    lo, hi = min(days), max(days)
    if lo == hi:
        return LookSchedule((hi,))
    cuts = []
    for i in (1, 2, 3):
        c = lo + round(i * (hi - lo) / 3)
        if not cuts or c > cuts[-1]:
            cuts.append(c)
    cuts[-1] = hi
    return LookSchedule(tuple(cuts))


def reference_interim_series(data, schedule=None, dimensions=None, level="pt", age_binning=None,
                             control=None, alpha=0.05, two_sided=True):
    dated = [e for e in episode_records(data.columns) if e.onset_day is not None]
    if not dated:
        raise NoDatedEpisodes("no episode carries onset_day")
    schedule = schedule or reference_default_schedule(data)
    cells = reference_cells(data, dated, dimensions or (), age_binning)
    series = InterimSeries(schedule, len(episode_records(data.columns)) - len(dated))
    looks = reference_cumulative_profiles(data, cells, "onset_day", schedule.cutoff_days, level)
    for look, profiles in enumerate(looks):
        rep = _estimate_and_pair(data, profiles, control, alpha, two_sided)
        series.estimates.update(((key, look), est) for key, est in rep.estimates.items())
        series.comparisons += [(ka, kb, look, res) for ka, kb, res in rep.comparisons]
        series.degenerate += [(ka, kb, look) for ka, kb in rep.degenerate]
    return series


def reference_exposure_curves(data, max_cycle=None, exposure=None, level="pt"):
    cycled = [e for e in episode_records(data.columns) if e.cycle is not None]
    if not cycled:
        raise NoCycleData("no episode carries a cycle number")
    last_cycle = {e.subject_id: e.cycle for e in sorted(cycled, key=attrgetter("cycle"))}
    top = max(last_cycle.values()) if max_cycle is None else max_cycle
    for subject_id, given in (exposure or {}).items():
        if given < last_cycle.get(subject_id, 0):
            raise ExposureBelowEpisodes(
                f"exposure row gives subject {subject_id!r} last_cycle {given}, "
                f"below its episodes' cycle {last_cycle[subject_id]}")
    last_cycle.update(exposure or {})
    exposed = {arm: sorted(last_cycle.get(s.subject_id, 0) for s in data.subjects if s.arm == arm)
               for arm in data.arms}
    cycles = range(1, top + 1)
    looks = reference_cumulative_profiles(data, reference_cells(data, cycled), "cycle", cycles,
                                          level)
    curves = {arm: [] for arm in data.arms}
    for c, profiles in zip(cycles, looks):
        for arm, rows in curves.items():
            at_cycle = len(exposed[arm]) - bisect_left(exposed[arm], c)
            if CohortKey(arm) in profiles:
                est = estimate(profiles[CohortKey(arm)])
                rows.append((c, est.adx, est.k, est.n, at_cycle))
            else:
                rows.append((c, 0.0, 0, 0, at_cycle))
    return ExposureCurves(top, curves, len(episode_records(data.columns)) - len(cycled))


def reference_dataset_summary(data):
    def row(label, n_subj, episodes):
        n_with = len({e.subject_id for e in episodes})
        return {"arm": label, "subjects": n_subj, "episodes": len(episodes),
                "distinct_types": len({e.pt_term for e in episodes}), "subjects_with_ae": n_with,
                "pct_subjects_with_ae": 100.0 * n_with / n_subj if n_subj else 0.0}

    subjects = Counter(s.arm for s in data.subjects)
    rows = [row(arm, subjects[arm], episode_records(data.columns, arm)) for arm in data.arms]
    return rows + [row("Total", len(data.subjects), episode_records(data.columns))]


# --- drawn trials ---------------------------------------------------------

TERMS = ["nausea", "Rash, NOS", "café-au-lait spots", "Übelkeit, leicht", "頭痛", "a,b,c"]
ARMS = ["Active", "Placebo", "Dose, high"]


@st.composite
def trials(draw, tmp_path_factory):
    maybe = lambda values: st.one_of(st.none(), values)  # noqa: E731
    arms = draw(st.lists(st.sampled_from(ARMS), min_size=1, max_size=3, unique=True))
    subjects = [SubjectRecord(
        subject_id=f"S{i}", arm=draw(st.sampled_from(arms)), sex=draw(st.sampled_from("FMU")),
        age_years=draw(maybe(st.sampled_from([20.0, 45.5, 50.0, 70.0]))),
        background_therapy=draw(maybe(st.sampled_from(["none", "platinum, doublet"]))),
        substudy=draw(maybe(st.sampled_from(["PK", "ü"]))),
    ) for i in range(draw(st.integers(1, 6)))]
    with_episodes = draw(st.lists(st.sampled_from(subjects), max_size=4, unique_by=id))
    episodes = [AeEpisode(
        subject_id=s.subject_id, arm=s.arm, pt_term=draw(st.sampled_from(TERMS)),
        onset_day=draw(maybe(st.integers(0, 30))), cycle=draw(maybe(st.integers(1, 4))),
        serious=draw(maybe(st.booleans())), severity=draw(maybe(st.integers(1, 3))),
        tier=draw(st.sampled_from(["tier1", "tier23", "untiered"])),
    ) for s in draw(st.lists(st.sampled_from(with_episodes or subjects), max_size=25))]
    mapped = draw(st.lists(st.sampled_from(TERMS), unique=True))  # the rest go unmapped
    entries = {normalize_term(t): (f"hlt {i % 3}", f"hlgt {i % 3 % 2}", f"soc, {i % 3 % 2}")
               for i, t in enumerate(mapped)}
    if not draw(st.booleans()):  # built in code, with every term mapped or only some
        every = {normalize_term(t): ("h", "g", "soc, 0") for t in TERMS}
        hierarchy = HierarchyMap({**every, **entries} if draw(st.booleans()) else entries)
        missing = sorted({e.pt_term for e in episodes} - set(hierarchy.entries))
        if not missing:
            return TrialDataset(tuple(subjects), tuple(episodes), hierarchy)
        with pytest.raises(UnmappedTerm) as fault:
            TrialDataset(tuple(subjects), tuple(episodes), hierarchy)
        assert str(fault.value) == (
            f"{len(missing)} pt term(s) absent from hierarchy, e.g. {missing[:5]}")
    base = tmp_path_factory.getbasetemp()
    write_trial(TrialDataset(tuple(subjects), tuple(episodes)), base / "e.csv", base / "s.csv")
    write_csv(base / "h.csv", ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
              [[pt, *triple] for pt, triple in entries.items()])
    return load_trial(base / "e.csv", base / "s.csv", base / "h.csv", unmapped="synthetic")


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except AdxError as exc:
        return "error", type(exc), str(exc)
    if isinstance(result, cohorts.SubgroupReport):
        return (list(result.estimates.items()), result.comparisons, result.low_n, result.empty,
                result.degenerate, result.footnotes)
    if isinstance(result, InterimSeries):
        return (result.schedule, list(result.estimates.items()), result.comparisons,
                result.degenerate, result.excluded_undated)
    return result


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_analysis_matches_the_per_episode_path(tmp_path_factory, data):
    trial = data.draw(trials(tmp_path_factory))
    dims = data.draw(st.lists(st.sampled_from(DIMENSIONS), max_size=3, unique=True))
    level = data.draw(st.sampled_from(["pt", "hlt", "soc"]))
    binning = AgeBinning((45.5, 60))
    control = data.draw(st.sampled_from([None, *trial.arms]))
    pairs = [
        (cohorts.subgroup_analysis, reference_subgroup_analysis,
         (trial, dims, level, binning, 2, control), {}),
        (cohorts.soc_analysis, lambda t, c: reference_subgroup_analysis(t, ["soc"], control=c),
         (trial, control), {}),
        (cohorts.hierarchy_sweep, reference_hierarchy_sweep, (trial,), {"control": control}),
        (temporal.interim_series, reference_interim_series, (trial,),
         {"dimensions": dims, "level": level, "age_binning": binning, "control": control}),
        (temporal.interim_series, reference_interim_series, (trial, LookSchedule((0, 7, 19))),
         {"level": level}),
        (temporal.interim_series, reference_interim_series, (trial, LookSchedule((3, 30))),
         {"dimensions": ["sex", "age"], "age_binning": binning, "control": control}),
        (temporal.exposure_curves, reference_exposure_curves, (trial,), {"level": level}),
        (temporal.exposure_curves, reference_exposure_curves, (trial, 3, {"S0": 4}), {}),
        (temporal.exposure_curves, reference_exposure_curves, (trial, 6, {"S1": 2}),
         {"level": level}),
        (dataset_summary, reference_dataset_summary, (trial,), {}),
    ]
    pairs += [(cohorts.drilldown, reference_drilldown, (trial, soc, arms, 1), {})
              for soc in trial.hierarchy.socs() for arms in (None, trial.arms[::-1])]
    pairs += [(cli._arm_estimate, lambda t, arm, lv: estimate(record_profile(
        episode_records(t.columns, arm), lv, t.hierarchy)), (trial, arm, level), {})
        for arm in trial.arms]
    for new, reference, args, kwargs in pairs:
        assert _outcome(new, *args, **kwargs) == _outcome(reference, *args, **kwargs), new


def test_a_hierarchy_that_misses_a_pt_fails_the_trial_built_with_it():
    # the analyses of these trials once named the unmapped PT of an episode
    # past the last look; building the trial now names every unmapped PT
    subjects = (SubjectRecord("S0", "A"), SubjectRecord("S1", "B"))
    episodes = (AeEpisode("S0", "A", "nausea", onset_day=25, cycle=4),
                AeEpisode("S1", "B", "rash", onset_day=5, cycle=1),
                AeEpisode("S0", "A", "headache", onset_day=3, cycle=1))
    late = episodes[:1] + (AeEpisode("S1", "B", "nausea", onset_day=5),)
    for eps, mapped, message in [
        (episodes, "nausea", "2 pt term(s) absent from hierarchy, e.g. ['headache', 'rash']"),
        (late, "rash", "1 pt term(s) absent from hierarchy, e.g. ['nausea']"),
    ]:
        with pytest.raises(UnmappedTerm) as fault:
            TrialDataset(subjects, eps, HierarchyMap({mapped: ("h", "g", "soc, 0")}))
        assert str(fault.value) == message


def test_loaded_trial_holds_no_episode_records(tiny_trial_files):
    trial = load_trial(tiny_trial_files["episodes"], tiny_trial_files["subjects"],
                       tiny_trial_files["hierarchy"])
    seen, stack, found = set(), [trial], []
    while stack:  # every object the trial reaches, classes and modules left out
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or type(obj).__name__ == "module":
            continue
        seen.add(id(obj))
        found += [obj] if isinstance(obj, AeEpisode) else []
        stack += gc.get_referents(obj)
        stack += [getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
                  if hasattr(obj, name)]
    assert found == []
    assert len(trial.columns) == 5
    assert list(trial.columns.pt_term) == ["nausea", "headache", "nausea", "fatigue", "nausea"]
    assert episode_records(trial.columns) == list(
        itertools.chain(*(episode_records(trial.columns, a) for a in "AB")))
