import tracemalloc

import pytest

from adx.cohorts import CohortKey, subgroup_analysis
from adx.data import (
    AeEpisode,
    HierarchyMap,
    SubjectRecord,
    TrialDataset,
    load_episodes,
    load_trial,
    write_trial,
)
from adx.entropy import estimate
from adx.errors import ExposureBelowEpisodes, NoCycleData, NoDatedEpisodes, UnknownSubject
from adx.simulate import ArmScenario, Scenario, generate_trial
from adx.temporal import (
    LookSchedule,
    default_schedule,
    exposure_curves,
    interim_series,
)

from conftest import episode_records, record_profile


def dated_trial(arm_specs):
    """arm_specs: {arm: [(pt, onset_day, cycle), ...]}, one subject per arm."""
    subjects, episodes = [], []
    for arm, rows in arm_specs.items():
        sid = f"{arm}-1"
        subjects.append(SubjectRecord(subject_id=sid, arm=arm))
        for pt, day, cycle in rows:
            episodes.append(
                AeEpisode(subject_id=sid, arm=arm, pt_term=pt, onset_day=day, cycle=cycle)
            )
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))


def test_interim_look_equals_subgroup_on_restricted_data():
    subjects, episodes = [], []
    for i, arm in enumerate(("Zeta", "Ctl", "Mid")):
        for j, sex in enumerate("FMU"):
            sid = f"{arm}-{sex}"
            subjects.append(SubjectRecord(subject_id=sid, arm=arm, sex=sex))
            episodes += [
                AeEpisode(subject_id=sid, arm=arm, pt_term=f"t{(k * (i + 2) + j) % 7}",
                          onset_day=(k * 37 + i * 11 + j * 5) % 300)
                for k in range(12 + 4 * i - 3 * j)
            ]
    episodes.append(AeEpisode(subject_id="Mid-F", arm="Mid", pt_term="t1"))  # undated
    t = TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))
    schedule = LookSchedule((40, 120, 299))
    series = interim_series(t, schedule, ["sex"], control="Ctl")
    for look, cutoff in enumerate(schedule.cutoff_days):
        upto = tuple(e for e in episodes if e.onset_day is not None and e.onset_day <= cutoff)
        rep = subgroup_analysis(TrialDataset(subjects=t.subjects, episodes=upto), ["sex"],
                                control="Ctl")
        assert [(k, e) for (k, lk), e in series.estimates.items() if lk == look] == list(
            rep.estimates.items()
        )
        assert [(a, b, r) for a, b, lk, r in series.comparisons if lk == look] == rep.comparisons
    assert {b.arm for _, b, _, _ in series.comparisons} == {"Ctl"}


@pytest.mark.parametrize("dims", [[], ["sex", "age"]])
def test_interim_looks_at_the_edges_equal_recounts(dims):
    # cutoff 4 comes before the first onset (day 5), cutoff 30 equals an onset
    # day and counts it, days past the last cutoff (90) never count, and the
    # M subjects have no episode before day 30, so their cells are empty at
    # the first two looks: each look equals a subgroup analysis of the
    # episodes up to its cutoff, and has no estimate for an empty cell
    subjects = tuple(SubjectRecord(subject_id=f"{arm}-{sex}", arm=arm, sex=sex, age_years=age)
                     for arm in "AB" for sex, age in (("F", 35.0), ("M", 70.0)))
    rows = [("F", 5, "a"), ("F", 12, "b"), ("F", 30, "c"), ("M", 30, "a"), ("M", 44, "b"),
            ("F", 60, "a"), ("M", 90, "c"), ("F", 91, "d"), ("M", 200, "e"), ("M", 31, "d")]
    episodes = tuple(AeEpisode(subject_id=f"{arm}-{sex}", arm=arm, onset_day=day + shift,
                               pt_term=pt if arm == "A" else pt * 2)
                     for arm, shift in (("A", 0), ("B", 1)) for sex, day, pt in rows)
    t = TrialDataset(subjects, episodes)
    schedule = LookSchedule((4, 30, 90))
    series = interim_series(t, schedule, dims)
    for look, cutoff in enumerate(schedule.cutoff_days):
        upto = tuple(e for e in episodes if e.onset_day <= cutoff)
        estimates = [(k, e) for (k, lk), e in series.estimates.items() if lk == look]
        comparisons = [(a, b, r) for a, b, lk, r in series.comparisons if lk == look]
        degenerate = [(a, b) for a, b, lk in series.degenerate if lk == look]
        if not upto:
            assert (estimates, comparisons, degenerate) == ([], [], [])
            continue
        rep = subgroup_analysis(TrialDataset(subjects, upto), dims)
        assert (estimates, comparisons, degenerate) == (
            list(rep.estimates.items()), rep.comparisons, rep.degenerate)
    assert [sum(e.n for (k, lk), e in series.estimates.items() if lk == look)
            for look in range(3)] == [0, 4 + 2, 8 + 7]
    if dims:
        males = {k for k, _ in series.estimates if ("sex", "M") in k.filters}
        assert {lk for k, lk in series.estimates if k in males} == {1, 2}


def _power_law(n_types: int, s: float) -> tuple[float, ...]:
    weights = [i ** -s for i in range(1, n_types + 1)]
    return tuple(w / sum(weights) for w in weights)


def _scratch_scenario() -> Scenario:
    """About 20k episodes, onset days uniform on 0..720, cycles geometric
    with 15% of the episodes at cycle 1."""
    return Scenario(tuple(ArmScenario(arm, _power_law(200, s), 10.0, 1000, onset_span=720,
                                      cycle_dropout=0.15)
                          for arm, s in (("Active", 1.1), ("Placebo", 1.3))), seed=4)


def _scratch(run) -> int:
    """The peak memory ``run()`` takes beyond what is allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_interim_and_exposure_scratch_stays_a_small_share_of_the_trial(tmp_path):
    # about 20k dated and cycled episodes: the memory interim_series and
    # exposure_curves take beyond the loaded trial's own stays below 35% of
    # it, which one index object per episode, as cells of episode indices
    # sorted per cell would cost, already exceeds
    write_trial(generate_trial(_scratch_scenario()), tmp_path / "episodes.csv",
                tmp_path / "subjects.csv")
    tracemalloc.start()
    try:
        trial = load_trial(tmp_path / "episodes.csv", tmp_path / "subjects.csv")
        size = tracemalloc.get_traced_memory()[0]
        scratch = []
        for run in (lambda: interim_series(trial, LookSchedule(tuple(range(60, 721, 60)))),
                    lambda: exposure_curves(trial, max_cycle=15)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            scratch.append((tracemalloc.get_traced_memory()[1] - base) / size)
    finally:
        tracemalloc.stop()
    assert len(trial.columns) > 19_000
    assert max(scratch) < 0.35, scratch


@pytest.mark.parametrize("early, full", [
    (lambda t: interim_series(t, LookSchedule((72,))),
     lambda t: interim_series(t, LookSchedule(tuple(range(60, 721, 60))))),
    (lambda t: exposure_curves(t, max_cycle=1), lambda t: exposure_curves(t)),
], ids=["interim-day-72", "exposure-cycle-1"])
def test_episodes_past_the_last_look_take_no_scratch(tmp_path, early, full):
    # the first look (day 72, cycle 1) counts 10-15% of the episodes; one
    # look past which no episode is grouped takes well under half the
    # scratch of every look, where grouping them all would take nearly as much
    write_trial(generate_trial(_scratch_scenario()), tmp_path / "episodes.csv",
                tmp_path / "subjects.csv")
    trial = load_trial(tmp_path / "episodes.csv", tmp_path / "subjects.csv")
    share = _scratch(lambda: early(trial)) / _scratch(lambda: full(trial))
    assert share < 0.5, share


@pytest.mark.parametrize("early, past", [
    (lambda t: interim_series(t, LookSchedule((72,))), lambda e: e.onset_day > 72),
    (lambda t: exposure_curves(t, max_cycle=1), lambda e: e.cycle > 1),
], ids=["interim-day-72", "exposure-cycle-1"])
def test_a_copy_of_the_episodes_past_the_last_look_adds_no_scratch(early, past):
    # the only look (day 72, cycle 1) counts 10-15% of the episodes: a second
    # copy of each episode past it leaves the look's scratch as it is, where
    # grouping or masking every episode would add at least a byte for each
    episodes = tuple(episode_records(generate_trial(_scratch_scenario()).columns))
    subjects = tuple(SubjectRecord(s, a) for s, a in dict.fromkeys((e[0], e[1]) for e in episodes))
    late = tuple(filter(past, episodes))
    base, more = (TrialDataset(subjects, episodes + extra) for extra in ((), late))
    early(base)  # first-call allocations (caches, interned names) out of the measure
    added = _scratch(lambda: early(more)) - _scratch(lambda: early(base))
    assert len(late) > 15_000
    assert added < len(late) / 8, added


def _loaded_scratch_trial(tmp_path):
    write_trial(generate_trial(_scratch_scenario()), tmp_path / "episodes.csv",
                tmp_path / "subjects.csv")
    return tmp_path / "episodes.csv", tmp_path / "subjects.csv"


def test_loaded_episodes_take_at_most_32_bytes_each(tmp_path, monkeypatch):
    # one pointer per episode and field, as columns of values, would take 64;
    # parsed on an empty cache, then read from it
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    episodes_file, _ = _loaded_scratch_trial(tmp_path)
    for _ in ("parsed", "cached"):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns = load_episodes(episodes_file)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(columns) > 19_000
        assert retained <= 32 * len(columns), retained / len(columns)
        del columns
    assert len(list((tmp_path / "cache" / "adx").iterdir())) == 1


def test_subgroup_scratch_holds_no_object_per_episode(tmp_path):
    # cells of 1-byte PT codes and per-code filter tables: a pointer per
    # episode in the cells alone would take 8 bytes each
    trial = load_trial(*_loaded_scratch_trial(tmp_path))
    run = lambda: subgroup_analysis(trial, ["sex", "age", "seriousness"])  # noqa: E731
    run()  # first-call allocations (the interpreter's free lists) out of the measure
    scratch = _scratch(run)
    assert scratch <= 6 * len(trial.columns), scratch / len(trial.columns)


def test_interim_keeps_zero_variance_pairs_per_look():
    t = dated_trial({"A": [("x", 10, None), ("y", 20, None), ("x", 200, None)],
                     "B": [("x", 15, None), ("y", 30, None), ("z", 210, None)]})
    series = interim_series(t, LookSchedule((50, 300)))
    assert series.degenerate == [(CohortKey("A"), CohortKey("B"), 0)]
    assert [(a.arm, b.arm, look) for a, b, look, _ in series.comparisons] == [("A", "B", 1)]


def test_schedule_validation():
    with pytest.raises(ValueError):
        LookSchedule((100, 100))
    with pytest.raises(ValueError):
        LookSchedule(())


def test_default_schedule_thirds():
    t = dated_trial({"A": [("a", 0, None), ("b", 300, None), ("a", 150, None)]})
    s = default_schedule(t)
    assert s.cutoff_days == (100, 200, 300)


def test_default_schedule_without_a_dated_episode():
    t = dated_trial({"A": [("a", None, 1)], "B": [("b", None, None)]})
    with pytest.raises(NoDatedEpisodes, match="^no episode carries onset_day$"):
        default_schedule(t)


def test_interim_saturation_before_first_cutoff():
    rows = [("a", 5, None), ("a", 8, None), ("b", 9, None)]
    t = dated_trial({"A": rows})
    s = LookSchedule((50, 100, 200))
    series = interim_series(t, s)
    ests = [series.estimates[(k, look)] for look in range(3)
            for k in {key for key, _ in series.estimates}]
    assert all(e.adx == ests[0].adx and e.n == 3 for e in ests)


def test_interim_final_look_equals_full_data():
    rows = [("a", d, None) for d in range(0, 300, 10)] + [
        ("b", d, None) for d in range(5, 300, 25)
    ]
    t = dated_trial({"A": rows})
    series = interim_series(t, LookSchedule((100, 200, 300)))
    key = next(k for k, look in series.estimates if look == 2)
    full = estimate(record_profile(episode_records(t.columns)))
    last = series.estimates[(key, 2)]
    assert last.adx == full.adx
    assert last.n == full.n
    assert last.k == full.k


def test_interim_cumulative_monotone():
    rows = [(pt, d, None) for d, pt in zip(range(0, 300, 7), "abcab" * 9)]
    t = dated_trial({"A": rows})
    series = interim_series(t, LookSchedule((100, 200, 300)))
    key = next(k for k, _ in series.estimates)
    ns = [series.estimates[(key, look)].n for look in range(3)]
    ks = [series.estimates[(key, look)].k for look in range(3)]
    assert ns == sorted(ns)
    assert ks == sorted(ks)


def test_interim_schedule_refinement():
    rows = [(pt, d, None) for d, pt in zip(range(0, 300, 7), "abcab" * 9)]
    t = dated_trial({"A": rows})
    coarse = interim_series(t, LookSchedule((150, 300)))
    fine = interim_series(t, LookSchedule((75, 150, 300)))
    key = next(k for k, _ in coarse.estimates)
    assert coarse.estimates[(key, 0)].adx == fine.estimates[(key, 1)].adx
    assert coarse.estimates[(key, 1)].adx == fine.estimates[(key, 2)].adx


def test_interim_excludes_undated():
    t = dated_trial({"A": [("a", 5, None), ("b", None, None), ("a", 20, None)]})
    series = interim_series(t, LookSchedule((100,)))
    assert series.excluded_undated == 1
    key = next(k for k, _ in series.estimates)
    assert series.estimates[(key, 0)].n == 2


def test_interim_no_dated_episodes():
    t = dated_trial({"A": [("a", None, None)]})
    with pytest.raises(NoDatedEpisodes):
        interim_series(t, LookSchedule((10,)))


def test_interim_early_signal_persists():
    # arm A accumulates more types early: its adx exceeds B's at every look,
    # verified against direct per-cutoff recomputation
    import random
    rng = random.Random(11)
    a_rows = [(f"t{rng.randint(1, 30)}", rng.randint(0, 300), None) for _ in range(600)]
    b_rows = [(f"t{rng.randint(1, 3)}", rng.randint(0, 300), None) for _ in range(600)]
    t = dated_trial({"A": a_rows, "B": b_rows})
    series = interim_series(t, LookSchedule((100, 200, 300)))
    assert len(series.comparisons) == 3
    for ka, kb, look, res in series.comparisons:
        assert res.p_value < 0.05
        # direct recomputation at the cutoff
        cutoff = series.schedule.cutoff_days[look]
        direct = {}
        for arm, rows in (("A", a_rows), ("B", b_rows)):
            eps = [AeEpisode(subject_id=f"{arm}-1", arm=arm, pt_term=pt, onset_day=d)
                   for pt, d, _ in rows if d <= cutoff]
            direct[arm] = estimate(record_profile(eps)).adx
        assert res.diff == pytest.approx(direct[ka.arm] - direct[kb.arm], abs=1e-12)


# --- exposure -----------------------------------------------------------------

def test_exposure_flat_after_cycle_one():
    t = dated_trial({"A": [("a", None, 1), ("b", None, 1), ("a", None, 1)]})
    curves = exposure_curves(t, max_cycle=4)
    rows = curves.curves["A"]
    assert all(r[1] == rows[0][1] and r[3] == 3 for r in rows)


def test_exposure_final_cycle_totals():
    t = dated_trial(
        {"A": [("a", None, 1), ("b", None, 2), ("c", None, 5), ("a", None, None)]}
    )
    curves = exposure_curves(t)
    assert curves.excluded_no_cycle == 1
    last = curves.curves["A"][-1]
    assert last[0] == 5
    assert last[3] == 3  # N = episodes with cycle data


def test_exposure_no_cycle_data():
    t = dated_trial({"A": [("a", None, None)]})
    with pytest.raises(NoCycleData):
        exposure_curves(t)


def test_exposure_dropout_shape():
    # geometric dropout: subjects-at-cycle decays, cumulative adx saturates;
    # every cycle value checked against a direct recount
    import random
    rng = random.Random(5)
    subjects, episodes = [], []
    for i in range(60):
        sid = f"S{i}"
        subjects.append(SubjectRecord(subject_id=sid, arm="A"))
        last = 1
        while rng.random() > 0.35 and last < 12:
            last += 1
        for _ in range(rng.randint(1, 3)):
            episodes.append(AeEpisode(subject_id=sid, arm="A",
                                      pt_term=f"t{rng.randint(1, 12)}",
                                      cycle=rng.randint(1, last)))
    t = TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))
    curves = exposure_curves(t)
    rows = curves.curves["A"]
    subj_counts = [r[4] for r in rows]
    assert subj_counts == sorted(subj_counts, reverse=True)
    ns = [r[3] for r in rows]
    assert ns == sorted(ns)
    for cycle, h, k, n, _ in rows:
        upto = [e for e in episodes if e.cycle <= cycle]
        direct = estimate(record_profile(upto))
        assert h == direct.adx and k == direct.k and n == direct.n


def test_exposure_explicit_exposure_table():
    t = dated_trial({"A": [("a", None, 1)]})
    curves = exposure_curves(t, max_cycle=3, exposure={"A-1": 3})
    assert [r[4] for r in curves.curves["A"]] == [1, 1, 1]


def test_an_exposure_row_below_the_episodes_is_rejected_naming_its_subject():
    # A-1's episodes reach cycle 3 and B-1's cycle 2: a row at or above them is
    # kept, and of the rows below, the first in the map's order is named
    t = dated_trial({"A": [("a", None, 1), ("b", None, 3)], "B": [("a", None, 2)]})
    assert exposure_curves(t, exposure={"A-1": 3, "B-1": 5}).curves["B"][-1][4] == 1
    with pytest.raises(ExposureBelowEpisodes, match=r"^exposure row gives subject 'B-1' "
                       r"last_cycle 1, below its episodes' cycle 2$") as raised:
        exposure_curves(t, exposure={"A-1": 3, "B-1": 1, "C-1": 0})
    assert raised.value.subject_id == "B-1"
    with pytest.raises(ExposureBelowEpisodes, match="'A-1' last_cycle 2"):
        exposure_curves(t, exposure={"A-1": 2, "B-1": 1})


def test_an_exposure_row_for_a_subject_the_trial_lacks_is_rejected_naming_it():
    t = dated_trial({"A": [("a", None, 1), ("b", None, 3)]})
    with pytest.raises(UnknownSubject,
                       match=r"^exposure row references unknown subject 'GHOST'$") as raised:
        exposure_curves(t, exposure={"GHOST": 3})
    assert raised.value.subject_id == "GHOST"
    # the first faulty row in the map's order is named, whichever its fault
    with pytest.raises(UnknownSubject, match="'GHOST'"):
        exposure_curves(t, exposure={"A-1": 3, "GHOST": 3, "A-2": 0})
    with pytest.raises(ExposureBelowEpisodes, match="'A-1' last_cycle 2"):
        exposure_curves(t, exposure={"A-1": 2, "GHOST": 3})


@pytest.mark.parametrize("episodes", [[], [("a", None, None)]], ids=["none", "uncycled"])
def test_a_negative_exposure_row_without_cycled_episodes_names_cycle_0(episodes):
    t = dated_trial({"A": [("a", None, 1)], "B": episodes})
    with pytest.raises(ExposureBelowEpisodes, match=r"^exposure row gives subject 'B-1' "
                       r"last_cycle -3, below its episodes' cycle 0$") as raised:
        exposure_curves(t, exposure={"B-1": -3})
    assert raised.value.subject_id == "B-1"
    assert exposure_curves(t, exposure={"B-1": 0}).curves["B"][0][4] == 0


@pytest.mark.parametrize("level", ["pt", "hlt", "soc"])
def test_exposure_rows_equal_direct_estimates(level):
    # episodes in no particular cycle order, two arms, a hierarchy: every
    # cumulative row equals a direct estimate on the episodes up to its cycle
    import random
    rng = random.Random(13)
    hier = HierarchyMap({f"t{i}": (f"h{i // 3}", f"g{i // 6}", f"s{i // 6}") for i in range(12)})
    subjects = tuple(SubjectRecord(subject_id=f"{arm}{j}", arm=arm) for arm in "AB" for j in range(5))
    episodes = tuple(AeEpisode(subject_id=s.subject_id, arm=s.arm, pt_term=f"t{rng.randrange(12)}",
                               cycle=rng.choice([None, 1, 2, 2, 3, 5, 8]))
                     for _ in range(40) for s in subjects)
    t = TrialDataset(subjects=subjects, episodes=episodes, hierarchy=hier)
    for max_cycle in (4, 9):  # below and above the top cycle, 8
        curves = exposure_curves(t, max_cycle=max_cycle, level=level)
        for arm, rows in curves.curves.items():
            assert [r[0] for r in rows] == list(range(1, max_cycle + 1))
            for cycle, h, k, n, _ in rows:
                upto = [e for e in episodes
                        if e.arm == arm and e.cycle is not None and e.cycle <= cycle]
                if not upto:
                    assert (h, k, n) == (0.0, 0, 0)
                    continue
                direct = estimate(record_profile(upto, level, hier))
                assert (h, k, n) == (direct.adx, direct.k, direct.n)
