import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adx.cohorts import (
    AgeBinning,
    CohortKey,
    _cells,
    drilldown,
    hierarchy_sweep,
    soc_analysis,
    subgroup_analysis,
)
from adx.data import AeEpisode, HierarchyMap, SubjectRecord, TrialDataset
from adx.entropy import FrequencyProfile, adx, estimate
from adx.errors import DegenerateVariance, MissingHierarchy, UnknownDimension, UnknownSoc

from conftest import dataset_from_counts, episode_records, record_profile


def make_trial(subject_rows, episode_rows, hierarchy=None):
    subjects = tuple(SubjectRecord(**r) for r in subject_rows)
    episodes = tuple(AeEpisode(**r) for r in episode_rows)
    return TrialDataset(subjects=subjects, episodes=episodes, hierarchy=hierarchy)


@pytest.fixture
def sexed_trial():
    subjects = [
        dict(subject_id="S1", arm="A", sex="F"),
        dict(subject_id="S2", arm="A", sex="M"),
        dict(subject_id="S3", arm="B", sex="F"),
        dict(subject_id="S4", arm="B", sex="M"),
    ]
    episodes = []
    for sid, arm, pts in [
        ("S1", "A", ["a", "a", "b", "c"]),
        ("S2", "A", ["a", "b", "b", "d"]),
        ("S3", "B", ["a", "c", "c", "c"]),
        ("S4", "B", ["b", "d", "d", "a"]),
    ]:
        episodes += [dict(subject_id=sid, arm=arm, pt_term=pt) for pt in pts]
    return make_trial(subjects, episodes)


def test_age_binning_labels_and_totality():
    b = AgeBinning((40, 50, 65))
    assert b.label(39.9) == "<40"
    assert b.label(40) == "[40,50)"
    assert b.label(49.999) == "[40,50)"
    assert b.label(50) == "[50,65)"
    assert b.label(65) == ">=65"
    assert b.label(90) == ">=65"
    assert b.label(None) == "Unknown"
    # total: every age lands in exactly one bin
    for age in range(0, 120):
        assert sum(b.label(age) == lab for lab in b.labels()) == 1


def test_subgroup_by_sex_counts(sexed_trial):
    rep = subgroup_analysis(sexed_trial, ["sex"], min_episodes=1)
    assert len(rep.estimates) == 4  # 2 arms x 2 sexes
    assert len(rep.comparisons) == 2  # one A-vs-B per sex
    for key, est in rep.estimates.items():
        assert est.n == 4


def test_subgroup_restriction_consistency(sexed_trial):
    # a cell estimate equals a direct estimate on the restricted episodes
    rep = subgroup_analysis(sexed_trial, ["sex"], min_episodes=1)
    key = CohortKey("A", (("sex", "F"),))
    sex = {s.subject_id: s.sex for s in sexed_trial.subjects}
    direct = estimate(
        record_profile([e for e in episode_records(sexed_trial.columns)
                        if e.arm == "A" and sex[e.subject_id] == "F"])
    )
    assert rep.estimates[key].adx == direct.adx


def test_subgroup_partition_consistency(sexed_trial):
    rep = subgroup_analysis(sexed_trial, ["sex"], min_episodes=1)
    for arm in sexed_trial.arms:
        cell_total = sum(est.n for key, est in rep.estimates.items() if key.arm == arm)
        assert cell_total == len(episode_records(sexed_trial.columns, arm))


def test_subgroup_unknown_cell():
    subjects = [
        dict(subject_id="S1", arm="A", sex="F", age_years=30),
        dict(subject_id="S2", arm="A", sex="F"),  # no age -> Unknown
    ]
    episodes = [
        dict(subject_id="S1", arm="A", pt_term="a"),
        dict(subject_id="S2", arm="A", pt_term="b"),
    ]
    rep = subgroup_analysis(make_trial(subjects, episodes), ["age"], min_episodes=1)
    cells = {key.filters[0][1] for key in rep.estimates}
    assert cells == {"<40", "Unknown"}


def test_subgroup_low_n_flag(sexed_trial):
    rep = subgroup_analysis(sexed_trial, ["sex"], min_episodes=10)
    assert set(rep.low_n) == set(rep.estimates)


def test_subgroup_unknown_dimension(sexed_trial):
    with pytest.raises(UnknownDimension):
        subgroup_analysis(sexed_trial, ["blood_type"])


def test_cells_match_per_episode_grouping():
    # subject dimensions are looked up once per subject; cells, their order
    # and the episode order inside each must equal grouping episode by episode
    # (each episode has a term of its own, so a cell's terms name its episodes),
    # with or without a mask and a split by a further per-episode value
    subjects = [
        dict(subject_id="S1", arm="A", sex="F", age_years=30, background_therapy="chemo"),
        dict(subject_id="S2", arm="B", sex="M", substudy="pk"),
        dict(subject_id="S3", arm="A", sex="F", age_years=70, substudy="pk"),
    ]
    episodes = [
        dict(subject_id=sid, arm={"S1": "A", "S2": "B", "S3": "A"}[sid], pt_term=f"t{i}",
             serious=(None, True, False)[i % 3], severity=(1, None)[i % 2],
             tier=("tier1", "untiered")[i % 2])
        for i, sid in enumerate(["S1", "S2", "S3", "S1", "S3", "S2", "S1", "S1", "S3", "S2"])
    ]
    trial = make_trial(subjects, episodes)
    dims = ["seriousness", "sex", "age", "background_therapy", "substudy", "severity", "tier"]
    binning = AgeBinning()
    within = [i % 4 != 1 for i in range(len(episodes))]
    split = [i % 3 // 2 for i in range(len(episodes))]
    expected, expected_split = {}, {}
    by_id = {s.subject_id: s for s in trial.subjects}
    for ep, kept, part in zip(episode_records(trial.columns), within, split):
        subj = by_id[ep.subject_id]
        value = {"sex": subj.sex, "age": binning.label(subj.age_years),
                 "background_therapy": subj.background_therapy or "Unknown",
                 "substudy": subj.substudy or "Unknown",
                 "seriousness": {None: "Unknown", True: "serious", False: "non-serious"}[ep.serious],
                 "severity": "Unknown" if ep.severity is None else str(ep.severity),
                 "tier": ep.tier}
        key = CohortKey(ep.arm, tuple((d, value[d]) for d in dims))
        expected.setdefault(key, []).append(ep.pt_term)
        if kept:
            expected_split.setdefault((key, part), []).append(ep.pt_term)
    decoded = [(key, list(cell)) for key, cell in _cells(trial, dims, binning).items()]
    assert decoded == list(expected.items())
    cells = _cells(trial, dims, binning, within, iter(split))
    assert [(key, list(cell)) for key, cell in cells.items()] == list(expected_split.items())


_FIRST_CALL_CHILD = """
import tracemalloc
from adx.cohorts import _cells
from adx.data import AeEpisode, SubjectRecord, TrialDataset

subjects = tuple(SubjectRecord(f"S{i:04d}", "AB"[i % 2], "U") for i in range(2000))
episodes = tuple(AeEpisode(s.subject_id, s.arm, f"t{i % 50}")
                 for i, s in enumerate(subjects * 10))
trial = TrialDataset(subjects, episodes)
for _ in range(2):
    tracemalloc.start()
    _cells(trial, ["sex"])
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_a_subject_dimension_builds_a_filter_per_distinct_value_not_per_subject():
    # 2,000 subjects, all of sex U, so one filter: the first call in a fresh
    # process peaks at most a quarter above the second, where building and
    # freeing a filter per subject fills the interpreter's free lists first
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _FIRST_CALL_CHILD],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=120, check=True)
    first, second = map(int, proc.stdout.split())
    assert first <= 1.25 * second, (first, second)


def test_single_arm_no_comparisons():
    t = dataset_from_counts({"A": {"a": 3, "b": 2}})
    rep = subgroup_analysis(t, [], min_episodes=1)
    assert len(rep.estimates) == 1
    assert rep.comparisons == []


def test_three_arms_by_age_bins_layout():
    # 3 arms x 4 age bins -> 12 estimates, 3 pairwise comparisons per bin
    subjects, episodes = [], []
    sid = 0
    for arm in ("Doc", "7.5Bv", "15Bv"):
        for age in (30, 45, 55, 70):
            for j in range(2):
                sid += 1
                subjects.append(dict(subject_id=f"S{sid}", arm=arm, sex="F", age_years=age))
                episodes += [
                    dict(subject_id=f"S{sid}", arm=arm, pt_term=pt)
                    for pt in ("a", "b", "c")[: 2 + sid % 2]
                ]
    rep = subgroup_analysis(make_trial(subjects, episodes), ["age"], min_episodes=1)
    assert len(rep.estimates) == 12
    assert len(rep.comparisons) == 12


def soc_hierarchy():
    return HierarchyMap(
        {
            "a": ("h1", "g1", "gi"),
            "b": ("h1", "g1", "gi"),
            "c": ("h2", "g2", "renal"),
            "d": ("h2", "g2", "renal"),
        }
    )


def test_soc_identical_arms_diff_zero():
    t = dataset_from_counts(
        {"A": {"a": 5, "b": 3, "c": 9, "d": 1}, "B": {"a": 5, "b": 3, "c": 2, "d": 8}},
        hierarchy=soc_hierarchy(),
    )
    rep = soc_analysis(t)
    gi_comp = [r for ka, kb, r in rep.comparisons if ("soc", "gi") in ka.filters]
    renal_comp = [r for ka, kb, r in rep.comparisons if ("soc", "renal") in ka.filters]
    assert gi_comp[0].diff == pytest.approx(0.0, abs=1e-12)
    assert renal_comp[0].diff != 0.0


def test_soc_requires_hierarchy():
    t = dataset_from_counts({"A": {"a": 3}})
    with pytest.raises(MissingHierarchy):
        soc_analysis(t)


def test_soc_restriction_matches_direct():
    t = dataset_from_counts(
        {"A": {"a": 5, "b": 3, "c": 9, "d": 1}},
        hierarchy=soc_hierarchy(),
    )
    rep = soc_analysis(t)
    key = CohortKey("A", (("soc", "gi"),))
    assert rep.estimates[key].adx == pytest.approx(
        adx(FrequencyProfile({"a": 5, "b": 3})), abs=1e-15
    )


def test_soc_present_in_one_arm_flagged_empty():
    t = dataset_from_counts(
        {"A": {"a": 3, "c": 2}, "B": {"a": 4}},
        hierarchy=soc_hierarchy(),
    )
    rep = soc_analysis(t)
    assert CohortKey("B", (("soc", "renal"),)) in rep.empty


# --- drilldown ---------------------------------------------------------------

def man_like_trial():
    """Episode rows reconstructed from the published MAN drilldown counts:
    hyperglycaemia 6/2/23, hypoglycaemia 21/1/1, others 18/19/17 spread
    over 9 further types, 15 types total in the SOC across arms."""
    other_pts = [f"o{i}" for i in range(13)]
    entries = {"hyperglycaemia": ("h_hyper", "g_man", "man"),
               "hypoglycaemia": ("h_hypo", "g_man", "man")}
    for pt in other_pts:
        entries[pt] = (f"h_{pt}", "g_man", "man")
    hier = HierarchyMap(entries)

    # per-arm "others" spread over a slice of the 13 further types so the
    # union is 13 and each arm's zero-count row matches 3/5/6
    def spread(total, pts):
        base = total // len(pts)
        counts = {pt: base for pt in pts}
        for pt in pts[: total - base * len(pts)]:
            counts[pt] += 1
        return counts

    arm_counts = {}
    for arm, hyper, hypo, others, pts in [
        ("10 mg", 6, 21, 18, other_pts[0:10]),
        ("25 mg", 2, 1, 19, other_pts[5:13]),
        ("Placebo", 23, 1, 17, other_pts[6:13]),
    ]:
        counts = {"hyperglycaemia": hyper, "hypoglycaemia": hypo}
        counts.update(spread(others, pts))
        arm_counts[arm] = counts
    return dataset_from_counts(arm_counts, hierarchy=hier)


def test_drilldown_man_table():
    t = man_like_trial()
    table = drilldown(t, "man", ["10 mg", "25 mg", "Placebo"], top_n=2)
    assert table.total_types == 15
    rows = dict(table.rows)
    assert rows["hyperglycaemia"] == {"10 mg": 6, "25 mg": 2, "Placebo": 23}
    assert rows["hypoglycaemia"] == {"10 mg": 21, "25 mg": 1, "Placebo": 1}
    assert table.others == {"10 mg": 18, "25 mg": 19, "Placebo": 17}
    assert table.zero_count_types == {"10 mg": 3, "25 mg": 5, "Placebo": 6}
    assert table.totals == {"10 mg": 45, "25 mg": 22, "Placebo": 41}


def test_drilldown_unknown_soc():
    t = man_like_trial()
    with pytest.raises(UnknownSoc):
        drilldown(t, "cardiac")


def test_drilldown_top_n_covers_all():
    t = dataset_from_counts({"A": {"a": 3, "b": 1}}, hierarchy=soc_hierarchy())
    table = drilldown(t, "gi", top_n=10)
    assert table.others == {"A": 0}


def test_drilldown_column_sums():
    t = man_like_trial()
    table = drilldown(t, "man", top_n=2)
    for arm in table.arms:
        named = sum(counts[arm] for _, counts in table.rows)
        assert named + table.others[arm] == table.totals[arm]


def test_drilldown_arm_without_episodes_in_soc():
    t = dataset_from_counts(
        {"A": {"a": 3, "c": 2}, "B": {"a": 1}},
        hierarchy=soc_hierarchy(),
    )
    table = drilldown(t, "renal", top_n=2)
    assert table.totals["B"] == 0


# --- hierarchy sweep ----------------------------------------------------------

def test_p1_chain_holds(two_level_hierarchy):
    t = dataset_from_counts(
        {"A": {"a": 5, "b": 3, "c": 2, "d": 7}, "B": {"a": 1, "b": 9, "c": 4, "d": 4}},
        hierarchy=two_level_hierarchy,
    )
    rep = hierarchy_sweep(t)
    assert rep.p1_holds
    for arm in t.arms:
        assert rep.estimates[(arm, "pt")].adx >= rep.estimates[(arm, "hlt")].adx - 1e-12
        assert rep.estimates[(arm, "hlt")].adx >= rep.estimates[(arm, "hlgt")].adx - 1e-12


def test_collapse_to_single_soc_gives_zero(two_level_hierarchy):
    t = dataset_from_counts(
        {"A": {"a": 5, "b": 3, "c": 2, "d": 7}},
        hierarchy=two_level_hierarchy,
    )
    rep = hierarchy_sweep(t, levels=("pt", "soc"))
    assert rep.estimates[("A", "soc")].adx == 0.0


def test_p2_counterexample_fixture(two_level_hierarchy):
    # frozen from an exhaustive random search over small two-arm datasets:
    # arm ranking at PT level reverses after rollup to HLT
    t = dataset_from_counts(
        {"A": {"a": 6, "b": 4, "c": 1}, "B": {"a": 5, "d": 1}},
        hierarchy=two_level_hierarchy,
    )
    rep = hierarchy_sweep(t, levels=("pt", "hlt"))
    assert rep.p1_holds
    assert not rep.p2_holds
    assert rep.estimates[("A", "pt")].adx > rep.estimates[("B", "pt")].adx
    assert rep.estimates[("A", "hlt")].adx < rep.estimates[("B", "hlt")].adx


def test_p1_on_randomized_datasets(two_level_hierarchy):
    import random
    rng = random.Random(3)
    p2_violations = 0
    for _ in range(200):
        counts = {
            arm: {pt: rng.randint(0, 8) for pt in "abcd"} for arm in ("A", "B")
        }
        if any(sum(c.values()) == 0 for c in counts.values()):
            continue
        t = dataset_from_counts(counts, hierarchy=two_level_hierarchy)
        rep = hierarchy_sweep(t, levels=("pt", "hlt", "hlgt"))
        assert rep.p1_holds  # theorem: every dataset, every arm
        if not rep.p2_holds:
            p2_violations += 1
    assert p2_violations > 0  # P2 is empirical, not a theorem


def test_sweep_keeps_zero_variance_pairs(two_level_hierarchy):
    # A is uneven over PTs only; both arms are uniform at HLT and single-type at HLGT
    t = dataset_from_counts({"A": {"a": 1, "b": 1, "c": 2}, "B": {"a": 1, "c": 1}},
                            hierarchy=two_level_hierarchy)
    rep = hierarchy_sweep(t)
    assert list(rep.comparisons) == [("A", "B", "pt")]
    assert rep.degenerate == [("A", "B", "hlt"), ("A", "B", "hlgt")]


def test_sweep_requires_hierarchy():
    t = dataset_from_counts({"A": {"a": 3}})
    with pytest.raises(MissingHierarchy):
        hierarchy_sweep(t)


def test_degenerate_variance_is_caught_in_one_place():
    """Cell comparisons go through cohorts._estimate_and_pair; everything
    else lets DegenerateVariance reach cli.main. A handler catches it when it
    names DegenerateVariance or a class it derives from (AdxError, Exception,
    BaseException), or names none."""
    src = Path(__file__).resolve().parent.parent / "src" / "adx"
    names = {cls.__name__ for cls in DegenerateVariance.__mro__}

    def catches(handler):
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(getattr(t, "id", getattr(t, "attr", None)) in names for t in types)

    sites = set()
    for path in sorted(src.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites |= {(path.name, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.ExceptHandler) and catches(node)}
    assert sites == {("cohorts.py", "_estimate_and_pair"), ("cli.py", "main")}


# --- rolled-up counts against direct estimates ------------------------------------

def _rollup_trial():
    """Two arms over 12 PTs in a 12 -> 6 -> 3 -> 2 hierarchy, episodes
    interleaved across subjects of both sexes."""
    import random
    rng = random.Random(7)
    pts = [f"p{i}" for i in range(12)]
    hier = HierarchyMap({pt: (f"h{i // 2}", f"g{i // 4}", f"soc{i // 8}") for i, pt in enumerate(pts)})
    subjects = [dict(subject_id=f"{arm}{j}", arm=arm, sex="FM"[j % 2], age_years=30 + 9 * j)
                for arm in ("A", "B") for j in range(4)]
    episodes = [dict(subject_id=f"{arm}{rng.randrange(4)}", arm=arm,
                     pt_term=pts[min(rng.randrange(12), rng.randrange(12)) if arm == "A"
                                 else rng.randrange(12)],
                     serious=rng.random() < 0.3)
                for _ in range(300) for arm in ("A", "B")]
    return make_trial(subjects, episodes, hierarchy=hier)


def test_hierarchy_sweep_rollup_equals_direct_estimates():
    t = _rollup_trial()
    levels = ("pt", "hlt", "hlgt", "soc")
    rep = hierarchy_sweep(t, levels=levels)
    for arm in t.arms:
        for level in levels:
            direct = estimate(record_profile(episode_records(t.columns, arm), level, t.hierarchy))
            assert rep.estimates[(arm, level)] == direct


def test_subgroup_at_hlt_equals_direct_estimates():
    t = _rollup_trial()
    rep = subgroup_analysis(t, ["sex", "seriousness"], level="hlt")
    assert len(rep.estimates) == 8
    sex = {s.subject_id: s.sex for s in t.subjects}
    for key, est in rep.estimates.items():
        cell = dict(key.filters)
        eps = [e for e in episode_records(t.columns) if e.arm == key.arm
               and sex[e.subject_id] == cell["sex"]
               and ("serious" if e.serious else "non-serious") == cell["seriousness"]]
        assert est == estimate(record_profile(eps, "hlt", t.hierarchy))


def _drilldown_oracle(data, soc, arms, top_n):
    """The per-episode loop ``drilldown`` replaced: ``term_at`` on every
    episode of the listed arms."""
    hierarchy = data.hierarchy
    counts = {}
    for ep in episode_records(data.columns):
        if ep.arm not in arms:
            continue
        if hierarchy.term_at(ep.pt_term, "soc") != soc:
            continue
        counts.setdefault(ep.pt_term, {a: 0 for a in arms})[ep.arm] += 1
    ranked = sorted(counts, key=lambda pt: (-max(counts[pt].values()), pt))
    top = ranked[: max(top_n, 0)]
    rest = ranked[len(top):]
    return {
        "rows": [(pt, dict(counts[pt])) for pt in top],
        "others": {a: sum(counts[pt][a] for pt in rest) for a in arms},
        "zero_count_types": {a: sum(1 for pt in counts if counts[pt][a] == 0) for a in arms},
        "totals": {a: sum(counts[pt][a] for pt in counts) for a in arms},
        "total_types": len(counts),
    }


@pytest.mark.parametrize("soc, arms, top_n", [
    ("soc0", None, 2), ("soc1", ["B"], 3), ("soc1", ["B", "A"], 0), ("soc0", ["A", "C"], 20),
])
def test_drilldown_equals_per_episode_loop(soc, arms, top_n):
    t = _rollup_trial()
    table = drilldown(t, soc, arms, top_n)
    expected = _drilldown_oracle(t, soc, list(arms) if arms else list(t.arms), top_n)
    assert {name: getattr(table, name) for name in expected} == expected
    assert table.arms == (list(arms) if arms else list(t.arms))
