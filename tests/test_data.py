import pytest

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
from adx.errors import ArmMismatch, InputError, MalformedRow, UnknownSubject, UnmappedTerm

from conftest import dataset_from_counts, episode_records, write_csv


def test_normalize_term():
    assert normalize_term("  Nausea ") == "nausea"
    assert normalize_term("ABDOMINAL   PAIN\tUPPER") == "abdominal pain upper"


def test_load_minimal_trial(tiny_trial_files):
    t = load_trial(tiny_trial_files["episodes"], tiny_trial_files["subjects"],
                   tiny_trial_files["hierarchy"])
    assert len(t.subjects) == 3
    assert len(episode_records(t.columns)) == 5
    assert set(t.arms) == {"A", "B"}


def test_unknown_subject(tmp_path, tiny_trial_files):
    episodes = write_csv(
        tmp_path / "bad_eps.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        [["S9", "A", "nausea", "", "", "", "", ""]],
    )
    with pytest.raises(UnknownSubject):
        load_trial(episodes, tiny_trial_files["subjects"])


def test_arm_mismatch():
    subj = SubjectRecord(subject_id="S1", arm="A")
    ep = AeEpisode(subject_id="S1", arm="B", pt_term="nausea")
    from adx.errors import ArmMismatch
    with pytest.raises(ArmMismatch):
        TrialDataset(subjects=(subj,), episodes=(ep,))


@pytest.mark.parametrize("pairs, error, message", [
    ([("S1", "A"), ("S9", "A"), ("S1", "B")], UnknownSubject,
     "episode references unknown subject 'S9'"),
    ([("S1", "A"), ("S1", "B"), ("S9", "A")], ArmMismatch,
     "episode arm 'B' != subject arm 'A' for 'S1'"),
    ([("S2", "B"), ("S2", "B"), ("S1", "B"), ("S9", "B")], ArmMismatch,
     "episode arm 'B' != subject arm 'A' for 'S1'"),
])
def test_first_faulty_episode_is_reported(pairs, error, message):
    subjects = (SubjectRecord("S1", "A"), SubjectRecord("S2", "B"))
    episodes = tuple(AeEpisode(sid, arm, "x") for sid, arm in pairs)
    with pytest.raises(error) as exc:
        TrialDataset(subjects=subjects, episodes=episodes)
    assert str(exc.value) == message


def test_duplicate_pt_different_soc_rejected(tmp_path, tiny_trial_files):
    hierarchy = write_csv(
        tmp_path / "dup.csv",
        ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
        [
            ["nausea", "h1", "g1", "soc1"],
            ["nausea", "h1", "g1", "soc2"],
        ],
    )
    with pytest.raises(InputError, match="nausea"):
        HierarchyMap.from_csv(hierarchy)


def test_hierarchy_functional_chain_violation():
    # same hlt under two different hlgts
    with pytest.raises(InputError, match="hlt"):
        HierarchyMap({"a": ("h1", "g1", "s1"), "b": ("h1", "g2", "s1")})


def test_unmapped_term_reject_vs_synthetic(tmp_path, tiny_trial_files):
    hierarchy = write_csv(
        tmp_path / "partial.csv",
        ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
        [["nausea", "h1", "g1", "soc1"]],
    )
    with pytest.raises(UnmappedTerm):
        load_trial(tiny_trial_files["episodes"], tiny_trial_files["subjects"], hierarchy)
    t = load_trial(tiny_trial_files["episodes"], tiny_trial_files["subjects"], hierarchy,
                   unmapped="synthetic")
    assert t.hierarchy.term_at("headache", "soc") == "unmapped"


def test_malformed_row_reports_line(tmp_path, tiny_trial_files):
    episodes = write_csv(
        tmp_path / "bad.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        [
            ["S1", "A", "nausea", "", "", "", "", ""],
            ["S1", "A", "nausea", "ten", "", "", "", ""],
        ],
    )
    with pytest.raises(MalformedRow) as exc:
        load_trial(episodes, tiny_trial_files["subjects"])
    assert exc.value.line_no == 3


def test_episode_invariants():
    with pytest.raises(ValueError):
        AeEpisode(subject_id="S1", arm="A", pt_term="   ")
    with pytest.raises(ValueError):
        AeEpisode(subject_id="S1", arm="A", pt_term="x", cycle=0)
    with pytest.raises(ValueError):
        AeEpisode(subject_id="S1", arm="A", pt_term="x", onset_day=-1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(pt_term=" \t "), "pt_term is empty after normalization"),
    (dict(pt_term="x", onset_day=-1), "onset_day -1 < 0"),
    (dict(pt_term="x", cycle=0), "cycle 0 < 1"),
    (dict(pt_term="x", tier="Tier1"),
     "tier must be one of ('tier1', 'tier23', 'untiered'), got 'Tier1'"),
])
def test_episode_invariant_messages(kwargs, message):
    with pytest.raises(ValueError) as exc:
        AeEpisode(subject_id="S1", arm="A", **kwargs)
    assert str(exc.value) == message


def test_episode_is_an_immutable_named_tuple():
    pos = AeEpisode("S1", "A", "  Nausea\t ", 3, 2, True, 1, "tier1")
    kw = AeEpisode(subject_id="S1", arm="A", pt_term="nausea", onset_day=3, cycle=2,
                   serious=True, severity=1, tier="tier1")
    assert pos == kw and hash(pos) == hash(kw) and len({pos, kw}) == 1
    assert pos.pt_term == "nausea"
    assert AeEpisode._fields == ("subject_id", "arm", "pt_term", "onset_day", "cycle",
                                 "serious", "severity", "tier")
    bare = AeEpisode("S1", "A", "x")
    assert bare[3:] == (None, None, None, None, "untiered")
    assert repr(bare) == ("AeEpisode(subject_id='S1', arm='A', pt_term='x', onset_day=None, "
                          "cycle=None, serious=None, severity=None, tier='untiered')")
    with pytest.raises(AttributeError):
        pos.pt_term = "other"
    with pytest.raises(AttributeError):
        pos.note = "free text"


@pytest.mark.parametrize("triple, message", [
    (("H1", "g1", "soc1"), "hlt 'H1' is not normalized: 'h1'"),
    (("h1", " g1", "soc1"), "hlgt ' g1' is not normalized: 'g1'"),
    (("h1", "g1", "Soc  1"), "soc 'Soc  1' is not normalized: 'soc 1'"),
], ids=["hlt", "hlgt", "soc"])
def test_a_hierarchy_built_in_code_takes_normalized_terms(triple, message):
    # the loaders normalize the terms they read; a map built in code takes
    # normalized terms: an upper term that is not fails where the map is
    # built, and a PT that is not fails the trial built with it
    with pytest.raises(InputError) as fault:
        HierarchyMap({"nausea": ("h0", "g0", "soc0"), "rash": triple})
    assert str(fault.value) == message
    raw = {"Nausea": ("h1", "g1", "soc1")}
    assert HierarchyMap(raw).entries == raw
    subjects, episodes = (SubjectRecord("S1", "A"),), (AeEpisode("S1", "A", " NAUSEA "),)
    with pytest.raises(UnmappedTerm, match=r"\['nausea'\]"):
        TrialDataset(subjects, episodes, HierarchyMap(raw))
    trial = TrialDataset(subjects, episodes, HierarchyMap({"nausea": raw["Nausea"]}))
    assert [trial.terms_at(level) for level in ("pt", "hlt", "hlgt", "soc")] == [
        ["nausea"], ["h1"], ["g1"], ["soc1"]]


def test_repeated_rows_are_distinct_episodes(tiny_trial_files):
    # the counting unit is the episode: identical rows are kept
    eps = write_csv(
        tiny_trial_files["dir"] / "rep.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        [["S1", "A", "nausea", 5, "", "", "", ""]] * 3,
    )
    t = load_trial(eps, tiny_trial_files["subjects"])
    assert len(episode_records(t.columns)) == 3


def test_dataset_summary_by_hand():
    t = dataset_from_counts({"A": {"a": 2, "b": 1}}, subjects_per_arm=2)
    # episodes round-robin over 2 subjects: both get at least one
    rows = dataset_summary(t)
    arm_a = rows[0]
    assert arm_a["subjects"] == 2
    assert arm_a["episodes"] == 3
    assert arm_a["distinct_types"] == 2


def test_summary_subject_without_ae():
    t = TrialDataset(
        subjects=(SubjectRecord("S1", "A"), SubjectRecord("S2", "A")),
        episodes=tuple(
            AeEpisode("S1", "A", pt) for pt in ["a", "a", "b"]
        ),
    )
    row = dataset_summary(t)[0]
    assert row["subjects"] == 2
    assert row["episodes"] == 3
    assert row["distinct_types"] == 2
    assert row["subjects_with_ae"] == 1
    assert row["pct_subjects_with_ae"] == 50.0


def test_pooled_type_union():
    t = dataset_from_counts({"A": {"a": 1, "b": 1}, "B": {"b": 1, "c": 1}})
    rows = dataset_summary(t)
    per_arm = {r["arm"]: r for r in rows}
    assert per_arm["A"]["distinct_types"] == 2
    assert per_arm["B"]["distinct_types"] == 2
    assert per_arm["Total"]["distinct_types"] == 3
    # pooled <= sum, >= max; per-arm episodes sum to pooled
    assert per_arm["Total"]["episodes"] == per_arm["A"]["episodes"] + per_arm["B"]["episodes"]


def test_summary_against_flat_recount(tmp_path):
    # independent oracle: recount raw rows without going through the model
    import random
    rng = random.Random(7)
    pts = ["a", "b", "c", "d", "e"]
    rows = []
    subjects = []
    for i in range(20):
        arm = "A" if i < 10 else "B"
        sid = f"S{i}"
        subjects.append([sid, arm, "F", "", "", "", "", ""])
        for _ in range(rng.randint(0, 4)):
            rows.append([sid, arm, rng.choice(pts), "", "", "", "", ""])
    subj_file = write_csv(tmp_path / "s.csv",
                          ["subject_id", "arm", "sex", "age_years", "background_therapy",
                           "substudy", "first_dose_day", "last_observed_day"], subjects)
    ep_file = write_csv(tmp_path / "e.csv",
                        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious",
                         "severity", "tier"], rows)
    t = load_trial(ep_file, subj_file)
    got = {r["arm"]: r for r in dataset_summary(t)}
    for arm in ("A", "B"):
        raw = [r for r in rows if r[1] == arm]
        assert got[arm]["episodes"] == len(raw)
        assert got[arm]["distinct_types"] == len({r[2] for r in raw})
        assert got[arm]["subjects_with_ae"] == len({r[0] for r in raw})


def test_round_trip(tmp_path, tiny_trial_files):
    t = load_trial(tiny_trial_files["episodes"], tiny_trial_files["subjects"])
    write_trial(t, tmp_path / "e2.csv", tmp_path / "s2.csv")
    t2 = load_trial(tmp_path / "e2.csv", tmp_path / "s2.csv")
    assert sorted(t.subjects, key=lambda s: s.subject_id) == sorted(
        t2.subjects, key=lambda s: s.subject_id
    )
    key = lambda e: (e.subject_id, e.pt_term, e.onset_day or -1, e.cycle or -1)
    assert (sorted(episode_records(t.columns), key=key)
            == sorted(episode_records(t2.columns), key=key))


def test_write_trial_text_of_records_built_in_code(tmp_path):
    # serious is written as str(value).lower(), so a 1 or 0 set in code stays
    # 1 or 0; None, and an empty background_therapy, are empty cells
    t = TrialDataset((SubjectRecord("S2", "A", "F", 41.5, "", None, 0, 9),
                      SubjectRecord("S1", "B", "M")),
                     (AeEpisode("S1", "B", "Rash", 3, 2, 1, 2, "tier1"),
                      AeEpisode("S2", "A", "nausea", None, None, False),
                      AeEpisode("S2", "A", "nausea", 1, 1, True),
                      AeEpisode("S1", "B", "x", serious=0)))
    write_trial(t, tmp_path / "e.csv", tmp_path / "s.csv")
    assert (tmp_path / "e.csv").read_text().splitlines() == [
        "subject_id,arm,pt_term,onset_day,cycle,serious,severity,tier",
        "S1,B,rash,3,2,1,2,tier1",
        "S1,B,x,,,0,,untiered",
        "S2,A,nausea,,,false,,untiered",
        "S2,A,nausea,1,1,true,,untiered",
    ]
    assert (tmp_path / "s.csv").read_text().splitlines() == [
        "subject_id,arm,sex,age_years,background_therapy,substudy,first_dose_day,"
        "last_observed_day",
        "S1,B,M,,,,,",
        "S2,A,F,41.5,,,0,9",
    ]
