"""The trial build against the per-episode code it replaced.

``reference_generate_trial`` builds each episode through ``AeEpisode`` as it
is drawn, and ``reference_write_trial`` builds each CSV row by hand, as
``simulate.generate_trial`` and ``data.write_trial`` did before they worked
on columns. On any scenario the two generators must give equal datasets,
field types included, and on any dataset the two writers must write the
same bytes.
"""
import csv
import math
from bisect import bisect_right
from itertools import accumulate
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from adx.data import AeEpisode, SubjectRecord, TrialDataset, write_trial
from adx.simulate import ArmScenario, Scenario, _poisson, generate_trial, type_label

from conftest import episode_records


# --- the references: one record, one row at a time ---


def reference_generate_trial(scenario):
    random = Random(scenario.seed).random
    subjects, episodes = [], []
    sid = 0
    for arm in scenario.arms:
        labels = [type_label(i) for i in range(len(arm.probs))]
        cum = list(accumulate(arm.probs))
        total = cum[-1]
        span = arm.onset_span
        log_stay = None if arm.cycle_dropout is None else (
            math.log1p(-arm.cycle_dropout) if arm.cycle_dropout < 1.0 else -math.inf)
        for _ in range(arm.n_subjects):
            sid += 1
            subject_id = f"S{sid:05d}"
            subjects.append(SubjectRecord(subject_id=subject_id, arm=arm.name))
            for _ in range(_poisson(random, arm.episodes_per_subject)):
                pt_term = labels[bisect_right(cum, random() * total)]
                onset = None if span is None else int(random() * (span + 1))
                cycle = None if log_stay is None else 1 + int(math.log1p(-random()) / log_stay)
                episodes.append(AeEpisode(subject_id=subject_id, arm=arm.name, pt_term=pt_term,
                                          onset_day=onset, cycle=cycle))
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))


def reference_write_trial(data, episodes_file, subjects_file):
    with open(subjects_file, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["subject_id", "arm", "sex", "age_years", "background_therapy", "substudy",
             "first_dose_day", "last_observed_day"]
        )
        for s in sorted(data.subjects, key=lambda s: s.subject_id):
            w.writerow(
                [s.subject_id, s.arm, s.sex,
                 "" if s.age_years is None else s.age_years,
                 s.background_therapy or "", s.substudy or "",
                 "" if s.first_dose_day is None else s.first_dose_day,
                 "" if s.last_observed_day is None else s.last_observed_day]
            )
    with open(episodes_file, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"])
        key = lambda e: (e.subject_id, e.pt_term, e.onset_day if e.onset_day is not None else -1,
                         e.cycle if e.cycle is not None else -1)
        for e in sorted(episode_records(data.columns), key=key):
            w.writerow(
                [e.subject_id, e.arm, e.pt_term,
                 "" if e.onset_day is None else e.onset_day,
                 "" if e.cycle is None else e.cycle,
                 "" if e.serious is None else str(e.serious).lower(),
                 "" if e.severity is None else e.severity,
                 e.tier]
            )


# --- the checks ---

# labels that CSV must quote: commas, quotes, newlines
TEXTS = ["A", "Placebo", "arm, high dose", 'arm "B"', "two\nlines", "x\r\ny"]


@st.composite
def arm_scenarios(draw, name):
    n_types = draw(st.sampled_from([1, 2, 3, 7, 40, 1000, 1200]))
    weights = draw(st.lists(st.integers(0, 9), min_size=n_types, max_size=n_types).filter(any))
    total = sum(weights)
    probs = tuple(w / total for w in weights)
    return ArmScenario(
        name=name,
        probs=probs,
        episodes_per_subject=draw(st.sampled_from([0.0, 0.5, 3.0, 12.5])),
        n_subjects=draw(st.integers(1, 25)),
        onset_span=draw(st.sampled_from([None, 0, 1, 365])),
        cycle_dropout=draw(st.sampled_from([None, 1.0, 0.5, 0.15, 1e-3])),
    )


@st.composite
def scenarios(draw):
    names = draw(st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3, unique=True))
    return Scenario(arms=tuple(draw(arm_scenarios(name)) for name in names),
                    seed=draw(st.integers(0, 2 ** 32)))


def _same_files(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    blobs = []
    for side, write in (("new", write_trial), ("reference", reference_write_trial)):
        write(data, base / f"{side}_episodes.csv", base / f"{side}_subjects.csv")
        blobs.append(((base / f"{side}_episodes.csv").read_bytes(),
                      (base / f"{side}_subjects.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def _same_dataset(got, want):
    assert repr(got.subjects) == repr(want.subjects)
    assert repr(episode_records(got.columns)) == repr(episode_records(want.columns))
    assert got.arms == want.arms


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_generate_trial_matches_reference(tmp_path_factory, scenario):
    trial = generate_trial(scenario)
    _same_dataset(trial, reference_generate_trial(scenario))
    _same_files(tmp_path_factory, trial)


def test_generate_trial_matches_reference_on_a_pareto_trial():
    w = [i ** -1.1 for i in range(1, 401)]
    probs = tuple(x / math.fsum(w) for x in w)
    scenario = Scenario(arms=tuple(
        ArmScenario(name=name, probs=probs, episodes_per_subject=rate, n_subjects=500,
                    onset_span=720, cycle_dropout=0.15)
        for name, rate in (("Active", 11.0), ("Placebo", 9.0))), seed=5)
    trial = generate_trial(scenario)
    assert len(episode_records(trial.columns)) > 8000
    _same_dataset(trial, reference_generate_trial(scenario))


@st.composite
def datasets(draw):
    """Records built in code: any ``serious`` (bools, 0/1, None), optional
    values missing at random, and texts that CSV must quote."""
    maybe = lambda values: st.one_of(st.none(), values)  # noqa: E731
    subjects = []
    for i in range(draw(st.integers(1, 6))):
        subjects.append(SubjectRecord(
            subject_id=draw(st.sampled_from([f"S{i}", f"S{i},x", f'S{i} "q"', f"S{i}\nz"])),
            arm=draw(st.sampled_from(TEXTS)),
            sex=draw(st.sampled_from("FMU")),
            age_years=draw(maybe(st.sampled_from([0.0, 41.5, 70.0, 1e-7]))),
            background_therapy=draw(maybe(st.sampled_from(["", "none", "platinum, doublet"]))),
            substudy=draw(maybe(st.sampled_from(["", "PK", 'sub "A"']))),
            first_dose_day=draw(maybe(st.integers(0, 3))),
            last_observed_day=draw(maybe(st.integers(4, 9))),
        ))
    subjects = draw(st.permutations(list({s.subject_id: s for s in subjects}.values())))
    episodes = []
    for _ in range(draw(st.integers(0, 30))):
        s = draw(st.sampled_from(subjects))
        episodes.append(AeEpisode(
            subject_id=s.subject_id, arm=s.arm,
            pt_term=draw(st.sampled_from(["nausea", "Rash, NOS", 'pain "acute"', "a\nb", "ae_001"])),
            onset_day=draw(maybe(st.integers(0, 4))),
            cycle=draw(maybe(st.integers(1, 3))),
            serious=draw(st.sampled_from([True, False, None, 1, 0])),
            severity=draw(maybe(st.integers(1, 3))),
            tier=draw(st.sampled_from(["tier1", "tier23", "untiered"])),
        ))
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))


@settings(max_examples=200, deadline=None)
@given(data=datasets())
def test_write_trial_matches_reference(tmp_path_factory, data):
    _same_files(tmp_path_factory, data)

