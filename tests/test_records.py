"""Record semantics: every record is an immutable named tuple whose
constructor keeps its signature, defaults, normalisation, check order and
error messages; ``TrialDataset`` is an immutable plain class."""
import math

import pytest

from adx.benefit_risk import EfficacyInput
from adx.cohorts import AgeBinning, CohortKey
from adx.data import AeEpisode, SubjectRecord, TrialDataset
from adx.entropy import FrequencyProfile, compare, estimate
from adx.errors import InvalidScenario
from adx.simulate import ArmScenario, Scenario
from adx.temporal import LookSchedule


def _arm(**kw):
    return ArmScenario(**{"name": "A", "probs": (0.5, 0.5), "episodes_per_subject": 1.0,
                          "n_subjects": 10, **kw})


def _dataset():
    return TrialDataset(subjects=(SubjectRecord("S1", "A"),),
                        episodes=(AeEpisode("S1", "A", "nausea"),))


_EST = estimate(FrequencyProfile({"a": 3, "b": 1}))

FROZEN = {
    "SubjectRecord": lambda: SubjectRecord("S1", "A"),
    "TrialDataset": _dataset,
    "FrequencyProfile": lambda: FrequencyProfile({"a": 1}),
    "AdxEstimate": lambda: _EST,
    "ComparisonResult": lambda: compare(_EST, estimate(FrequencyProfile({"a": 1, "b": 1, "c": 2}))),
    "AgeBinning": AgeBinning,
    "CohortKey": lambda: CohortKey("A", (("sex", "F"),)),
    "LookSchedule": lambda: LookSchedule((10, 20)),
    "EfficacyInput": lambda: EfficacyInput("A", 1.5),
    "ArmScenario": _arm,
    "Scenario": lambda: Scenario((_arm(),)),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_records_are_immutable(make):
    record = make()
    field = "subjects" if isinstance(record, TrialDataset) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.note = "free text"


@pytest.mark.parametrize("make, error, message", [
    (lambda: AgeBinning((50, 40)), ValueError, "cut_points must be strictly ascending"),
    (lambda: AgeBinning((40, 40)), ValueError, "cut_points must be strictly ascending"),
    (lambda: AgeBinning(()), ValueError, "at least one cut point required"),
    (lambda: AgeBinning((math.nan,)), ValueError, "cut_points must be finite, got nan"),
    (lambda: AgeBinning((40, math.inf)), ValueError, "cut_points must be finite, got 40.0, inf"),
    (lambda: AgeBinning((0, 40)), ValueError, "cut_points must be > 0, got 0"),
    (lambda: LookSchedule((3, 1)), ValueError, "cutoff_days must be strictly ascending"),
    (lambda: LookSchedule(()), ValueError, "at least one cutoff required"),
    (lambda: LookSchedule((-5, 10)), ValueError, "cutoff_days must be >= 0, got -5"),
    (lambda: CohortKey("A", (("sex", "F"), ("sex", "M"))), ValueError,
     "at most one filter per dimension"),
    (lambda: SubjectRecord("S1", "A", sex="X", age_years=-1), ValueError,
     "sex must be F, M or U, got 'X'"),
    (lambda: SubjectRecord("S1", "A", age_years=-1, first_dose_day=5, last_observed_day=2),
     ValueError, "age_years < 0"),
    (lambda: SubjectRecord("S1", "A", age_years=float("nan")), ValueError,
     "age_years must be finite"),
    (lambda: SubjectRecord("S1", "A", first_dose_day=5, last_observed_day=2), ValueError,
     "last_observed_day < first_dose_day"),
    (lambda: FrequencyProfile({"a": 2, "b": -1}), ValueError, "negative count for 'b'"),
    (lambda: EfficacyInput("A", math.nan), ValueError, "efficacy value must be finite"),
    (lambda: EfficacyInput(arm="A", value=-math.inf, higher_is_better=False), ValueError,
     "efficacy value must be finite"),
    (lambda: _arm(probs=(), episodes_per_subject=-1), InvalidScenario,
     "arm 'A': empty probability vector"),
    (lambda: _arm(probs=(0.5, 0.4)), InvalidScenario,
     "arm 'A': probabilities must be >= 0 and sum to 1"),
    (lambda: _arm(episodes_per_subject=-1, n_subjects=0), InvalidScenario,
     "arm 'A': negative episode rate"),
    (lambda: _arm(n_subjects=0), InvalidScenario, "arm 'A': need at least one subject"),
    (lambda: _arm(cycle_dropout=0.0), InvalidScenario,
     "arm 'A': cycle_dropout must be in (0, 1]"),
    (lambda: _arm(probs=(math.nan, 1.0)), InvalidScenario,
     "arm 'A': probabilities must be >= 0 and sum to 1"),
    (lambda: _arm(probs=(-0.5, 1.5)), InvalidScenario,
     "arm 'A': probabilities must be >= 0 and sum to 1"),
    (lambda: _arm(episodes_per_subject=math.inf), InvalidScenario,
     "arm 'A': episode rate must be finite"),
    (lambda: _arm(episodes_per_subject=math.nan), InvalidScenario,
     "arm 'A': episode rate must be finite"),
    (lambda: _arm(onset_span=-1), InvalidScenario, "arm 'A': onset_span must be >= 0"),
    (lambda: _arm(episodes_per_subject=1e19, n_subjects=1), InvalidScenario,
     "arm 'A': expects 1e+19 episodes, above 1e+07"),
    (lambda: Scenario(arms=(_arm(),), seed=-1), InvalidScenario,
     "scenario seed must be >= 0, got -1"),
    (lambda: Scenario(arms=()), InvalidScenario, "scenario needs at least one arm"),
    (lambda: Scenario(arms=(_arm(), _arm())), InvalidScenario, "duplicate arm names"),
])
def test_constructor_errors_keep_type_and_message(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_constructors_keep_defaults_and_normalisation():
    assert AgeBinning().cut_points == (40.0, 50.0, 65.0)
    assert AgeBinning(cut_points=(40, 50)).cut_points == (40.0, 50.0)
    assert LookSchedule(cutoff_days=("3", 7.0)).cutoff_days == (3, 7)
    assert CohortKey("A").filters == ()
    assert FrequencyProfile({"a": 2, "b": 0}).counts == {"a": 2}
    subject = SubjectRecord(subject_id="S1", arm="A")
    assert subject[2:] == ("U", None, None, None, None, None)
    assert EfficacyInput(arm="A", value=-2.0, higher_is_better=False).benefit == 2.0
    assert _arm()[4:] == (None, None) and Scenario((_arm(),)).seed == 0
    assert repr(EfficacyInput("A", 1.5)) == (
        "EfficacyInput(arm='A', value=1.5, higher_is_better=True, label='')")


def test_cohort_key_hashes_as_arm_and_sorted_filters():
    filters = (("sex", "F"), ("age", "<40"))
    key = CohortKey("A", filters)
    assert key.filters == (("age", "<40"), ("sex", "F"))
    assert hash(key) == hash(("A", tuple(sorted(filters))))
    assert key == ("A", tuple(sorted(filters)))  # a named tuple equals a plain tuple
    assert str(key) == "A | age=<40 | sex=F"


def test_records_iterate_and_index_as_tuples():
    est = _EST
    assert tuple(est) == (est.adx, est.variance, est.se, est.k, est.n, est.eals, est.seals)
    assert est[3] == est.k == 2
    arm, filters = CohortKey("B")
    assert (arm, filters) == ("B", ())


def test_trial_dataset_keeps_keyword_signature():
    subjects = (SubjectRecord("S1", "A"), SubjectRecord("S2", "B"))
    t = TrialDataset(subjects=subjects, episodes=(), hierarchy=None, arms=("B", "A"))
    assert t.arms == ("B", "A") and {s.subject_id: s for s in t.subjects}["S2"] is subjects[1]
    assert _dataset().arms == ("A",)
    with pytest.raises(AttributeError):
        del t.arms
