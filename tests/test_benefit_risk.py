import os
from collections import Counter

import numpy as np
import pytest

from adx.benefit_risk import (
    EfficacyInput,
    benefit_risk,
    load_efficacy,
    re_read,
    re_read_bootstrap_ci,
    read_score,
)
from adx.data import HierarchyMap
from adx.entropy import FrequencyProfile, adx, estimate
from adx.errors import DivisionByZeroBenefit, InsufficientData, ZeroAdversity

from conftest import dataset_from_counts, estimate_from_stats, run_on_cpus, write_csv


def test_read_golden_el():
    e = EfficacyInput(arm="GT", value=5.3, label="median PFS (months)")
    assert read_score(e, estimate_from_stats(3.64, 0.0079, 187)) == pytest.approx(1.46, abs=0.005)


def test_read_zero_efficacy():
    e = EfficacyInput(arm="X", value=0.0)
    assert read_score(e, estimate_from_stats(2.0, 0.1, 10)) == 0.0


def test_read_negative_is_better_folds():
    e = EfficacyInput(arm="10 mg", value=-0.72, higher_is_better=False,
                      label="MeanCFB HbA1C")
    assert read_score(e, estimate_from_stats(4.64, 0.05, 200)) == pytest.approx(0.155, abs=0.001)


def test_read_zero_adversity():
    e = EfficacyInput(arm="X", value=1.0)
    single = estimate(FrequencyProfile({"only": 40}))
    with pytest.raises(ZeroAdversity):
        read_score(e, single)


def test_re_read_golden_table12():
    assert re_read(5.3 / 3.64, 3.5 / 3.48) == pytest.approx(1.45, abs=0.005)


def test_re_read_identical_is_one():
    assert re_read(1.46, 1.46) == 1.0


def test_re_read_unrounded_chain():
    # only reproducible from unrounded intermediates (rounded REAds give 5.34)
    assert re_read(0.72 / 4.64, 0.13 / 4.49) == pytest.approx(5.36, abs=0.01)


def test_re_read_zero_denominator():
    with pytest.raises(DivisionByZeroBenefit):
        re_read(1.0, 0.0)


def test_scale_invariance():
    a, b = 5.3 / 3.64, 3.5 / 3.48
    assert re_read(7 * a, 7 * b) == pytest.approx(re_read(a, b), rel=1e-12)


def test_benefit_risk_sign_warning():
    eff = {
        "A": EfficacyInput(arm="A", value=0.5, higher_is_better=False),
        "B": EfficacyInput(arm="B", value=0.7, higher_is_better=False),
    }
    ests = {"A": estimate_from_stats(2.0, 0.1, 10), "B": estimate_from_stats(2.5, 0.1, 12)}
    with pytest.warns(UserWarning, match="higher_is_better"):
        benefit_risk(ests, eff, [("A", "B")])


def test_load_efficacy(tmp_path):
    path = write_csv(
        tmp_path / "eff.csv",
        ["arm", "endpoint_label", "value", "higher_is_better"],
        [["GT", "median PFS", "5.3", "true"], ["T", "median PFS", "3.5", "true"]],
    )
    eff = load_efficacy(path)
    assert eff["GT"].value == 5.3
    assert eff["T"].higher_is_better


# --- bootstrap ------------------------------------------------------------------

def big_two_arm_trial():
    counts_a = {"a": 90, "b": 50, "c": 30, "d": 20, "e": 10}
    counts_b = {"a": 80, "b": 60, "c": 30, "d": 20, "e": 10}
    return dataset_from_counts({"A": counts_a, "B": counts_b}, subjects_per_arm=10)


EFF_EQUAL = {
    "A": EfficacyInput(arm="A", value=2.0),
    "B": EfficacyInput(arm="B", value=2.0),
}


def test_bootstrap_null_case_contains_one():
    t = dataset_from_counts(
        {"A": {"a": 90, "b": 50, "c": 30}, "B": {"a": 90, "b": 50, "c": 30}},
        subjects_per_arm=5,
    )
    lo, hi = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=500, seed=1)
    assert lo < 1.0 < hi


def test_bootstrap_deterministic():
    t = big_two_arm_trial()
    ci1 = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=300, seed=7)
    ci2 = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=300, seed=7)
    assert ci1 == ci2
    ci3 = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=300, seed=8)
    assert ci1 != ci3


def test_bootstrap_degenerate_single_type_arm():
    t = dataset_from_counts({"A": {"a": 50}, "B": {"a": 30, "b": 20}})
    with pytest.raises(ZeroAdversity):
        re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=200, seed=1)


def test_bootstrap_insufficient():
    t = big_two_arm_trial()
    with pytest.raises(InsufficientData):
        re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=100, seed=1)
    t2 = dataset_from_counts({"A": {"a": 1}, "B": {"a": 5, "b": 5}})
    with pytest.raises(InsufficientData):
        re_read_bootstrap_ci(t2, EFF_EQUAL, ("A", "B"), replicates=200, seed=1)


def test_bootstrap_subject_unit_runs():
    t = dataset_from_counts(
        {"A": {"a": 40, "b": 30, "c": 20}, "B": {"a": 35, "b": 30, "c": 25}},
        subjects_per_arm=15,
    )
    lo, hi = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=300, seed=3,
                                  unit="subject")
    assert lo < hi


def test_bootstrap_against_independent_oracle():
    # independent vectorized bootstrap: episode resampling is multinomial
    # on the observed proportions, run at 10^5 replicates
    t = big_two_arm_trial()
    lo, hi = re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=4000, seed=13)

    rng = np.random.default_rng(99)
    ratios = None
    reads = {}
    for arm in ("A", "B"):
        eps = t.episodes_for_arm(arm)
        from collections import Counter
        counts = np.array(list(Counter(e.pt_term for e in eps).values()), dtype=float)
        n = int(counts.sum())
        draws = rng.multinomial(n, counts / n, size=100_000)
        p = draws / n
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log(p), 0.0)
        reads[arm] = 2.0 / -terms.sum(axis=1)
    ratios = reads["A"] / reads["B"]
    lo_o, hi_o = np.quantile(ratios, [0.025, 0.975])
    assert lo == pytest.approx(lo_o, rel=0.02)
    assert hi == pytest.approx(hi_o, rel=0.02)


def test_bootstrap_fails_fast_at_the_requested_level():
    # two PTs in A, but one SOC: degenerate at SOC level before any replicate
    h = HierarchyMap({"a": ("h1", "g1", "soc1"), "b": ("h1", "g1", "soc1"),
                      "c": ("h2", "g2", "soc2")})
    t = dataset_from_counts({"A": {"a": 30, "b": 20}, "B": {"a": 25, "c": 25}}, hierarchy=h)
    with pytest.raises(ZeroAdversity, match="single AE type"):
        re_read_bootstrap_ci(t, EFF_EQUAL, ("A", "B"), replicates=200, seed=1,
                             hierarchy_level="soc")


def _reference_bootstrap_ci(data, efficacy, arms, level, replicates, seed, unit, hierarchy_level):
    """The per-replicate term-list loop that ``re_read_bootstrap_ci`` replaced:
    the same ``[seed, r]`` streams and draws, tallied into a FrequencyProfile."""
    terms, clusters = {}, {}
    for arm in arms:
        eps = data.episodes_for_arm(arm)
        terms[arm] = [e.pt_term if hierarchy_level == "pt"
                      else data.hierarchy.term_at(e.pt_term, hierarchy_level) for e in eps]
        by_subject = {}
        for e, t in zip(eps, terms[arm]):
            by_subject.setdefault(e.subject_id, []).append(t)
        clusters[arm] = list(by_subject.values())
    values = np.empty(replicates)
    for r in range(replicates):
        rng = np.random.default_rng([seed, r])
        reads = []
        for arm in arms:
            units = [[t] for t in terms[arm]] if unit == "episode" else clusters[arm]
            counts = Counter()
            for i in rng.integers(0, len(units), size=len(units)):
                counts.update(units[i])
            h = adx(FrequencyProfile(counts))
            if h == 0.0:
                raise ZeroAdversity(f"bootstrap replicate {r}: arm {arm!r} collapsed to one AE type")
            reads.append(abs(efficacy[arm].benefit) / h)
        values[r] = reads[0] / reads[1]
    lo_q = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [lo_q, 1.0 - lo_q])
    return float(lo), float(hi)


def _hierarchy_trial():
    pts = [f"p{i}" for i in range(12)]
    h = HierarchyMap({pt: (f"h{i // 2}", f"g{i // 4}", f"soc{i // 4}") for i, pt in enumerate(pts)})
    counts_a = {pt: 3 + (7 * i) % 11 for i, pt in enumerate(pts)}
    counts_b = {pt: 2 + (5 * i) % 13 for i, pt in enumerate(pts)}
    return dataset_from_counts({"A": counts_a, "B": counts_b}, hierarchy=h, subjects_per_arm=9)


@pytest.mark.parametrize("unit", ["episode", "subject"])
@pytest.mark.parametrize("hierarchy_level", ["pt", "soc"])
@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_bootstrap_matches_term_list_reference(unit, hierarchy_level, seed, cpus):
    # 301 replicates split unevenly: 150 + 151 on two workers, 100 + 100 + 101 on three
    t = _hierarchy_trial()
    eff = {"A": EfficacyInput(arm="A", value=2.5), "B": EfficacyInput(arm="B", value=2.0)}
    args = (t, eff, ("A", "B"), 0.9, 301, seed, unit, hierarchy_level)
    (lo, hi), [rows], forks = run_on_cpus(cpus, re_read_bootstrap_ci, *args)
    assert forks == cpus - 1
    ci_one, [rows_one], _ = run_on_cpus(1, re_read_bootstrap_ci, *args)
    assert np.array_equal(rows, rows_one) and (lo, hi) == ci_one
    lo_ref, hi_ref = _reference_bootstrap_ci(*args)
    assert lo == pytest.approx(lo_ref, rel=1e-12, abs=0.0)
    assert hi == pytest.approx(hi_ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("unit", ["episode", "subject"])
def test_bootstrap_collapse_matches_reference(unit):
    # B has three episodes over two types: about a third of its replicates collapse
    t = dataset_from_counts({"A": {"a": 30, "b": 20, "c": 10}, "B": {"a": 2, "b": 1}},
                            subjects_per_arm=3)
    args = (t, EFF_EQUAL, ("A", "B"), 0.95, 200, 5, unit, "pt")
    with pytest.raises(ZeroAdversity) as new:
        re_read_bootstrap_ci(*args)
    with pytest.raises(ZeroAdversity) as ref:
        _reference_bootstrap_ci(*args)
    assert str(new.value) == str(ref.value)
    assert "arm 'B' collapsed" in str(new.value)


def test_bootstrap_collapse_in_a_workers_share_matches_reference():
    # B is two types of four episodes each: a replicate collapses with
    # probability 1/128, and at seed 11 the first to do so is replicate 111,
    # in the second worker's share of 200 replicates on two CPUs
    t = dataset_from_counts({"A": {"a": 30, "b": 20, "c": 10}, "B": {"a": 4, "b": 4}})
    args = (t, EFF_EQUAL, ("A", "B"), 0.95, 200, 11, "episode", "pt")
    with pytest.raises(ZeroAdversity) as new:
        run_on_cpus(2, re_read_bootstrap_ci, *args)
    with pytest.raises(ZeroAdversity) as ref:
        _reference_bootstrap_ci(*args)
    assert str(new.value) == str(ref.value) == (
        "bootstrap replicate 111: arm 'B' collapsed to one AE type")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
