"""Acceptance suite: one test per release criterion, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -s``."""
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from adx.benefit_risk import re_read, read_score, EfficacyInput
from adx.cli import main as cli_main
from adx.cohorts import drilldown, hierarchy_sweep, subgroup_analysis
from adx.data import Coded, HierarchyMap
from adx.entropy import (
    FrequencyProfile,
    adx,
    adx_variance,
    compare,
    eals,
    estimate,
    profile_from_episodes,
    seals,
)
from adx.errors import DegenerateVariance
from adx.simulate import ArmScenario, Scenario, validate_normality, validate_variance
from adx.temporal import LookSchedule, exposure_curves, interim_series

from conftest import dataset_from_counts, estimate_from_stats, write_csv
from test_cohorts import man_like_trial


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {description}")


def profile(*counts):
    return FrequencyProfile({f"t{i}": c for i, c in enumerate(counts)})


def test_criterion_1_evenness_goldens():
    with criterion(1, "evenness goldens 0.22 / 0.73 / 1.61"):
        for counts, expected in [
            ((1, 1, 1, 1, 96), 0.22),
            ((1, 3, 6, 10, 80), 0.73),
            ((20, 20, 20, 20, 20), 1.61),
        ]:
            assert round(adx(profile(*counts)), 2) == pytest.approx(expected, abs=0.005)


def test_criterion_2_equal_index_profiles():
    with criterion(2, "counts (81,7,6,6) and (50,50) both 0.69; (50,50) = ln 2 exactly"):
        assert round(adx(profile(81, 7, 6, 6)), 2) == 0.69
        assert round(adx(profile(50, 50)), 2) == 0.69
        assert adx(profile(50, 50)) == math.log(2)


def test_criterion_3_z_statistic():
    with criterion(3, "z-statistic golden: diff 0.16, se 0.0117, Z 13.67"):
        r = compare(estimate_from_stats(3.64, 0.0079, 187),
                    estimate_from_stats(3.48, 0.0086, 178))
        assert r.diff == pytest.approx(0.16, abs=1e-9)
        assert r.se_diff == pytest.approx(0.0117, abs=0.0001)
        assert r.z == pytest.approx(13.67, abs=0.05)


def test_criterion_4_eals_seals_goldens():
    with criterion(4, "EALS 38/32/64/40 and SEALS 0.74/0.38/0.89"):
        assert round(eals(3.64)) == 38
        assert round(eals(3.48)) == 32
        assert round(eals(4.16)) == 64
        assert round(eals(3.69)) == 40
        for a, k, expected in [(4.25, 95, 0.74), (3.69, 105, 0.38), (3.02, 23, 0.89)]:
            assert seals(estimate_from_stats(a, 0.0, k)) == pytest.approx(expected, abs=0.005)


def test_criterion_5_benefit_risk_goldens():
    with criterion(5, "REAd 1.46/1.01, Re-REAd 1.45; 0.155 and 5.36 chains"):
        gt = read_score(EfficacyInput(arm="GT", value=5.3),
                        estimate_from_stats(3.64, 0.0079, 187))
        t = read_score(EfficacyInput(arm="T", value=3.5),
                       estimate_from_stats(3.48, 0.0086, 178))
        assert gt == pytest.approx(1.46, abs=0.005)
        assert t == pytest.approx(1.01, abs=0.005)
        assert re_read(gt, t) == pytest.approx(1.45, abs=0.005)
        r10 = read_score(EfficacyInput(arm="10 mg", value=-0.72, higher_is_better=False),
                         estimate_from_stats(4.64, 0.05, 200))
        rp = read_score(EfficacyInput(arm="Placebo", value=-0.13, higher_is_better=False),
                        estimate_from_stats(4.49, 0.05, 200))
        assert r10 == pytest.approx(0.155, abs=0.001)
        assert re_read(r10, rp) == pytest.approx(5.36, abs=0.01)


def test_criterion_6_pvalue_band():
    with criterion(6, "(4.38, 0.0654) vs (3.97, 0.0793): two-sided p < 0.001"):
        r = compare(estimate_from_stats(4.38, 0.0654, 100),
                    estimate_from_stats(3.97, 0.0793, 100))
        assert r.p_value < 0.001


@pytest.fixture(scope="module")
def mc_regime():
    """K=50, N=5000, non-uniform p, 5000 replicates (criteria 7 and 8)."""
    raw = np.arange(1, 51, dtype=float)
    probs = tuple(raw / raw.sum())
    scenario = Scenario(
        arms=(ArmScenario(name="A", probs=probs, episodes_per_subject=10.0,
                          n_subjects=500),),
        seed=20240,
    )
    return scenario


def test_criterion_7_variance_oracle(mc_regime):
    with criterion(7, "Monte Carlo sd/analytic se within 5% (K=50, N=5000)"):
        rep = validate_variance(mc_regime, replicates=5000)
        assert abs(rep.arms[0].sd_over_se - 1.0) < 0.05


def test_criterion_8_normality_oracle(mc_regime):
    with criterion(8, "KS distance of standardized replicates < 0.02"):
        rep = validate_normality(mc_regime, replicates=5000)
        assert rep.arms[0].ks_distance < 0.02


def test_criterion_9_property_suite():
    with criterion(9, "property suite over 1000 randomized profiles"):
        rng = np.random.default_rng(77)
        n_checked = 0
        while n_checked < 1000:
            k = int(rng.integers(1, 12))
            counts = {f"t{i}": int(c) for i, c in enumerate(rng.integers(0, 200, size=k))}
            if sum(counts.values()) == 0:
                continue
            n_checked += 1
            p = FrequencyProfile(counts)
            h, v = adx(p), adx_variance(p)
            # bounds
            assert -1e-12 <= h <= math.log(p.n_types) + 1e-12
            # permutation invariance
            shuffled = FrequencyProfile(
                {f"x{i}": c for i, c in enumerate(reversed(list(p.counts.values())))}
            )
            assert adx(shuffled) == pytest.approx(h, abs=1e-12)
            assert adx_variance(shuffled) == pytest.approx(v, abs=1e-12)
            # count scaling
            scaled = FrequencyProfile({k2: 3 * c for k2, c in p.counts.items()})
            assert adx(scaled) == pytest.approx(h, abs=1e-12)
            assert adx_variance(scaled) == pytest.approx(v / 3, rel=1e-9, abs=1e-15)
            # merging never increases (proposition-1 theorem)
            if p.n_types >= 2:
                labels = list(p.counts)
                merged = dict(p.counts)
                merged[labels[0]] += merged.pop(labels[1])
                assert adx(FrequencyProfile(merged)) <= h + 1e-12
            # uniform maximum at fixed K
            uniform = FrequencyProfile({k2: 1 for k2 in p.counts})
            assert h <= adx(uniform) + 1e-12
            # compare antisymmetry
            other = FrequencyProfile(
                {f"t{i}": int(c) + 1 for i, c in enumerate(rng.integers(0, 50, size=3))}
            )
            try:
                ab = compare(estimate(p), estimate(other))
                ba = compare(estimate(other), estimate(p))
                assert ab.diff == pytest.approx(-ba.diff, abs=1e-12)
                assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
            except DegenerateVariance:
                pass


def test_criterion_10_pipeline_equivalence():
    with criterion(10, "interim/exposure final slice = all-data estimate; cells partition arms"):
        from adx.data import AeEpisode, SubjectRecord, TrialDataset
        rng = np.random.default_rng(5)
        subjects, episodes = [], []
        for i in range(40):
            arm = "A" if i % 2 else "B"
            sid = f"S{i}"
            subjects.append(SubjectRecord(subject_id=sid, arm=arm,
                                          sex="F" if i % 3 else "M",
                                          age_years=float(rng.integers(25, 80))))
            for _ in range(int(rng.integers(1, 6))):
                episodes.append(AeEpisode(
                    subject_id=sid, arm=arm,
                    pt_term=f"t{rng.integers(1, 15)}",
                    onset_day=int(rng.integers(0, 300)),
                    cycle=int(rng.integers(1, 8)),
                ))
        t = TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))
        full = {
            arm: estimate(profile_from_episodes(Coded.encode(e.pt_term for e in episodes
                                                             if e.arm == arm)))
            for arm in t.arms
        }
        series = interim_series(t, LookSchedule((100, 200, 300)))
        last = max(look for _, look in series.estimates)
        for (key, look), est in series.estimates.items():
            if look == last:
                assert est.adx == full[key.arm].adx
                assert est.n == full[key.arm].n
        curves = exposure_curves(t)
        for arm, rows in curves.curves.items():
            assert rows[-1][1] == full[arm].adx
            assert rows[-1][3] == full[arm].n
        rep = subgroup_analysis(t, ["sex"], min_episodes=1)
        for arm in t.arms:
            cell_sum = sum(e.n for k, e in rep.estimates.items() if k.arm == arm)
            assert cell_sum == len([e for e in episodes if e.arm == arm])


def test_criterion_11_drilldown_golden():
    with criterion(11, "drilldown reproduces the MAN table (totals 45/22/41)"):
        table = drilldown(man_like_trial(), "man", ["10 mg", "25 mg", "Placebo"], top_n=2)
        rows = dict(table.rows)
        assert rows["hyperglycaemia"] == {"10 mg": 6, "25 mg": 2, "Placebo": 23}
        assert rows["hypoglycaemia"] == {"10 mg": 21, "25 mg": 1, "Placebo": 1}
        assert table.others == {"10 mg": 18, "25 mg": 19, "Placebo": 17}
        assert table.zero_count_types == {"10 mg": 3, "25 mg": 5, "Placebo": 6}
        assert table.totals == {"10 mg": 45, "25 mg": 22, "Placebo": 41}
        assert table.total_types == 15


def test_criterion_12_determinism(tmp_path, capsys):
    with criterion(12, "byte-identical structured output on rerun (all commands)"):
        subjects = write_csv(
            tmp_path / "s.csv", ["subject_id", "arm", "sex", "age_years"],
            [["S1", "A", "F", "45"], ["S2", "A", "M", "62"],
             ["S3", "B", "F", "38"], ["S4", "B", "M", "71"]],
        )
        rng = np.random.default_rng(9)
        rows = []
        for sid, arm in [("S1", "A"), ("S2", "A"), ("S3", "B"), ("S4", "B")]:
            for _ in range(30):
                rows.append([sid, arm, f"t{rng.integers(1, 8)}",
                             int(rng.integers(0, 200)), int(rng.integers(1, 5)), "", "", ""])
        episodes = write_csv(
            tmp_path / "e.csv",
            ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
            rows,
        )
        hierarchy = write_csv(
            tmp_path / "h.csv", ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
            [[f"t{i}", f"h{i % 3}", f"g{i % 3}", f"soc{(i % 3) // 2}"] for i in range(1, 8)],
        )
        eff = write_csv(
            tmp_path / "eff.csv", ["arm", "endpoint_label", "value", "higher_is_better"],
            [["A", "x", "2.0", "true"], ["B", "x", "1.5", "true"]],
        )
        scenario = tmp_path / "scn.ini"
        scenario.write_text(
            "[scenario]\nseed = 4\n\n[arm A]\nprobs = 0.5 0.3 0.2\n"
            "episodes_per_subject = 2.0\nsubjects = 30\n"
        )
        commands = [
            ["summary", "--episodes", str(episodes), "--subjects", str(subjects)],
            ["compare", "--episodes", str(episodes), "--subjects", str(subjects)],
            ["subgroup", "--episodes", str(episodes), "--subjects", str(subjects),
             "--by", "sex,age"],
            ["soc", "--episodes", str(episodes), "--subjects", str(subjects),
             "--hierarchy", str(hierarchy)],
            ["drilldown", "--episodes", str(episodes), "--subjects", str(subjects),
             "--hierarchy", str(hierarchy), "--soc", "soc1"],
            ["hierarchy", "--episodes", str(episodes), "--subjects", str(subjects),
             "--hierarchy", str(hierarchy)],
            ["interim", "--episodes", str(episodes), "--subjects", str(subjects)],
            ["exposure", "--episodes", str(episodes), "--subjects", str(subjects)],
            ["benefit-risk", "--episodes", str(episodes), "--subjects", str(subjects),
             "--efficacy", str(eff), "--arms", "A,B",
             "--bootstrap", "250", "--seed", "3"],
            ["validate", "--scenario", str(scenario), "--check", "variance",
             "--replicates", "200"],
        ]
        for argv in commands:
            blobs = []
            for run_dir in ("r1", "r2"):
                out = tmp_path / run_dir / argv[0]
                code = cli_main(argv + ["--out", str(out), "--format", "json-lines"])
                capsys.readouterr()
                assert code == 0, argv[0]
                name = "benefit_risk" if argv[0] == "benefit-risk" else argv[0]
                blobs.append((out / f"{name}.jsonl").read_bytes())
            assert blobs[0] == blobs[1], argv[0]
