import math
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

from adx.data import TrialDataset, load_trial, write_trial
from adx.entropy import estimate
from adx.errors import DegenerateScenario, InvalidScenario
from adx.simulate import (
    ArmScenario,
    Scenario,
    _poisson,
    _replicate_draws,
    generate_trial,
    load_scenario,
    validate_normality,
    validate_variance,
)

from conftest import episode_records, record_profile


def one_arm(probs, rate=1.0, subjects=100, **kw):
    return Scenario(arms=(ArmScenario(name="A", probs=probs,
                                      episodes_per_subject=rate,
                                      n_subjects=subjects, **kw),), seed=7)


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        ArmScenario(name="A", probs=(0.5, 0.4), episodes_per_subject=1, n_subjects=10)
    with pytest.raises(InvalidScenario):
        ArmScenario(name="A", probs=(), episodes_per_subject=1, n_subjects=10)
    with pytest.raises(InvalidScenario):
        Scenario(arms=())


def test_probability_sum_tolerance_is_1e_12():
    # ten 0.1s sum to 1 within rounding; one of them 2e-12 larger does not
    assert ArmScenario(name="A", probs=(0.1,) * 10, episodes_per_subject=1.0, n_subjects=1)
    with pytest.raises(InvalidScenario):
        ArmScenario(name="A", probs=(0.1,) * 9 + (0.1 + 2e-12,), episodes_per_subject=1.0,
                    n_subjects=1)


@pytest.mark.parametrize("rate, draws", [(0.5, 20_000), (11.0, 20_000), (1000.0, 4_000)])
def test_poisson_mean_and_variance(rate, draws):
    # 1000 is drawn in two parts of 500; exp(-1000) underflows to 0.0, so an
    # unsplit inversion would return 1 every time. Tolerance: five standard
    # errors of the sample mean (rate / n) and variance ((2 rate^2 + rate) / n).
    random = Random(1).random
    counts = [_poisson(random, rate) for _ in range(draws)]
    mean = sum(counts) / draws
    var = sum((c - mean) ** 2 for c in counts) / (draws - 1)
    assert abs(mean - rate) <= 5 * math.sqrt(rate / draws)
    assert abs(var - rate) <= 5 * math.sqrt((2 * rate ** 2 + rate) / draws)


def test_poisson_zero_rate_draws_nothing():
    random = Random(2).random
    assert [_poisson(random, 0.0) for _ in range(10)] == [0] * 10


def test_cycles_are_geometric():
    # about 10,000 episodes; tolerance five standard errors, sqrt(1 - p) / p / sqrt(n)
    t = generate_trial(one_arm((1.0,), rate=5.0, subjects=2000, cycle_dropout=0.3))
    cycles = [e.cycle for e in episode_records(t.columns)]
    n = len(cycles)
    assert min(cycles) == 1
    assert abs(sum(cycles) / n - 1 / 0.3) <= 5 * math.sqrt(0.7) / 0.3 / math.sqrt(n)


def test_cycle_dropout_one_gives_cycle_one():
    t = generate_trial(one_arm((1.0,), rate=5.0, subjects=200, cycle_dropout=1.0))
    episodes = episode_records(t.columns)
    assert episodes and {e.cycle for e in episodes} == {1}


@pytest.mark.parametrize("span", [0, 3, 720])
def test_onsets_stay_within_span(span):
    t = generate_trial(one_arm((1.0,), rate=5.0, subjects=400, onset_span=span))
    onsets = {e.onset_day for e in episode_records(t.columns)}
    assert min(onsets) >= 0 and max(onsets) <= span
    if span <= 3:  # about 2000 draws: each of the span + 1 days comes up
        assert onsets == set(range(span + 1))


def test_zero_probability_type_is_never_drawn():
    t = generate_trial(one_arm((0.0, 0.5, 0.0, 0.5, 0.0), rate=5.0, subjects=400))
    assert {e.pt_term for e in episode_records(t.columns)} == {"ae_002", "ae_004"}


def test_simulated_episodes_are_byte_identical_across_runs_and_hash_seeds(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(
        "[scenario]\nseed = 9\n\n"
        "[arm A]\nprobs = 0.5 0.3 0.2\nepisodes_per_subject = 3.0\nsubjects = 50\n"
        "onset_span = 100\ncycle_dropout = 0.4\n\n"
        "[arm B]\nprobs = 0.1 0 0.9\nepisodes_per_subject = 2.0\nsubjects = 50\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    blobs = []
    for i, hash_seed in enumerate(("0", "0", "3")):
        out = tmp_path / f"out{i}"
        subprocess.run([sys.executable, "-m", "adx.cli", "simulate", "--scenario", str(scenario),
                        "--out", str(out)],
                       env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed),
                       capture_output=True, check=True, timeout=60)
        blobs.append((out / "episodes.csv").read_bytes())
    assert blobs[0].count(b"\n") > 100
    assert blobs[0] == blobs[1] == blobs[2]


def test_generate_zero_rate():
    t = generate_trial(one_arm((1.0,), rate=0.0, subjects=1))
    assert len(t.subjects) == 1
    assert len(episode_records(t.columns)) == 0


def test_generate_degenerate_one_type():
    t = generate_trial(one_arm((1.0,), rate=3.0, subjects=20))
    episodes = episode_records(t.columns)
    assert {e.pt_term for e in episodes} == {"ae_001"}
    assert estimate(record_profile(episodes)).adx == 0.0


def test_generate_reproducible():
    s = one_arm((0.5, 0.3, 0.2), rate=2.0, subjects=50, onset_span=200, cycle_dropout=0.4)
    t1, t2 = generate_trial(s), generate_trial(s)
    assert episode_records(t1.columns) == episode_records(t2.columns)
    assert t1.subjects == t2.subjects
    t3 = generate_trial(Scenario(arms=s.arms, seed=8))
    assert episode_records(t3.columns) != episode_records(t1.columns)


def test_generated_frequencies_match_truth():
    # K=50 non-uniform, N ~ 5000: per-type frequency within 3 binomial sd
    k = 50
    raw = np.arange(1, k + 1, dtype=float)
    probs = tuple(raw / raw.sum())
    t = generate_trial(one_arm(probs, rate=10.0, subjects=500))
    episodes = episode_records(t.columns)
    n = len(episodes)
    from collections import Counter
    counts = Counter(e.pt_term for e in episodes)
    outliers = 0
    for i, p in enumerate(probs):
        c = counts.get(f"ae_{i + 1:03d}", 0)
        sd = math.sqrt(n * p * (1 - p))
        assert abs(c - n * p) <= 4 * sd + 1
        if abs(c - n * p) > 3 * sd + 1:
            outliers += 1
    # with 50 types a single 3-sd excursion is within expectation
    assert outliers <= 1


def test_generated_dataset_loader_round_trip(tmp_path):
    s = one_arm((0.5, 0.3, 0.2), rate=2.0, subjects=40, onset_span=100, cycle_dropout=0.5)
    t = generate_trial(s)
    assert isinstance(t, TrialDataset)  # constructor enforces all invariants
    write_trial(t, tmp_path / "e.csv", tmp_path / "s.csv")
    t2 = load_trial(tmp_path / "e.csv", tmp_path / "s.csv")
    assert len(episode_records(t2.columns)) == len(episode_records(t.columns))
    assert len(t2.subjects) == len(t.subjects)


def test_validate_variance_uniform_flagged():
    rep = validate_variance(one_arm((0.25,) * 4, rate=5.0, subjects=100), replicates=50)
    assert rep.arms[0].degenerate


def test_validate_variance_matches_analytic():
    raw = np.arange(1, 51, dtype=float)
    probs = tuple(raw / raw.sum())
    rep = validate_variance(one_arm(probs, rate=10.0, subjects=500), replicates=1500)
    assert abs(rep.arms[0].sd_over_se - 1.0) < 0.05


def test_validate_variance_undersampled_bias_negative():
    # K=200, N=200: plug-in bias is negative, in the -(K-1)/(2N) direction
    probs = tuple([1.0 / 200] * 200)
    # not exactly uniform to avoid the degenerate flag
    raw = np.linspace(1, 2, 200)
    probs = tuple(raw / raw.sum())
    rep = validate_variance(one_arm(probs, rate=2.0, subjects=100), replicates=1000)
    av = rep.arms[0]
    assert av.bias < 0
    assert av.first_order_bias < 0
    assert av.bias == pytest.approx(av.first_order_bias, rel=0.5)


def test_true_value_recovery():
    raw = np.arange(1, 21, dtype=float)
    probs = tuple(raw / raw.sum())
    true_h = ArmScenario(name="A", probs=probs, episodes_per_subject=1,
                         n_subjects=1).true_adx()
    biases = []
    for subjects in (100, 1000, 10_000):
        rep = validate_variance(one_arm(probs, rate=1.0, subjects=subjects), replicates=400)
        biases.append(abs(rep.arms[0].bias))
    assert biases[0] > biases[1] > biases[2]
    assert biases[2] < 0.005
    assert abs(true_h - rep.arms[0].true_adx) < 1e-12


def test_validate_normality_large_n():
    raw = np.arange(1, 51, dtype=float)
    probs = tuple(raw / raw.sum())
    rep = validate_normality(one_arm(probs, rate=10.0, subjects=500), replicates=1500)
    assert rep.arms[0].ks_distance < 0.03


def test_validate_normality_uniform_raises():
    with pytest.raises(DegenerateScenario):
        validate_normality(one_arm((0.5, 0.5), rate=5.0, subjects=100), replicates=50)


def test_normality_seed_robustness():
    raw = np.arange(1, 21, dtype=float)
    probs = tuple(raw / raw.sum())
    arms = (ArmScenario(name="A", probs=probs, episodes_per_subject=5.0, n_subjects=200),)
    r1 = validate_normality(Scenario(arms=arms, seed=1), replicates=800)
    r2 = validate_normality(Scenario(arms=arms, seed=2), replicates=800)
    assert r1.arms[0].ks_distance == pytest.approx(r2.arms[0].ks_distance, abs=0.03)
    assert r1.arms[0].mean_adx == pytest.approx(r2.arms[0].mean_adx, abs=0.02)


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\nseed = 42\n\n"
        "[arm active]\nprobs = 0.5 0.3 0.2\nepisodes_per_subject = 2.0\nsubjects = 50\n"
        "onset_span = 300\ncycle_dropout = 0.4\n\n"
        "[arm placebo]\nprobs = 0.6, 0.4\nsubjects = 50\n"
    )
    s = load_scenario(path)
    assert s.seed == 42
    assert [a.name for a in s.arms] == ["active", "placebo"]
    assert s.arms[0].onset_span == 300
    assert s.arms[1].probs == (0.6, 0.4)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(InvalidScenario):
        load_scenario(tmp_path / "nope.ini")


ARM = b"[arm A]\nprobs = 0.5 0.5\n"


@pytest.mark.parametrize("text,reason", [
    (b"subjects = 3\n" + ARM, "File contains no section headers. file: '{path}', line: 1"),
    (ARM + ARM, "While reading from '{path}' [line 3]: section 'arm A' already exists"),
    (ARM + b"probs = 1\n",
     "While reading from '{path}' [line 3]: option 'probs' in section 'arm A' already exists"),
    (ARM + b"subjects = %(x)s\n", "[arm A] subjects: Bad value substitution: option 'subjects'"),
    (ARM + b"# caf\xe9\n", "'utf-8' codec can't decode byte 0xe9"),
    (ARM + b"subjects = -1.5\n",
     "[arm A] subjects: invalid literal for int() with base 10: '-1.5'"),
    (ARM + b"episodes_per_subject = two\n",
     "[arm A] episodes_per_subject: could not convert string to float: 'two'"),
    (b"[scenario]\nseed = 1e3\n" + ARM,
     "[scenario] seed: invalid literal for int() with base 10: '1e3'"),
])
def test_a_scenario_file_that_does_not_parse_names_the_file(tmp_path, text, reason):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    with pytest.raises(InvalidScenario) as raised:
        load_scenario(path)
    message = str(raised.value)
    assert message.startswith(f"scenario file {path}: {reason.format(path=path)}")
    assert "\n" not in message


def test_shape_diagnostics_match_scipy_oracle():
    from scipy import stats

    raw = np.arange(1, 41, dtype=float)
    arms = tuple(ArmScenario(name=name, probs=tuple(w / w.sum()), episodes_per_subject=rate,
                             n_subjects=150)
                 for name, w, rate in (("A", raw, 3.0), ("B", raw ** -1.2, 1.0)))
    scenario = Scenario(arms=arms, seed=4)
    rep = validate_normality(scenario, 600)
    draws = _replicate_draws(arms, 4, 600)
    for av in rep.arms:
        adxs = draws[av.arm][0]
        z = (adxs - adxs.mean()) / adxs.std(ddof=1)
        assert math.isclose(av.skew, float(stats.skew(z)), rel_tol=1e-12)
        assert math.isclose(av.excess_kurtosis, float(stats.kurtosis(z)), rel_tol=1e-12)
        assert math.isclose(av.ks_distance, float(stats.kstest(z, "norm").statistic),
                            rel_tol=1e-12)


def test_validate_normality_constant_replicates_raise():
    # one episode per replicate: every replicate's adx is 0, so z is undefined
    with pytest.raises(DegenerateScenario, match="same adx"):
        validate_normality(one_arm((0.9, 0.1), rate=1.0, subjects=1), replicates=20)
