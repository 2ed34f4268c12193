import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adx.data import HierarchyMap
from adx.entropy import (
    FrequencyProfile,
    adx,
    adx_variance,
    compare,
    eals,
    estimate,
    normal_cdf,
    profile_from_episodes,
    seals,
)
from adx.errors import DegenerateVariance, EmptyProfile, MissingHierarchy

from conftest import dataset_from_counts, estimate_from_stats, ordered_adx, ordered_adx_variance

counts_strategy = st.dictionaries(
    st.text(alphabet="abcdefghij", min_size=1, max_size=3),
    st.integers(min_value=0, max_value=500),
    min_size=1,
    max_size=10,
).filter(lambda d: sum(d.values()) > 0)


def profile(*counts):
    return FrequencyProfile({f"t{i}": c for i, c in enumerate(counts)})


# --- point estimate ---------------------------------------------------------

def test_adx_extreme_evenness():
    assert round(adx(profile(20, 20, 20, 20, 20)), 2) == 1.61


def test_adx_extreme_unevenness():
    assert round(adx(profile(1, 1, 1, 1, 96)), 2) == 0.22


def test_adx_intermediate():
    assert round(adx(profile(1, 3, 6, 10, 80)), 2) == 0.73


def test_adx_four_type_example():
    assert round(adx(profile(81, 7, 6, 6)), 2) == 0.69


def test_adx_single_type_is_zero():
    assert adx(profile(17)) == 0.0
    assert adx(profile(1)) == 0.0


def test_adx_single_type_is_positive_zero():
    # -0.0 == 0.0, so only the sign bit shows it; reports would print "-0.00"
    assert math.copysign(1.0, adx(profile(17))) == 1.0
    assert adx(profile(81, 7, 6, 6)) == -sum(
        (c / 100) * math.log(c / 100) for c in (81, 7, 6, 6)
    )


def test_adx_two_even_types_is_ln2():
    assert adx(profile(50, 50)) == pytest.approx(math.log(2), abs=0)


def test_empty_profile_raises():
    with pytest.raises(EmptyProfile):
        adx(FrequencyProfile({}))
    with pytest.raises(EmptyProfile):
        adx_variance(FrequencyProfile({"a": 0}))


def test_zero_counts_excluded_from_k():
    p = FrequencyProfile({"a": 3, "b": 0, "c": 1})
    assert p.n_types == 2
    assert p.n_total == 4


# --- variance ---------------------------------------------------------------

def test_variance_uniform_is_zero():
    assert adx_variance(profile(20, 20, 20, 20, 20)) == pytest.approx(0.0, abs=1e-15)


def test_variance_golden_four_types():
    # frozen from a high-precision term-by-term evaluation (mpmath, 30 digits)
    v = adx_variance(profile(81, 7, 6, 6))
    assert v == pytest.approx(0.009985677451820286, rel=1e-12)
    assert math.sqrt(v) == pytest.approx(0.0999, abs=5e-5)


def test_variance_golden_two_types():
    v = adx_variance(profile(96, 4))
    assert v == pytest.approx(0.0038784100410582715, rel=1e-12)
    assert math.sqrt(v) == pytest.approx(0.0623, abs=5e-5)


def test_variance_monte_carlo_cross_check():
    # sd of adx over multinomial resamples of N=100 at p-hat (96, 4)
    rng = np.random.default_rng(42)
    draws = rng.multinomial(100, [0.96, 0.04], size=100_000)
    vals = np.empty(len(draws))
    for i, row in enumerate(draws):
        p = row[row > 0] / 100.0
        vals[i] = -(p * np.log(p)).sum()
    assert vals.std(ddof=1) == pytest.approx(0.0623, rel=0.05)


# --- transforms -------------------------------------------------------------

def test_eals_goldens():
    assert round(eals(3.64)) == 38
    assert eals(3.64) == pytest.approx(38.09, abs=0.005)
    assert round(eals(4.16)) == 64
    assert eals(0.0) == 1.0


def test_eals_of_a_negative_index_is_a_value_error():
    with pytest.raises(ValueError, match="^adx_value must be >= 0$"):
        eals(-0.1)


def test_seals_goldens():
    a = estimate_from_stats(4.25, 0.0, 95)
    assert seals(a) == pytest.approx(0.74, abs=0.01)
    b = estimate_from_stats(3.69, 0.0, 105)
    assert seals(b) == pytest.approx(0.38, abs=0.01)


def test_seals_uniform_profile_is_one():
    est = estimate(profile(10, 10, 10))
    assert est.seals == pytest.approx(1.0)
    assert est.eals == pytest.approx(3.0)


# --- comparison -------------------------------------------------------------

def test_compare_golden_el_trial():
    a = estimate_from_stats(3.64, 0.0079, 187)
    b = estimate_from_stats(3.48, 0.0086, 178)
    r = compare(a, b)
    assert r.diff == pytest.approx(0.16, abs=1e-12)
    assert r.se_diff == pytest.approx(0.0117, abs=1e-4)
    assert r.z == pytest.approx(13.67, abs=0.05)
    assert r.direction == "t1_less_safe"


def test_compare_identical():
    a = estimate(profile(30, 20, 10))
    r = compare(a, a)
    assert r.diff == 0.0
    assert r.z == 0.0
    assert r.p_value == 1.0
    assert r.direction == "no_difference"


def test_compare_reported_band():
    a = estimate_from_stats(4.38, 0.0654, 100)
    b = estimate_from_stats(3.97, 0.0793, 100)
    r = compare(a, b)
    assert r.z == pytest.approx(3.99, abs=0.02)
    assert r.p_value < 0.001


def test_compare_degenerate():
    a = estimate(profile(10, 10))
    b = estimate(profile(7, 7, 7))
    with pytest.raises(DegenerateVariance):
        compare(a, b)


def test_se_diff_pythagorean():
    a = estimate(profile(30, 20, 10))
    b = estimate(profile(5, 1, 1, 1))
    r = compare(a, b)
    assert r.se_diff ** 2 == pytest.approx(a.se ** 2 + b.se ** 2, abs=1e-12)


def test_one_sided_is_half_two_sided():
    a = estimate(profile(30, 20, 10))
    b = estimate(profile(5, 1, 1, 1))
    assert compare(a, b, two_sided=False).p_value == pytest.approx(
        compare(a, b).p_value / 2
    )


# --- profiles from episodes -------------------------------------------------

def _eps(counts, arm="A"):
    """The coded PT terms of ``counts`` episodes of one arm, the cell an analysis tallies."""
    return dataset_from_counts({arm: counts}).columns.pt_term


def test_profile_pt_level():
    p = profile_from_episodes(_eps({"a": 3, "b": 1}))
    assert p.counts == {"a": 3, "b": 1}
    assert p.n_total == 4
    assert p.n_types == 2


def test_profile_hlt_rollup():
    h = HierarchyMap({"a": ("h1", "g", "s"), "b": ("h1", "g", "s"), "c": ("h2", "g", "s")})
    trial = dataset_from_counts({"A": {"a": 2, "b": 3, "c": 5}}, h)
    assert trial.terms_at("hlt") == ["h1", "h1", "h2"]
    p = profile_from_episodes(trial.columns.pt_term, trial.terms_at("hlt"))
    assert p.counts == {"h1": 5, "h2": 5}


def test_profile_level_needs_hierarchy():
    trial = dataset_from_counts({"A": {"a": 1}})
    assert trial.terms_at("pt") == ["a"]
    for level in ("hlt", "hlgt", "soc"):
        with pytest.raises(MissingHierarchy, match="^this analysis needs a hierarchy mapping"):
            trial.terms_at(level)
    with pytest.raises(ValueError, match="level must be one of"):
        trial.terms_at("llt")


def test_empty_episode_list_fails_downstream():
    with pytest.raises(EmptyProfile):
        adx(profile_from_episodes(_eps({})))


# --- invariants (property tests) ----------------------------------------------

@given(counts_strategy)
def test_bounds(counts):
    p = FrequencyProfile(counts)
    h = adx(p)
    assert -1e-12 <= h <= math.log(p.n_types) + 1e-12


@given(counts_strategy)
def test_permutation_invariance(counts):
    p = FrequencyProfile(counts)
    relabeled = FrequencyProfile({f"x{i}": c for i, c in enumerate(counts.values())})
    assert adx(p) == pytest.approx(adx(relabeled), abs=1e-12)
    assert adx_variance(p) == pytest.approx(adx_variance(relabeled), abs=1e-12)


@given(counts_strategy, st.integers(min_value=2, max_value=9))
def test_count_scaling(counts, factor):
    p = FrequencyProfile(counts)
    scaled = FrequencyProfile({k: c * factor for k, c in counts.items()})
    assert adx(scaled) == pytest.approx(adx(p), abs=1e-12)
    assert adx_variance(scaled) == pytest.approx(adx_variance(p) / factor, rel=1e-9)


@given(counts_strategy)
def test_merging_never_increases(counts):
    p = FrequencyProfile(counts)
    if p.n_types < 2:
        return
    labels = sorted(p.counts)
    merged = dict(p.counts)
    merged[labels[0]] += merged.pop(labels[1])
    assert adx(FrequencyProfile(merged)) <= adx(p) + 1e-12


@given(counts_strategy)
def test_uniform_maximizes_at_fixed_k(counts):
    p = FrequencyProfile(counts)
    uniform = FrequencyProfile({k: 1 for k in p.counts})
    assert adx(p) <= adx(uniform) + 1e-12


@given(counts_strategy)
def test_unevening_move_never_increases(counts):
    # move one unit from a smaller-count type to a larger-count type
    p = FrequencyProfile(counts)
    if p.n_types < 2:
        return
    ordered = sorted(p.counts, key=p.counts.get)
    lo, hi = ordered[0], ordered[-1]
    if p.counts[lo] == p.counts[hi]:
        return
    moved = dict(p.counts)
    moved[lo] -= 1
    moved[hi] += 1
    assert adx(FrequencyProfile(moved)) <= adx(p) + 1e-12


# --- the fsum kernel against the ordered-sum oracle ------------------------------

@given(counts_strategy)
def test_fsum_kernel_matches_ordered_sum_oracle(counts):
    p = FrequencyProfile(counts)
    assert adx(p) == pytest.approx(ordered_adx(counts.values()), rel=1e-12, abs=0.0)
    assert adx_variance(p) == pytest.approx(ordered_adx_variance(counts.values()), rel=1e-12, abs=0.0)
    est = estimate(p)
    assert (est.adx, est.variance) == (adx(p), adx_variance(p))


@given(counts_strategy.flatmap(lambda d: st.tuples(st.just(d), st.permutations(list(d.items())))))
def test_every_order_of_the_counts_gives_a_bit_identical_estimate(case):
    counts, reordered = case
    assert estimate(FrequencyProfile(dict(reordered))) == estimate(FrequencyProfile(counts))


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=50))
def test_kernel_single_type_and_equal_counts_are_exact(count, k):
    single = estimate(FrequencyProfile({"only": count}))
    assert single.adx == 0.0 and math.copysign(1.0, single.adx) == 1.0
    assert single.variance == 0.0
    even = FrequencyProfile({f"t{i}": count for i in range(k)})
    assert adx_variance(even) == 0.0
    assert estimate(even).se == 0.0


@settings(max_examples=50)
@given(counts_strategy, counts_strategy)
def test_compare_antisymmetry(ca, cb):
    a, b = estimate(FrequencyProfile(ca)), estimate(FrequencyProfile(cb))
    try:
        ab = compare(a, b)
        ba = compare(b, a)
    except DegenerateVariance:
        return
    assert ab.diff == pytest.approx(-ba.diff, abs=1e-12)
    assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)


def test_normal_tail_matches_scipy_oracle():
    from scipy.stats import norm

    # a fine grid over both branches, the branch point z = 1 and the
    # underflow edge near z = 37.68, where scipy flushes the tail to 0
    zs = np.concatenate([np.linspace(0.0, 38.0, 38_001), [1.0 - 1e-15, 1.0, 37.6768, 37.6769]])
    for z, theirs in zip(zs.tolist(), norm.sf(zs).tolist()):
        assert math.isclose(normal_cdf(-z), theirs, rel_tol=1e-12), (z, normal_cdf(-z), theirs)
    xs = np.linspace(-9.0, 9.0, 1801)
    for x, theirs in zip(xs.tolist(), norm.cdf(xs).tolist()):
        assert math.isclose(normal_cdf(x), theirs, rel_tol=1e-12), x


def test_compare_p_value_matches_scipy_oracle():
    from scipy.stats import norm

    a = estimate(profile(30, 20, 10))
    b = estimate(profile(5, 1, 1, 1))
    r = compare(a, b)
    assert math.isclose(r.p_value, 2.0 * float(norm.sf(abs(r.z))), rel_tol=1e-12)
    assert math.isclose(compare(a, b, two_sided=False).p_value, float(norm.sf(abs(r.z))),
                        rel_tol=1e-12)
