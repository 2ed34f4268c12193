"""The numpy kernel against the pure-Python estimator it replaces in the
resampling loops."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adx.entropy import FrequencyProfile, adx, adx_variance
from adx.kernel import adx as adx_of_counts
from adx.kernel import entropy_and_variance
from adx.simulate import ArmScenario, _replicate_draws, type_label

# Counts stay at or below 1000: on near-uniform vectors with counts in the
# millions, ln p + adx cancels to a few digits in both implementations.
count_vectors = st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                         max_size=50).filter(any)


@given(count_vectors)
def test_kernel_matches_pure_python(counts):
    prof = FrequencyProfile({f"t{i}": c for i, c in enumerate(counts)})
    h, v = entropy_and_variance(np.array(counts))
    assert h == pytest.approx(adx(prof), rel=1e-12, abs=0.0)
    assert v == pytest.approx(adx_variance(prof), rel=1e-12, abs=0.0)


def test_kernel_single_type_is_positive_zero():
    h, v = entropy_and_variance(np.array([0, 7, 0]))
    assert h == 0.0 and math.copysign(1.0, h) == 1.0
    assert v == 0.0


def test_kernel_equal_counts_have_zero_variance():
    for counts in ([3, 3, 3], [0, 5, 5, 0, 5, 5, 5, 5, 5], [1] * 7):
        h, v = entropy_and_variance(np.array(counts))
        assert v == 0.0
        assert h == pytest.approx(math.log(np.count_nonzero(counts)), rel=1e-15)


def _reference_draws(arm, seed, replicates):
    """The per-replicate loop over ``ae_NNN`` profiles that ``_replicate_draws`` replaced."""
    adxs, ses = np.empty(replicates), np.empty(replicates)
    n_total = max(1, round(arm.n_subjects * arm.episodes_per_subject))
    for r in range(replicates):
        counts = np.random.default_rng([seed, r]).multinomial(n_total, np.asarray(arm.probs))
        prof = FrequencyProfile({type_label(i): int(c) for i, c in enumerate(counts) if c > 0})
        adxs[r] = adx(prof)
        ses[r] = math.sqrt(adx_variance(prof))
    return adxs, ses


def test_replicate_draws_match_reference_on_pareto_arm():
    w = np.arange(1, 401, dtype=float) ** -1.1
    arm = ArmScenario(name="A", probs=tuple(w / w.sum()), episodes_per_subject=3.0,
                      n_subjects=1200)
    adxs, ses = _replicate_draws(arm, 11, 150)
    ref_adxs, ref_ses = _reference_draws(arm, 11, 150)
    np.testing.assert_allclose(adxs, ref_adxs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ses, ref_ses, rtol=1e-12, atol=0)


@given(count_vectors)
def test_adx_alone_is_the_kernel_adx(counts):
    counts = np.array(counts)
    h = adx_of_counts(counts)
    assert h == entropy_and_variance(counts)[0]
    assert math.copysign(1.0, h) == 1.0
