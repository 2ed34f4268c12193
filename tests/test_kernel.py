"""The numpy kernel against the pure-Python estimator it replaces in the
resampling loops, and the replicate helper on any number of workers."""
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adx import kernel
from adx.entropy import FrequencyProfile, adx, adx_variance
from adx.kernel import adx as adx_of_counts
from adx.kernel import entropy_and_variance
from adx.simulate import ArmScenario, _replicate_draws, type_label

from conftest import run_on_cpus

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


@pytest.mark.parametrize("cpus, replicates, forks", [
    (1, 301, 0), (2, 301, 1), (3, 301, 2),  # 301 splits unevenly on 2 and 3 workers
    (2, 150, 0), (3, 150, 0),  # below two shares of MIN_SHARE: no fork
])
def test_replicate_draws_match_reference_on_pareto_arm(cpus, replicates, forks):
    w = np.arange(1, 401, dtype=float) ** -1.1
    arms = (ArmScenario(name="A", probs=tuple(w / w.sum()), episodes_per_subject=3.0,
                        n_subjects=1200),
            ArmScenario(name="B", probs=(0.5, 0.3, 0.2), episodes_per_subject=2.0, n_subjects=40))
    draws, [rows], forked = run_on_cpus(cpus, _replicate_draws, arms, 11, replicates)
    assert forked == forks
    draws_one, [rows_one], _ = run_on_cpus(1, _replicate_draws, arms, 11, replicates)
    assert np.array_equal(rows, rows_one)
    for arm in arms:
        adxs, ses = draws[arm.name]
        assert np.array_equal(adxs, draws_one[arm.name][0])
        assert np.array_equal(ses, draws_one[arm.name][1])
        ref_adxs, ref_ses = _reference_draws(arm, 11, replicates)
        np.testing.assert_allclose(adxs, ref_adxs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ses, ref_ses, rtol=1e-12, atol=0)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_replicates_are_rows_of_fn_and_leave_no_worker():
    rows, _, forks = run_on_cpus(3, kernel.replicates, lambda r: (r, -0.5 * r), 301, 2)
    assert forks == 2
    assert np.array_equal(rows, np.array([(r, -0.5 * r) for r in range(301)]))
    _no_children_left()


def _fails_from(first):
    """A replicate function that fails in replicate ``first`` and after."""
    def fn(r):
        if r >= first:
            raise ValueError(f"replicate {r}")
        return (float(r),)
    return fn


def _exits_quietly(r):
    """A replicate function whose worker leaves, status 0, before sending its rows."""
    if r == 250:
        os._exit(0)
    return (float(r),)


def _is_killed(r):
    """A replicate function whose worker is killed by a signal."""
    if r == 250:
        os.kill(os.getpid(), signal.SIGKILL)
    return (float(r),)


@pytest.mark.parametrize("fn", [_fails_from(250), _exits_quietly, _is_killed],
                         ids=["raises", "short", "killed"])
def test_a_failed_worker_raises_and_is_reaped(fn):
    # replicate 250 is in the last of three shares of 300
    with pytest.raises(RuntimeError, match="replicate worker .* failed"):
        run_on_cpus(3, kernel.replicates, fn, 300, 1)
    _no_children_left()


def test_a_failure_in_the_parent_kills_every_worker():
    with pytest.raises(ValueError, match="replicate 0"):
        run_on_cpus(3, kernel.replicates, _fails_from(0), 300, 1)
    _no_children_left()


@given(count_vectors)
def test_adx_alone_is_the_kernel_adx(counts):
    counts = np.array(counts)
    h = adx_of_counts(counts)
    assert h == entropy_and_variance(counts)[0]
    assert math.copysign(1.0, h) == 1.0
