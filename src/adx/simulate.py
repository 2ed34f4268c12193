"""Synthetic trial generation and empirical validation of the estimator.

Episode counts per subject are Poisson at the arm rate and AE types are
drawn iid from the arm's true probability vector, which is exactly the
multinomial sampling model under which the asymptotic variance formula is
derived. Replicate r of any validation run draws from the stream seeded
by (scenario seed, r), so aggregation is order-independent.
"""
from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import AeEpisode, SubjectRecord, TrialDataset
from .entropy import normal_cdf
from .errors import DegenerateScenario, InvalidScenario
from .kernel import entropy_and_variance


class _ArmScenarioFields(NamedTuple):
    name: str
    probs: tuple[float, ...]
    episodes_per_subject: float
    n_subjects: int
    onset_span: int | None  # onset days uniform over [0, span]
    cycle_dropout: float | None  # per-cycle geometric continuation failure


class ArmScenario(_ArmScenarioFields):
    __slots__ = ()

    def __new__(cls, name: str, probs: tuple[float, ...], episodes_per_subject: float,
                n_subjects: int, onset_span: int | None = None, cycle_dropout: float | None = None):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise InvalidScenario(f"arm {name!r}: empty probability vector")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise InvalidScenario(f"arm {name!r}: probabilities must be >= 0 and sum to 1")
        if episodes_per_subject < 0:
            raise InvalidScenario(f"arm {name!r}: negative episode rate")
        if n_subjects < 1:
            raise InvalidScenario(f"arm {name!r}: need at least one subject")
        if cycle_dropout is not None and not 0.0 < cycle_dropout <= 1.0:
            raise InvalidScenario(f"arm {name!r}: cycle_dropout must be in (0, 1]")
        return tuple.__new__(cls, (name, probs, episodes_per_subject, n_subjects, onset_span,
                                   cycle_dropout))

    def true_adx(self) -> float:
        p = np.asarray(self.probs)
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())


class _ScenarioFields(NamedTuple):
    arms: tuple[ArmScenario, ...]
    seed: int


class Scenario(_ScenarioFields):
    __slots__ = ()

    def __new__(cls, arms: tuple[ArmScenario, ...], seed: int = 0):
        if not arms:
            raise InvalidScenario("scenario needs at least one arm")
        names = [a.name for a in arms]
        if len(names) != len(set(names)):
            raise InvalidScenario("duplicate arm names")
        return tuple.__new__(cls, (arms, seed))


def load_scenario(path: str | Path) -> Scenario:
    """Parse the scenario file: one [arm NAME] section per arm plus a
    [scenario] section holding the seed. ``probs`` is a whitespace- or
    comma-separated list."""
    cfg = configparser.ConfigParser()
    read = cfg.read(path)
    if not read:
        raise InvalidScenario(f"cannot read scenario file {path}")
    seed = cfg.getint("scenario", "seed", fallback=0)
    arms = []
    for section in cfg.sections():
        if not section.startswith("arm "):
            continue
        name = section[4:].strip()
        raw = cfg.get(section, "probs", fallback="")
        try:
            probs = tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError:
            raise InvalidScenario(f"arm {name!r}: unparseable probs list")
        kwargs = {}
        if cfg.has_option(section, "onset_span"):
            kwargs["onset_span"] = cfg.getint(section, "onset_span")
        if cfg.has_option(section, "cycle_dropout"):
            kwargs["cycle_dropout"] = cfg.getfloat(section, "cycle_dropout")
        arms.append(
            ArmScenario(
                name=name,
                probs=probs,
                episodes_per_subject=cfg.getfloat(section, "episodes_per_subject", fallback=1.0),
                n_subjects=cfg.getint(section, "subjects", fallback=100),
                **kwargs,
            )
        )
    if not arms:
        raise InvalidScenario(f"no [arm NAME] sections in {path}")
    return Scenario(arms=tuple(arms), seed=seed)


def type_label(i: int) -> str:
    return f"ae_{i + 1:03d}"


def generate_trial(scenario: Scenario) -> TrialDataset:
    """Draw one synthetic TrialDataset; deterministic given the seed."""
    rng = np.random.default_rng(scenario.seed)
    subjects: list[SubjectRecord] = []
    episodes: list[AeEpisode] = []
    sid = 0
    for arm in scenario.arms:
        for _ in range(arm.n_subjects):
            sid += 1
            subject_id = f"S{sid:05d}"
            subjects.append(SubjectRecord(subject_id=subject_id, arm=arm.name))
            n_ep = int(rng.poisson(arm.episodes_per_subject))
            if n_ep == 0:
                continue
            types = rng.choice(len(arm.probs), size=n_ep, p=arm.probs)
            onsets = (
                rng.integers(0, arm.onset_span + 1, size=n_ep)
                if arm.onset_span is not None
                else [None] * n_ep
            )
            cycles = (
                rng.geometric(arm.cycle_dropout, size=n_ep)
                if arm.cycle_dropout is not None
                else [None] * n_ep
            )
            for t, onset, cyc in zip(types, onsets, cycles):
                episodes.append(
                    AeEpisode(
                        subject_id=subject_id,
                        arm=arm.name,
                        pt_term=type_label(int(t)),
                        onset_day=None if onset is None else int(onset),
                        cycle=None if cyc is None else int(cyc),
                    )
                )
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes))


class ArmValidation(NamedTuple):
    arm: str
    true_adx: float
    replicates: int
    mean_adx: float
    sd_adx: float
    mean_analytic_se: float
    sd_over_se: float | None  # None when every replicate's analytic se is 0
    bias: float
    first_order_bias: float  # -(K-1)/(2N), the leading plug-in bias term
    degenerate: bool
    skew: float | None = None
    excess_kurtosis: float | None = None
    ks_distance: float | None = None


class ValidationReport(NamedTuple):
    scenario: Scenario
    replicates: int
    arms: list[ArmValidation]


Draws = dict[str, tuple[np.ndarray, np.ndarray]]


def _replicate_draws(arm: ArmScenario, seed: int, replicates: int) -> tuple[np.ndarray, np.ndarray]:
    """adx and analytic se per replicate, via direct multinomial draws on
    the arm's expected total episode count (the model generate_trial uses,
    with the Poisson subject layer marginalized out)."""
    adxs = np.empty(replicates)
    ses = np.empty(replicates)
    n_total = max(1, round(arm.n_subjects * arm.episodes_per_subject))
    probs = np.asarray(arm.probs)
    for r in range(replicates):
        rng = np.random.default_rng([seed, r])
        adxs[r], variance = entropy_and_variance(rng.multinomial(n_total, probs))
        ses[r] = math.sqrt(variance)
    return adxs, ses


def _scenario_draws(scenario: Scenario, replicates: int, draws: Draws | None) -> Draws:
    """Per arm name, the replicate adx and se vectors: taken from ``draws``
    where present, else drawn and added to it."""
    draws = {} if draws is None else draws
    for arm in scenario.arms:
        if arm.name not in draws:
            draws[arm.name] = _replicate_draws(arm, scenario.seed, replicates)
    return draws


def _is_uniform(probs: tuple[float, ...]) -> bool:
    p = np.asarray(probs)
    p = p[p > 0]
    return bool(np.allclose(p, p[0]))


def _arm_validation(arm: ArmScenario, adxs: np.ndarray, ses: np.ndarray,
                    degenerate: bool, **shape) -> ArmValidation:
    sd = float(adxs.std(ddof=1))
    mean_se = float(ses.mean())
    true_h = arm.true_adx()
    k = int(np.count_nonzero(np.asarray(arm.probs)))
    n_total = max(1, round(arm.n_subjects * arm.episodes_per_subject))
    return ArmValidation(
        arm=arm.name,
        true_adx=true_h,
        replicates=len(adxs),
        mean_adx=float(adxs.mean()),
        sd_adx=sd,
        mean_analytic_se=mean_se,
        sd_over_se=sd / mean_se if mean_se > 0 else None,
        bias=float(adxs.mean() - true_h),
        first_order_bias=-(k - 1) / (2.0 * n_total),
        degenerate=degenerate,
        **shape,
    )


def validate_variance(scenario: Scenario, replicates: int = 1000,
                      draws: Draws | None = None) -> ValidationReport:
    """Compare the empirical sd of adx across replicates with the mean
    analytic se; flags the uniform (zero-variance) regime instead of
    computing a meaningless ratio. ``draws`` is a dict that carries the
    replicate draws from one check to the next, for the same scenario and
    replicate count: arms missing from it are drawn and added."""
    if replicates < 2:
        raise InvalidScenario("need at least 2 replicates")
    draws = _scenario_draws(scenario, replicates, draws)
    arms = [_arm_validation(arm, *draws[arm.name], _is_uniform(arm.probs)) for arm in scenario.arms]
    return ValidationReport(scenario, replicates, arms)


def _shape_diagnostics(z: np.ndarray) -> dict[str, float]:
    """Skew and excess kurtosis of ``z`` (biased moment estimators, as
    scipy.stats uses by default) and its Kolmogorov-Smirnov distance from
    the standard normal."""
    d = z - z.mean()
    d2 = d ** 2
    m2 = d2.mean()
    x = np.sort(z)
    n = len(x)
    cdf = np.array([normal_cdf(v) for v in x.tolist()])
    ks = max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max())
    return {"skew": float((d2 * d).mean() / m2 ** 1.5),
            "excess_kurtosis": float((d2 ** 2).mean() / m2 ** 2.0 - 3.0),
            "ks_distance": float(ks)}


def validate_normality(scenario: Scenario, replicates: int = 1000,
                       draws: Draws | None = None, flag_uniform: bool = False) -> ValidationReport:
    """Standardize replicate adx values and report shape diagnostics
    (skew, excess kurtosis, KS distance from the standard normal).
    ``draws`` as in ``validate_variance``. An arm with a uniform true
    vector has zero asymptotic variance: it raises DegenerateScenario, or
    with ``flag_uniform`` gets a ``degenerate`` record without diagnostics."""
    if replicates < 2:
        raise InvalidScenario("need at least 2 replicates")
    uniform = {arm.name for arm in scenario.arms if _is_uniform(arm.probs)}
    for arm in scenario.arms:
        if arm.name in uniform and not flag_uniform:
            raise DegenerateScenario(
                f"arm {arm.name!r}: uniform true vector has zero asymptotic variance"
            )
    draws = _scenario_draws(scenario, replicates, draws)
    arms = []
    for arm in scenario.arms:
        adxs, ses = draws[arm.name]
        if arm.name in uniform:
            arms.append(_arm_validation(arm, adxs, ses, True))
            continue
        sd = float(adxs.std(ddof=1))
        if sd == 0.0:
            raise DegenerateScenario(
                f"arm {arm.name!r}: every replicate has the same adx; nothing to standardize"
            )
        z = (adxs - adxs.mean()) / sd
        arms.append(_arm_validation(arm, adxs, ses, False, **_shape_diagnostics(z)))
    return ValidationReport(scenario, replicates, arms)
