"""Synthetic trial generation and empirical validation of the estimator.

Episode counts per subject are Poisson at the arm rate and AE types are
drawn iid from the arm's true probability vector, which is exactly the
multinomial sampling model under which the asymptotic variance formula is
derived. ``generate_trial`` draws every variate from the
``random.Random(seed).random()`` stream, which Python keeps the same across
versions, so it loads no numpy; it checks each AE-type label once and builds
the episodes from columns. The Monte Carlo validation draws replicate r from
numpy's stream seeded by (scenario seed, r), so aggregation is
order-independent and the same on any number of workers; its functions
import numpy when first called.
"""
from __future__ import annotations

import configparser
import math
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from random import Random
from typing import TYPE_CHECKING, NamedTuple

from .data import AeEpisode, SubjectRecord, TrialDataset
from .entropy import normal_cdf
from .errors import DegenerateScenario, InvalidScenario

if TYPE_CHECKING:
    import numpy as np


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
        if not probs:
            raise InvalidScenario(f"arm {name!r}: empty probability vector")
        if not (all(p >= 0 for p in probs) and abs(math.fsum(probs) - 1.0) <= 1e-12):
            raise InvalidScenario(f"arm {name!r}: probabilities must be >= 0 and sum to 1")
        if episodes_per_subject < 0:
            raise InvalidScenario(f"arm {name!r}: negative episode rate")
        if not math.isfinite(episodes_per_subject):
            raise InvalidScenario(f"arm {name!r}: episode rate must be finite")
        if n_subjects < 1:
            raise InvalidScenario(f"arm {name!r}: need at least one subject")
        if onset_span is not None and onset_span < 0:
            raise InvalidScenario(f"arm {name!r}: onset_span must be >= 0")
        if cycle_dropout is not None and not 0.0 < cycle_dropout <= 1.0:
            raise InvalidScenario(f"arm {name!r}: cycle_dropout must be in (0, 1]")
        return tuple.__new__(cls, (name, probs, episodes_per_subject, n_subjects, onset_span,
                                   cycle_dropout))

    def true_adx(self) -> float:
        import numpy as np

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
        if seed < 0:
            raise InvalidScenario(f"scenario seed must be >= 0, got {seed}")
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
        arms.append(ArmScenario(
            name=name,
            probs=probs,
            episodes_per_subject=cfg.getfloat(section, "episodes_per_subject", fallback=1.0),
            n_subjects=cfg.getint(section, "subjects", fallback=100),
            onset_span=cfg.getint(section, "onset_span", fallback=None),
            cycle_dropout=cfg.getfloat(section, "cycle_dropout", fallback=None),
        ))
    if not arms:
        raise InvalidScenario(f"no [arm NAME] sections in {path}")
    return Scenario(arms=tuple(arms), seed=seed)


def type_label(i: int) -> str:
    return f"ae_{i + 1:03d}"


# A Poisson rate above this is drawn as a sum of parts of at most this rate,
# so exp(-part) stays far from underflow.
_POISSON_PART = 500.0


def _poisson(random, rate: float) -> int:
    """A Poisson(rate) count by inversion of the cdf, one ``random()`` per part."""
    n = 0
    while rate > 0:
        part = min(rate, _POISSON_PART)
        rate -= part
        u = random()
        k = 0
        p = cdf = math.exp(-part)
        while u > cdf:
            k += 1
            p *= part / k
            if cdf + p == cdf:  # the float sum can stop short of u: end the loop here
                break
            cdf += p
        n += k
    return n


def generate_trial(scenario: Scenario) -> TrialDataset:
    """Draw one synthetic TrialDataset; deterministic given the seed.

    Every variate comes from ``random.Random(seed).random()``. Per subject,
    in arm order: the Poisson episode count, then per episode its AE type
    (``bisect`` on the cumulative probabilities, so a type of probability 0
    is never drawn), its onset day (uniform on ``0..onset_span``) and its
    cycle (geometric by inversion, at least 1), the last two only where the
    arm sets them.

    An arm's type labels go through ``AeEpisode``'s checks once; each column
    is read off the arm's list of draws, and the records are built in C.
    """
    random = Random(scenario.seed).random
    draws = iter(random, None)  # random() at each step, in the same stream
    subjects, episodes = [], []
    for arm in scenario.arms:
        labels = [AeEpisode("", arm.name, type_label(i)).pt_term for i in range(len(arm.probs))]
        cum = list(accumulate(arm.probs))
        total = cum[-1]
        span = arm.onset_span
        # log(1 - dropout), -inf at dropout 1, where every cycle comes out 1
        log_stay = None if arm.cycle_dropout is None else (
            math.log1p(-arm.cycle_dropout) if arm.cycle_dropout < 1.0 else -math.inf)
        width = 1 + (span is not None) + (log_stay is not None)  # draws per episode
        ids = [f"S{sid + 1:05d}" for sid in range(len(subjects), len(subjects) + arm.n_subjects)]
        counts, u = [], []
        for _ in ids:
            counts.append(_poisson(random, arm.episodes_per_subject))
            u += islice(draws, counts[-1] * width)
        # in range by construction: a day is in 0..span and a cycle at least 1
        types = [labels[bisect_right(cum, x * total)] for x in u[::width]]
        days = repeat(None) if span is None else [int(x * (span + 1)) for x in u[1::width]]
        cycles = repeat(None) if log_stay is None else [
            1 + int(math.log1p(-x) / log_stay) for x in u[width - 1::width]]
        subjects += map(tuple.__new__, repeat(SubjectRecord),
                        zip(ids, repeat(arm.name), repeat("U"), *[repeat(None)] * 5))
        episodes += map(tuple.__new__, repeat(AeEpisode),
                        zip(chain.from_iterable(map(repeat, ids, counts)), repeat(arm.name), types,
                            days, cycles, repeat(None), repeat(None), repeat("untiered")))
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


Draws = dict[str, tuple["np.ndarray", "np.ndarray"]]


def _replicate_draws(arms: Sequence[ArmScenario], seed: int, replicates: int) -> Draws:
    """Per arm, adx and analytic se per replicate, via direct multinomial
    draws on the arm's expected total episode count (the model generate_trial
    uses, with the Poisson subject layer marginalized out), all arms in one
    ``kernel.replicates`` call; each draws replicate r from stream (seed, r)."""
    import numpy as np

    from . import kernel

    params = [(max(1, round(arm.n_subjects * arm.episodes_per_subject)), np.asarray(arm.probs))
              for arm in arms]

    def draw(r: int) -> list[float]:
        row = []
        for n_total, probs in params:
            rng = np.random.default_rng([seed, r])
            h, variance = kernel.entropy_and_variance(rng.multinomial(n_total, probs))
            row += (h, math.sqrt(variance))
        return row

    columns = kernel.replicates(draw, replicates, 2 * len(arms)).T.copy()  # contiguous, as before
    return {arm.name: (columns[2 * i], columns[2 * i + 1]) for i, arm in enumerate(arms)}


def _scenario_draws(scenario: Scenario, replicates: int, draws: Draws | None) -> Draws:
    """Per arm name, the replicate adx and se vectors: taken from ``draws``
    where present, else drawn and added to it."""
    draws = {} if draws is None else draws
    missing = [arm for arm in scenario.arms if arm.name not in draws]
    if missing:
        draws.update(_replicate_draws(missing, scenario.seed, replicates))
    return draws


def _is_uniform(probs: tuple[float, ...]) -> bool:
    import numpy as np

    p = np.asarray(probs)
    p = p[p > 0]
    return bool(np.allclose(p, p[0]))


def _arm_validation(arm: ArmScenario, adxs: np.ndarray, ses: np.ndarray,
                    degenerate: bool, **shape) -> ArmValidation:
    sd = float(adxs.std(ddof=1))
    mean_se = float(ses.mean())
    true_h = arm.true_adx()
    k = sum(p > 0 for p in arm.probs)
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
    import numpy as np

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
    uniform = [arm.name for arm in scenario.arms if _is_uniform(arm.probs)]
    if uniform and not flag_uniform:
        raise DegenerateScenario(
            f"arm {uniform[0]!r}: uniform true vector has zero asymptotic variance")
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
