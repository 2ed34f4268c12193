import csv
import math
import os
from collections import Counter
from itertools import repeat

import pytest

from adx import kernel
from adx.data import HIERARCHY_LEVELS, AeEpisode, HierarchyMap, SubjectRecord, TrialDataset
from adx.entropy import AdxEstimate, FrequencyProfile, eals
from adx.errors import MissingHierarchy


def estimate_from_stats(adx_value: float, se: float, k: int, n: int = 0) -> AdxEstimate:
    """Build an estimate from published summary numbers (golden-test aid)."""
    k_star = eals(adx_value)
    return AdxEstimate(
        adx=adx_value,
        variance=se * se,
        se=se,
        k=k,
        n=n,
        eals=k_star,
        seals=k_star / k if k else float("nan"),
    )


def ordered_adx(counts) -> float:
    """The ordered-sum oracle: -sum p_i ln p_i summed left to right over the
    positive counts, as ``entropy.adx`` did before its sums became ``fsum``."""
    counts = [c for c in counts if c > 0]
    n = sum(counts)
    return 0.0 - sum((c / n) * math.log(c / n) for c in counts)


def ordered_adx_variance(counts) -> float:
    """The ordered-sum oracle of ``entropy.adx_variance``."""
    counts = [c for c in counts if c > 0]
    n = sum(counts)
    if len(set(counts)) == 1:
        return 0.0
    h = ordered_adx(counts)
    return sum((c / n) * (math.log(c / n) + h) ** 2 for c in counts) / n


def dataset_from_counts(arm_counts, hierarchy=None, subjects_per_arm=1):
    """Build a TrialDataset from {arm: {pt: episode count}}. Episodes are
    spread round-robin over the arm's subjects."""
    subjects, episodes = [], []
    for arm, counts in arm_counts.items():
        ids = [f"{arm}-{i}" for i in range(subjects_per_arm)]
        for sid in ids:
            subjects.append(SubjectRecord(subject_id=sid, arm=arm))
        i = 0
        for pt, n in counts.items():
            for _ in range(n):
                episodes.append(AeEpisode(subject_id=ids[i % len(ids)], arm=arm, pt_term=pt))
                i += 1
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes), hierarchy=hierarchy)


def episode_records(columns, arm=None) -> list[AeEpisode]:
    """The episodes of ``columns`` (an ``EpisodeColumns``, such as
    ``trial.columns``) decoded into ``AeEpisode`` records, in order, and only
    ``arm``'s when given. The package reads episodes only as columns; the
    tests read them back as records here, and nowhere else."""
    rows = zip(*(getattr(columns, name) for name in columns.__slots__))
    return [e for e in map(tuple.__new__, repeat(AeEpisode), rows) if arm is None or e.arm == arm]


def rollup(profile: FrequencyProfile, level: str, hierarchy) -> FrequencyProfile:
    """A PT-level profile with its counts summed into their terms at ``level``,
    ``term_at`` once per PT: the rollup oracle of the trial's ``terms_at`` lists."""
    if level not in HIERARCHY_LEVELS:
        raise ValueError(f"level must be one of {HIERARCHY_LEVELS}, got {level!r}")
    if level == "pt":
        return profile
    if hierarchy is None:
        raise MissingHierarchy(f"level {level!r} requires a hierarchy mapping")
    counts = Counter()
    for pt, c in profile.counts.items():
        counts[hierarchy.term_at(pt, level)] += c
    return FrequencyProfile(counts)


def record_profile(episodes, level="pt", hierarchy=None) -> FrequencyProfile:
    """``AeEpisode`` records tallied by PT and rolled up to ``level``: the
    record oracle of ``entropy.profile_from_episodes``."""
    return rollup(FrequencyProfile(Counter(e.pt_term for e in episodes)), level, hierarchy)


def run_on_cpus(cpus, fn, *args):
    """``fn(*args)`` with ``kernel`` seeing ``cpus`` CPUs: its result, the
    arrays ``kernel.replicates`` returned during the call, and the number of
    workers forked."""
    rows, forks = [], []
    replicates, fork = kernel.replicates, os.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_cpus", lambda: cpus)
        patch.setattr(kernel, "replicates", lambda *a: rows.append(replicates(*a)) or rows[-1])
        patch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return fn(*args), rows, len(forks)


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def tiny_trial(directory):
    """3 subjects, 5 episodes, 2 arms; all referentially consistent."""
    subjects = write_csv(
        directory / "subjects.csv",
        ["subject_id", "arm", "sex", "age_years", "background_therapy", "substudy",
         "first_dose_day", "last_observed_day"],
        [
            ["S1", "A", "F", 45, "", "", 0, 300],
            ["S2", "A", "M", 67, "", "", 0, 250],
            ["S3", "B", "F", 38, "", "", 0, 300],
        ],
    )
    episodes = write_csv(
        directory / "episodes.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        [
            ["S1", "A", "nausea", 10, 1, "false", 1, ""],
            ["S1", "A", "headache", 40, 2, "", "", ""],
            ["S2", "A", "nausea", 100, 3, "true", 3, "tier1"],
            ["S3", "B", "fatigue", 20, 1, "", "", ""],
            ["S3", "B", "nausea", 150, 4, "", 2, ""],
        ],
    )
    hierarchy = write_csv(
        directory / "hierarchy.csv",
        ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
        [
            ["nausea", "nausea symptoms", "gi signs", "gastrointestinal disorders"],
            ["headache", "headaches", "neuro signs", "nervous system disorders"],
            ["fatigue", "asthenic conditions", "general signs", "general disorders"],
        ],
    )
    return {"subjects": subjects, "episodes": episodes, "hierarchy": hierarchy, "dir": directory}


@pytest.fixture
def tiny_trial_files(tmp_path):
    return tiny_trial(tmp_path)


@pytest.fixture
def two_level_hierarchy():
    """Four PTs folding into two HLTs (one SOC); used by rollup tests."""
    return HierarchyMap(
        {
            "a": ("h1", "g1", "soc1"),
            "b": ("h1", "g1", "soc1"),
            "c": ("h2", "g1", "soc1"),
            "d": ("h2", "g1", "soc1"),
        }
    )
