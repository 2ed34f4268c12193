"""Count once, then roll up: each report command tallies every episode at
most once, and resolves each PT in the hierarchy a number of times that does
not grow with the number of episodes."""
import random
import sys
from collections import Counter

import pytest

# temporal is imported here, not first inside a command while ``counted``
# has the tally patched: it would keep that patch's wrapper for good
from adx import entropy, temporal  # noqa: F401
from adx.cli import main
from adx.data import AeEpisode, HierarchyMap, SubjectRecord, TrialDataset, write_trial

from conftest import episode_records, write_csv

PTS = [f"pt {i}" for i in range(16)]
SOC = "soc 0"
# the seven commands of the benchmark's trial-report workload, then three
# of them above PT level
COMMANDS = [
    ["summary"],
    ["subgroup", "--by", "sex,age,seriousness"],
    ["soc", "--control", "Placebo"],
    ["hierarchy"],
    ["drilldown", "--soc", SOC],
    ["interim", "--looks", "30,60,90,120"],
    ["exposure", "--max-cycle", "6"],
    ["subgroup", "--by", "sex,soc", "--level", "hlt"],
    ["interim", "--by", "sex", "--level", "hlgt"],
    ["exposure", "--level", "soc"],
]


def _trial(copies: int) -> TrialDataset:
    rng = random.Random(2)
    subjects = tuple(SubjectRecord(subject_id=f"{arm}-{j}", arm=arm, sex="FMU"[j % 3],
                                   age_years=float(25 + 7 * j))
                     for arm in ("Active", "Placebo") for j in range(6))
    episodes = tuple(AeEpisode(subject_id=s.subject_id, arm=s.arm, pt_term=rng.choice(PTS),
                               onset_day=rng.randrange(120), cycle=rng.randrange(1, 7),
                               serious=rng.random() < 0.2)
                     for s in subjects for _ in range(12))
    return TrialDataset(subjects=subjects, episodes=episodes * copies)


@pytest.fixture
def counted(monkeypatch):
    """Patch ``profile_from_episodes`` at every name it is bound to in the
    loaded ``adx`` modules, and ``HierarchyMap.term_at``, to count episodes
    tallied and terms resolved."""
    counts = Counter()
    tally, term_at = entropy.profile_from_episodes, HierarchyMap.term_at

    def counting_tally(episodes, *args, **kwargs):
        counts["tallied"] += len(episodes)
        return tally(episodes, *args, **kwargs)

    def counting_term_at(self, pt_term, level):
        counts["term_at"] += 1
        return term_at(self, pt_term, level)

    for name, module in list(sys.modules.items()):
        if name == "adx" or name.startswith("adx."):
            for attr, value in list(vars(module).items()):
                if value is tally:
                    monkeypatch.setattr(module, attr, counting_tally)
    monkeypatch.setattr(HierarchyMap, "term_at", counting_term_at)
    return counts


def _run(tmp_path, trial: TrialDataset, argv: list[str], counts: Counter) -> Counter:
    write_trial(trial, tmp_path / "episodes.csv", tmp_path / "subjects.csv")
    write_csv(tmp_path / "hierarchy.csv", ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
              [[pt, f"hlt {i // 2}", f"hlgt {i // 4}", f"soc {i // 8}"] for i, pt in enumerate(PTS)])
    counts.clear()
    code = main([*argv, "--episodes", str(tmp_path / "episodes.csv"),
                 "--subjects", str(tmp_path / "subjects.csv"),
                 "--hierarchy", str(tmp_path / "hierarchy.csv"), "--out", str(tmp_path / "out")])
    assert code == 0
    return Counter(counts)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_each_episode_is_tallied_at_most_once(tmp_path, counted, capsys, argv):
    trial = _trial(copies=1)
    seen = _run(tmp_path, trial, argv, counted)
    assert 0 < seen["tallied"] <= len(episode_records(trial.columns))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_hierarchy_lookups_do_not_grow_with_episodes(tmp_path, counted, capsys, argv):
    once = _run(tmp_path, _trial(copies=1), argv, counted)
    twice = _run(tmp_path, _trial(copies=2), argv, counted)
    assert twice["term_at"] == once["term_at"]
    assert twice["tallied"] == 2 * once["tallied"]
