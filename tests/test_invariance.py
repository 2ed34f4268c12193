"""Whole-pipeline invariances, from the CSV files to the files each report
command writes through ``cli.main``, on small generated trials.

- Shuffled episode and subject rows leave every output byte-identical. The
  subjects file lists the arms in the order the commands compare them, so a
  shuffle keeps the order in which the arms first appear.
- Arms renamed by a bijection give the same records under the new names.

Each trial runs on an empty episodes cache and then on a warm one. The
shuffled or renamed files have other bytes, so they miss the entry of the
original: a hit that returned another file's columns would show here.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adx import cli

from conftest import write_csv

PTS = ("nausea", "headache", "rash", "fatigue", "cough", "back pain")
ARMS = ("Active", "Placebo", "Low dose")
NEW_NAMES = (*ARMS, "Zeta", "arm 0", "Ärm 3")
EPISODE_COLUMNS = ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious"]
SUBJECT_COLUMNS = ["subject_id", "arm", "sex", "age_years"]
HIERARCHY = [[pt, f"hlt {i % 4}", f"hlgt {i % 4 % 2}", f"soc {i % 4 % 2}"]
             for i, pt in enumerate(PTS)]
COMMANDS = [
    ["summary"],
    ["compare"],
    ["subgroup", "--by", "sex,age", "--min-episodes", "2"],
    ["soc"],
    ["drilldown", "--soc", "soc 0"],
    ["hierarchy"],
    ["interim"],
    ["exposure"],
    ["benefit-risk", "--efficacy", "{efficacy}"],
]
ARM_FIELDS = ("arm", "arm_1", "arm_2")


def maybe(strategy):
    return st.none() | strategy


@st.composite
def small_trials(draw):
    """A trial's subject, episode and efficacy rows, with two or three arms."""
    arms = ARMS[:draw(st.integers(2, 3))]
    subjects = [[f"{arm[0]}{j}", arm, draw(st.sampled_from("FMU")),
                 draw(maybe(st.sampled_from([30, 45.5, 60, 71])))]
                for arm in arms for j in range(draw(st.integers(1, 4)))]
    episodes = [[s[0], s[1], draw(st.sampled_from(PTS)), draw(maybe(st.integers(0, 90))),
                 draw(maybe(st.integers(1, 4))), draw(maybe(st.booleans()))]
                for s in draw(st.lists(st.sampled_from(subjects), min_size=8, max_size=40))]
    efficacy = [[arm, draw(st.sampled_from([4.0, 7.5, 11]))] for arm in arms]
    return subjects, episodes, efficacy


def _write(directory, subjects, episodes, efficacy) -> dict:
    return {
        "episodes": write_csv(directory / "episodes.csv", EPISODE_COLUMNS, episodes),
        "subjects": write_csv(directory / "subjects.csv", SUBJECT_COLUMNS, subjects),
        "hierarchy": write_csv(directory / "hierarchy.csv",
                               ["pt_term", "hlt_term", "hlgt_term", "soc_term"], HIERARCHY),
        "efficacy": write_csv(directory / "efficacy.csv", ["arm", "value"], efficacy),
    }


def _run_all(files: dict, out) -> dict:
    """Per command, its exit code, standard output and error, and the bytes
    of each file it wrote."""
    results = {}
    for argv in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        directory = out / argv[0]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*(a.format(**files) for a in argv),
                             *(f for key in ("episodes", "subjects", "hierarchy")
                               for f in (f"--{key}", str(files[key]))),
                             "--format", "text,json-lines,csv", "--out", str(directory)])
        written = {p.name: p.read_bytes() for p in sorted(directory.iterdir())} \
            if directory.exists() else {}
        results[argv[0]] = code, stdout.getvalue(), stderr.getvalue(), written
    return results


def _cold_then_warm(files: dict, base) -> dict:
    """``_run_all`` on an empty episodes cache, checked equal to a second run on the warm one."""
    cold = _run_all(files, base / "cold")
    assert _run_all(files, base / "warm") == cold
    return cold


@contextlib.contextmanager
def _empty_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        yield


def _arms_first(rows: list, order: list) -> list:
    """``rows`` with, for each arm of ``order`` in turn, its first row moved
    to the front, so that the arms first appear in ``order``."""
    firsts = [next(r for r in rows if r[1] == arm) for arm in order]
    return firsts + [r for r in rows if all(r is not f for f in firsts)]


@settings(max_examples=25, deadline=None)
@given(trial=small_trials(), data=st.data())
def test_shuffled_rows_write_the_same_bytes(tmp_path_factory, trial, data):
    subjects, episodes, efficacy = trial
    directory = tmp_path_factory.mktemp("shuffle")
    with _empty_cache(tmp_path_factory):
        files = _write(directory, subjects, episodes, efficacy)
        expected = _cold_then_warm(files, directory / "original")
        arms = list(dict.fromkeys(s[1] for s in subjects))
        shuffled = _arms_first(data.draw(st.permutations(subjects)), arms)
        _write(directory, shuffled, data.draw(st.permutations(episodes)), efficacy)
        assert _cold_then_warm(files, directory / "shuffled") == expected


def _records(written: dict, rename: dict) -> list[str]:
    """The JSON-lines records of ``written``, arms renamed by ``rename``,
    as sorted canonical JSON."""
    records = []
    for name, body in written.items():
        if name.endswith(".jsonl"):
            for line in body.decode().splitlines():
                record = {rename.get(k, k) if k not in ARM_FIELDS else k: v
                          for k, v in json.loads(line).items()}
                record.update((k, rename.get(record[k], record[k]))
                              for k in ARM_FIELDS if k in record)
                records.append(json.dumps(record, sort_keys=True))
    return sorted(records)


@settings(max_examples=25, deadline=None)
@given(trial=small_trials(), data=st.data())
def test_renamed_arms_give_the_same_records(tmp_path_factory, trial, data):
    subjects, episodes, efficacy = trial
    arms = list(dict.fromkeys(s[1] for s in subjects))
    names = data.draw(st.lists(st.sampled_from(NEW_NAMES), min_size=len(arms),
                               max_size=len(arms), unique=True))
    rename = dict(zip(arms, names))
    directory = tmp_path_factory.mktemp("rename")
    with _empty_cache(tmp_path_factory):
        files = _write(directory, subjects, episodes, efficacy)
        original = _cold_then_warm(files, directory / "original")
        _write(directory, *([[*r[:1], rename[r[1]], *r[2:]] for r in rows]
                            for rows in (subjects, episodes)),
               [[rename[arm], value] for arm, value in efficacy])
        renamed = _cold_then_warm(files, directory / "renamed")
    for command, (code, _, _, written) in original.items():
        assert renamed[command][0] == code, command
        assert _records(renamed[command][3], {}) == _records(written, rename), command
