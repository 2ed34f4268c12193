"""Whole-pipeline invariances, from the CSV files to the files each report
command writes through ``cli.main``, on small generated trials.

- Shuffled episode and subject rows leave every output byte-identical. The
  subjects file lists the arms in the order the commands compare them, so a
  shuffle keeps the order in which the arms first appear.
- Arms renamed by a bijection give the same records under the new names, in
  the same order: every record list follows the subjects file's arm order,
  not the arms' names.
- Every subject doubled under a new ID leaves each ``adx`` equal, divides
  each ``se`` by √2 and doubles each count of subjects or episodes.
- PT terms renamed by a bijection, in the episodes and the hierarchy alike,
  leave ``adx``, ``se`` and ``K`` unchanged at every level.
- Under an identity hierarchy (each HLT, HLGT and SOC named after its PT),
  the results at ``hlt``, ``hlgt`` and ``soc`` equal those at ``pt``.

Each trial runs on an empty episodes cache and then on a warm one. The
shuffled or renamed files have other bytes, so they miss the entry of the
original: a hit that returned another file's columns would show here.
Floats that a transformation may move in their last bits are compared within
``FLOAT``, fixed before the tests were first run.
"""
import contextlib
import io
import json
import math

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
NEW_PTS = (*PTS, "dizziness", "pain in back", "ärger", "zoster")
HIERARCHY = [[pt, f"hlt {i % 4}", f"hlgt {i % 4 % 2}", f"soc {i % 4 % 2}"]
             for i, pt in enumerate(PTS)]
LEVELS = ("hlt", "hlgt", "soc")
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
# the commands that take --level, at each level
AT_LEVELS = [[*argv, "--level", level] for argv in (["summary"], ["compare"], ["interim"],
                                                    ["exposure"], COMMANDS[-1])
             for level in ("pt", *LEVELS)]
ARM_FIELDS = ("arm", "arm_1", "arm_2")
FLOAT = dict(rel=1e-9, abs=1e-12)


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


def _write(directory, subjects, episodes, efficacy, hierarchy=HIERARCHY) -> dict:
    return {
        "episodes": write_csv(directory / "episodes.csv", EPISODE_COLUMNS, episodes),
        "subjects": write_csv(directory / "subjects.csv", SUBJECT_COLUMNS, subjects),
        "hierarchy": write_csv(directory / "hierarchy.csv",
                               ["pt_term", "hlt_term", "hlgt_term", "soc_term"], hierarchy),
        "efficacy": write_csv(directory / "efficacy.csv", ["arm", "value"], efficacy),
    }


def _run_all(files: dict, out, commands=COMMANDS) -> dict:
    """Per command of ``commands``, under its arguments joined by spaces: its
    exit code, standard output and error, and the bytes of each file it wrote."""
    results = {}
    for i, argv in enumerate(commands):
        stdout, stderr = io.StringIO(), io.StringIO()
        directory = out / str(i)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*(a.format(**files) for a in argv),
                             *(f for key in ("episodes", "subjects", "hierarchy")
                               for f in (f"--{key}", str(files[key]))),
                             "--format", "text,json-lines,csv", "--out", str(directory)])
        written = {p.name: p.read_bytes() for p in sorted(directory.iterdir())} \
            if directory.exists() else {}
        results[" ".join(argv)] = code, stdout.getvalue(), stderr.getvalue(), written
    return results


def _cold_then_warm(files: dict, base, commands=COMMANDS) -> dict:
    """``_run_all`` on an empty episodes cache, checked equal to a second run on the warm one."""
    cold = _run_all(files, base / "cold", commands)
    assert _run_all(files, base / "warm", commands) == cold
    return cold


def _jsonl(written: dict) -> list[dict]:
    """The records of the JSON-lines file among ``written``, if any."""
    return [json.loads(line) for name, body in written.items() if name.endswith(".jsonl")
            for line in body.decode().splitlines()]


def _close(got, expected) -> bool:
    if isinstance(expected, float):
        return got == pytest.approx(expected, **FLOAT)
    return got == expected


def _assert_close(got: list[dict], expected: list[dict], where, skip=()) -> None:
    """Records equal in order, field by field, floats within ``FLOAT``."""
    assert len(got) == len(expected), where
    for g, e in zip(got, expected):
        assert g.keys() == e.keys(), where
        assert all(_close(g[k], v) for k, v in e.items() if k not in skip), (where, g, e)


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
    """The JSON-lines records of ``written``, arms renamed by ``rename``, as
    canonical JSON in file order. Benefit-risk's ``read`` records follow a
    set of arm names, a defect pinned by a strict xfail in
    ``bench/test_bench.py``, so they are sorted and put last."""
    records = []
    for record in _jsonl(written):
        record = {rename.get(k, k) if k not in ARM_FIELDS else k: v for k, v in record.items()}
        record.update((k, rename.get(record[k], record[k])) for k in ARM_FIELDS if k in record)
        records.append(json.dumps(record, sort_keys=True))
    reads = sorted(r for r in records if json.loads(r)["record"] == "read")
    return [r for r in records if r not in reads] + reads


@settings(max_examples=25, deadline=None)
@given(trial=small_trials(), data=st.data())
def test_renamed_arms_give_the_same_records(tmp_path_factory, trial, data):
    subjects, episodes, efficacy = trial
    arms = list(dict.fromkeys(s[1] for s in subjects))
    names = data.draw(st.lists(st.sampled_from(NEW_NAMES), min_size=len(arms),
                               max_size=len(arms), unique=True))
    # the new names sort in the reverse order of the old ones
    rename = dict(zip(sorted(arms), sorted(names, reverse=True)))
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


def _doubled(rows: list) -> list:
    """``rows`` and then each again under its subject ID with "+" appended."""
    return [*rows, *([f"{r[0]}+", *r[1:]] for r in rows)]


SUBJECT_COUNTS = {"n", "episodes", "subjects", "subjects_with_ae", "subjects_at_cycle"}
# what doubling the subjects changes besides the counts and the SEs
OF_N = {"z", "p_value", "direction", "low_n", "p3", "p4"}


def _counts(record: dict, key: str) -> bool:
    """Whether ``key`` of ``record`` counts subjects or episodes."""
    if record["record"] == "drilldown":  # each key but these is an arm's count
        return key not in ("record", "soc", "ae_type") and record["ae_type"] != "_zero_count_types"
    return key in SUBJECT_COUNTS


@settings(max_examples=25, deadline=None)
@given(trial=small_trials())
def test_doubled_subjects_keep_adx_and_divide_se_by_root_2(tmp_path_factory, trial):
    subjects, episodes, efficacy = trial
    directory = tmp_path_factory.mktemp("double")
    with _empty_cache(tmp_path_factory):
        files = _write(directory, subjects, episodes, efficacy)
        original = _cold_then_warm(files, directory / "original")
        _write(directory, _doubled(subjects), _doubled(episodes), efficacy)
        doubled = _cold_then_warm(files, directory / "doubled")
    for command, (code, _, _, written) in original.items():
        assert doubled[command][0] == code, command
        expected = [{k: 2 * v if _counts(r, k) else v / math.sqrt(2) if k in ("se", "se_diff")
                     else v for k, v in r.items()} for r in _jsonl(written)]
        _assert_close(_jsonl(doubled[command][3]), expected, command, skip=OF_N)


@settings(max_examples=25, deadline=None)
@given(trial=small_trials(), data=st.data())
def test_renamed_pts_keep_adx_se_and_k_at_every_level(tmp_path_factory, trial, data):
    subjects, episodes, efficacy = trial
    rename = dict(zip(PTS, data.draw(st.permutations(NEW_PTS))))
    commands = [*COMMANDS, *(["summary", "--level", level] for level in LEVELS)]
    directory = tmp_path_factory.mktemp("pts")
    with _empty_cache(tmp_path_factory):
        files = _write(directory, subjects, episodes, efficacy)
        original = _cold_then_warm(files, directory / "original", commands)
        _write(directory, subjects, [[*e[:2], rename[e[2]], *e[3:]] for e in episodes], efficacy,
               [[rename[pt], *terms] for pt, *terms in HIERARCHY])
        renamed = _cold_then_warm(files, directory / "renamed", commands)
    for command, (code, _, _, written) in original.items():
        assert renamed[command][0] == code, command
        if command.startswith("drilldown"):  # it ranks tied PTs by name and holds no estimate
            continue
        _assert_close(_jsonl(renamed[command][3]), _jsonl(written), command)


@settings(max_examples=25, deadline=None)
@given(trial=small_trials())
def test_an_identity_hierarchy_gives_the_pt_results_at_every_level(tmp_path_factory, trial):
    subjects, episodes, efficacy = trial
    directory = tmp_path_factory.mktemp("identity")
    with _empty_cache(tmp_path_factory):
        files = _write(directory, subjects, episodes, efficacy, [[pt] * 4 for pt in PTS])
        results = _cold_then_warm(files, directory / "identity", [*AT_LEVELS, ["hierarchy"]])
    for command, (code, _, _, written) in results.items():
        if command.endswith("--level pt"):
            for level in LEVELS:
                at_level = results[command.replace("--level pt", f"--level {level}")]
                assert at_level[0] == code, (command, level)
                _assert_close(_jsonl(at_level[3])[1:], _jsonl(written)[1:], (command, level))
    by_level = {level: [{k: v for k, v in r.items() if k != "level"}
                        for r in _jsonl(results["hierarchy"][3]) if r.get("level") == level]
                for level in ("pt", "hlt", "hlgt")}
    assert results["hierarchy"][0] != 0 or by_level["pt"]
    _assert_close(by_level["hlt"], by_level["pt"], "hlt")
    _assert_close(by_level["hlgt"], by_level["pt"], "hlgt")
