"""The error contract of ``adx``: every error class carries the exit code and
message prefix ``cli.main`` gives it, and a malformed input file or a bad flag
value ends in exit 0, or in exit 2, 3 or 4 with one ``adx: `` line on stderr
(argparse's usage error counts), never in an exception escaping ``cli.main``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adx import cli, errors
from adx.errors import AdxError

from conftest import run_on_cpus, write_csv

SRC = Path(__file__).resolve().parent.parent / "src"

# the (exit code, message prefix) of each class under the five-branch except
# chain cli.main had before the classes carried them
OLD_CHAIN = {
    "AdxError": (2, "error"),
    "InputError": (2, "input error"),
    "MalformedRow": (2, "input error"),
    "UnknownSubject": (2, "input error"),
    "ExposureBelowEpisodes": (2, "input error"),  # an InputError added since
    "ArmMismatch": (2, "input error"),
    "UnmappedTerm": (2, "input error"),
    "MissingHierarchy": (2, "error"),
    "UnknownDimension": (2, "error"),
    "UnknownSoc": (2, "error"),
    "EmptyProfile": (4, "degenerate statistics"),
    "DegenerateVariance": (4, "degenerate statistics"),
    "ZeroAdversity": (4, "degenerate statistics"),
    "DivisionByZeroBenefit": (2, "error"),
    "InsufficientData": (2, "error"),
    "NoDatedEpisodes": (2, "error"),
    "NoCycleData": (2, "error"),
    "InvalidScenario": (2, "error"),
    "DegenerateScenario": (4, "degenerate statistics"),
    "ConfigError": (3, "configuration error"),
}


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


def test_every_error_class_keeps_the_exit_code_and_prefix_of_the_old_chain():
    classes = _subclasses(AdxError)
    assert sorted(c.__name__ for c in classes) == sorted(OLD_CHAIN)
    assert all(getattr(errors, c.__name__) is c for c in classes)
    assert {c.__name__: (c.exit_code, c.kind) for c in classes} == OLD_CHAIN


@pytest.mark.parametrize("name", [*sorted(OLD_CHAIN), "ValueError"])
def test_main_prints_each_error_class_as_its_kind_and_exits_with_its_code(
        name, monkeypatch, capsys, tmp_path):
    # any other ValueError (a library's check of a flag value) is a configuration error
    code, kind = {**OLD_CHAIN, "ValueError": (3, "configuration error")}[name]
    cls = ValueError if name == "ValueError" else getattr(errors, name)
    exc = cls("p.csv", 7, "boom") if name == "MalformedRow" else cls("boom")

    def fail(args):
        raise exc
    monkeypatch.setitem(cli.COMMANDS, "simulate", fail)
    assert cli.main(["simulate", "--scenario", "s.ini", "--out", str(tmp_path)]) == code
    message = "p.csv:7: boom" if name == "MalformedRow" else "boom"
    assert capsys.readouterr().err == f"adx: {kind}: {message}\n"


# --- a small valid trial, and a malformed copy of each input file ---------------------

PTS = ("nausea", "headache", "fatigue", "rash", "cough")
SCENARIO = ("[scenario]\nseed = 3\n\n[arm A]\nprobs = 0.5 0.3 0.2\nsubjects = 20\n"
            "onset_span = 90\ncycle_dropout = 0.5\n\n[arm B]\nprobs = 0.4 0.3 0.2 0.1\n"
            "subjects = 20\n")
HEADERS = {
    "episodes": "subject_id,arm,pt_term,onset_day,cycle,serious",
    "subjects": "subject_id,arm,sex,age_years",
    "hierarchy": "pt_term,hlt_term,hlgt_term,soc_term",
    "efficacy": "arm,endpoint_label,value,higher_is_better",
    "exposure": "subject_id,last_cycle",
}
BAD_ROWS = {
    "episodes": "A0,A,nausea,soon,1,true",
    "subjects": "A0,A,F,old",
    "hierarchy": "nausea,n,g",
    "efficacy": "A,pfs,nan,true",
    "exposure": "A0,last",
}
# the scenario file's faults: the generic ones, then the parser's own
INI_FAULTS = {
    "empty": "",
    "header-only": "[scenario]\nseed = 3\n",
    "bad-values": "[arm A]\nprobs = 0.5 0.5\nsubjects = -1.5\n",
    "no-section-header": "subjects = 3\n[arm A]\nprobs = 1\n",
    "repeated-section": "[arm A]\nprobs = 0.5 0.5\n[arm A]\nprobs = 1\n",
    "repeated-option": "[arm A]\nprobs = 0.5 0.5\nprobs = 1\n",
    "interpolation": "[arm A]\nprobs = 0.5 0.5\nsubjects = %(x)s\n",
}
FAULTS = ("missing", "directory", "non-utf-8", "empty", "header-only", "bad-values")
FILE_FAULTS = {**dict.fromkeys(HEADERS, FAULTS),
               "scenario": tuple(dict.fromkeys((*FAULTS, *INI_FAULTS)))}


def _trial(directory: Path) -> dict[str, Path]:
    subjects, episodes = [], []
    for arm, spread in (("A", 3), ("B", 5)):
        for j in range(6):
            sid = f"{arm}{j}"
            subjects.append([sid, arm, "FM"[j % 2], 30 + 9 * j])
            episodes += [[sid, arm, PTS[(j + i) % spread], 10 * i + j, 1 + i % 4,
                          "true" if i % 3 == 0 else "false"] for i in range(6)]
    files = {
        "episodes": write_csv(directory / "episodes.csv", HEADERS["episodes"].split(","),
                              episodes),
        "subjects": write_csv(directory / "subjects.csv", HEADERS["subjects"].split(","),
                              subjects),
        "hierarchy": write_csv(directory / "hierarchy.csv", HEADERS["hierarchy"].split(","),
                               [[pt, f"{pt} hlt", f"hlgt{i % 2}", f"soc{i % 2}"]
                                for i, pt in enumerate(PTS)]),
        "efficacy": write_csv(directory / "efficacy.csv", HEADERS["efficacy"].split(","),
                              [["A", "pfs", 10.0, "true"], ["B", "pfs", 8.0, "true"]]),
        "exposure": write_csv(directory / "exposure.csv", HEADERS["exposure"].split(","),
                              [[s[0], 4] for s in subjects]),
        "scenario": directory / "scenario.ini",
    }
    files["scenario"].write_text(SCENARIO, encoding="utf-8")
    return files


def _faulty(directory: Path, kind: str, fault: str) -> Path:
    """A copy of input file ``kind`` with ``fault``."""
    path = directory / f"{kind}-{fault}"
    if fault == "missing":
        return path
    if fault == "directory":
        path.mkdir()
    elif fault == "non-utf-8":
        head = "[arm A]\nprobs = 1\n" if kind == "scenario" else HEADERS[kind] + "\n"
        path.write_bytes(head.encode() + b"# caf\xe9\n")
    elif kind == "scenario":
        path.write_text(INI_FAULTS[fault], encoding="utf-8")
    else:
        path.write_text({"empty": "", "header-only": HEADERS[kind] + "\n",
                         "bad-values": f"{HEADERS[kind]}\n{BAD_ROWS[kind]}\n"}[fault],
                        encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    files = _trial(directory)
    for kind, faults in FILE_FAULTS.items():
        for fault in faults:
            _faulty(directory, kind, fault)
    return directory, files


# each trial command's own flags; a flag given again later overrides its value here
TRIAL_COMMANDS = {
    "summary": [],
    "compare": [],
    "subgroup": ["--by", "sex,age"],
    "soc": [],
    "drilldown": ["--soc", "soc0"],
    "hierarchy": [],
    "interim": ["--by", "age"],
    "exposure": ["--exposure-file", "{exposure}"],
    "benefit-risk": ["--efficacy", "{efficacy}", "--bootstrap", "200"],
}


def _argv(command: str, files: dict, **swap) -> list[str]:
    """``command``'s arguments on the valid trial, with ``swap``'s files in
    place of the valid ones."""
    files = {**files, **swap}
    if command in ("simulate", "validate"):
        argv = [command, "--scenario", str(files["scenario"])]
        return argv + (["--replicates", "200"] if command == "validate" else [])
    argv = [command, "--episodes", str(files["episodes"]), "--subjects", str(files["subjects"]),
            "--hierarchy", str(files["hierarchy"])]
    return argv + [a.format(**files) for a in TRIAL_COMMANDS[command]]


def _run(argv: list[str], out: Path, capsys, cpus: int | None = None) -> tuple[int, str]:
    """The exit code of ``cli.main`` on ``argv`` (and ``--out out``), with
    ``kernel`` seeing ``cpus`` CPUs when given, and its stderr. An argparse
    usage error is read as the exit code of its ``SystemExit``."""
    argv = [*argv, "--out", str(out)]
    try:
        code = run_on_cpus(cpus, cli.main, argv)[0] if cpus else cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("usage: adx ")
        assert err.splitlines()[-1].startswith(f"adx {argv[0]}: error: "), err
        return code, err
    return code, capsys.readouterr().err


def _check(code: int, err: str, argv: list[str]) -> None:
    if code == 0:
        return
    assert code in (2, 3, 4), (argv, code, err)
    if not err.startswith("usage: "):
        assert err.startswith("adx: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


READERS = {"episodes": TRIAL_COMMANDS, "subjects": TRIAL_COMMANDS,
           "hierarchy": TRIAL_COMMANDS, "efficacy": ["benefit-risk"], "exposure": ["exposure"],
           "scenario": ["simulate", "validate"]}  # the commands that read each file


@pytest.mark.parametrize("command", [*TRIAL_COMMANDS, "simulate", "validate"])
def test_every_command_runs_on_the_valid_inputs(inputs, command, tmp_path, capsys):
    directory, files = inputs
    assert _run(_argv(command, files), tmp_path / "out", capsys) == (0, "")


@pytest.mark.parametrize("kind,fault,command", [
    (kind, fault, command) for kind, faults in FILE_FAULTS.items() for fault in faults
    for command in READERS[kind]])
def test_a_malformed_file_ends_in_one_line_and_an_exit_code(inputs, kind, fault, command,
                                                            tmp_path, capsys):
    directory, files = inputs
    argv = _argv(command, files, **{kind: directory / f"{kind}-{fault}"})
    code, err = _run(argv, tmp_path / "out", capsys)
    _check(code, err, argv)
    if fault != "header-only":  # a table with no rows may still be a run
        assert code != 0, argv


BAD_VALUES = ("nan", "inf", "-1", "")
FLAG_CASES = {
    "--alpha": ["summary", "compare", "subgroup", "soc", "hierarchy", "interim"],
    "--ci": ["benefit-risk"],
    "--bootstrap": ["benefit-risk"],
    "--replicates": ["validate"],
    "--seed": ["benefit-risk"],
    "--top": ["drilldown"],
    "--max-cycle": ["exposure"],
    "--min-episodes": ["subgroup"],
    "--age-cuts": ["subgroup", "interim"],
    "--looks": ["interim"],
}
RESAMPLING = ("benefit-risk", "validate")


@pytest.mark.parametrize("flag,command,value,cpus", [
    (flag, command, value, cpus) for flag, commands in FLAG_CASES.items()
    for command in commands for value in BAD_VALUES
    for cpus in ((1, 2) if command in RESAMPLING else (None,))])
def test_a_bad_flag_value_ends_in_one_line_and_an_exit_code(inputs, flag, command, value, cpus,
                                                            tmp_path, capsys):
    directory, files = inputs
    argv = [*_argv(command, files), f"{flag}={value}"]
    code, err = _run(argv, tmp_path / "out", capsys, cpus)
    _check(code, err, argv)


# the flags with which each trial command counts above PT level or by SOC
NEEDS_HIERARCHY = [
    ["summary", "--level", "hlt"],
    ["compare", "--level", "hlgt"],
    ["subgroup", "--by", "soc"],
    ["subgroup", "--level", "soc"],
    ["soc"],
    ["drilldown"],
    ["hierarchy"],
    ["interim", "--level", "hlt"],
    ["interim", "--by", "soc"],
    ["exposure", "--level", "soc"],
    ["benefit-risk", "--level", "hlt"],
]


@pytest.mark.parametrize("episodes", ["episodes.csv", "episodes-header-only"])
@pytest.mark.parametrize("argv", NEEDS_HIERARCHY, ids=" ".join)
def test_a_missing_hierarchy_is_one_error_in_every_command(inputs, argv, episodes, tmp_path,
                                                            capsys):
    # with episodes to count or none, before any other fault of the run
    directory, files = inputs
    command, *flags = argv
    full = _argv(command, files, episodes=directory / episodes)
    at = full.index("--hierarchy")
    code, err = _run([*full[:at], *full[at + 2:], *flags], tmp_path / "out", capsys)
    assert (code, err) == (2, "adx: error: this analysis needs a hierarchy mapping file\n")


@pytest.mark.parametrize("bootstrap", [True, False])
def test_a_seed_below_0_names_the_flag_before_any_file_is_read(inputs, bootstrap, tmp_path,
                                                               capsys):
    # before the load and the bootstrap's workers: a missing input is not reported
    directory, files = inputs
    argv = _argv("benefit-risk", files, episodes=directory / "episodes-missing")
    argv = [*(argv if bootstrap else argv[:-2]), "--seed=-1"]
    assert _run(argv, tmp_path / "out", capsys) == (
        3, "adx: configuration error: --seed must be >= 0, got -1\n")


@pytest.mark.parametrize("command,swap", [("simulate", {}), ("summary", {}),
                                          ("summary", {"episodes": "episodes-missing"})])
def test_a_bad_format_fails_before_any_work(inputs, command, swap, tmp_path, capsys):
    # before any file is written, and before any is read: a missing input is not reported
    directory, files = inputs
    out = tmp_path / "out"
    argv = _argv(command, files, **{k: directory / v for k, v in swap.items()})
    argv += ["--format", "text,bogus"]
    assert _run(argv, out, capsys) == (3, "adx: configuration error: unknown format(s): bogus\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("spec", [",", "", " , "])
@pytest.mark.parametrize("command,swap", [("simulate", {}), ("summary", {}),
                                          ("summary", {"episodes": "episodes-missing"})])
def test_a_format_without_entries_fails_before_any_work(inputs, command, swap, spec, tmp_path,
                                                        capsys):
    # a run that would write no file and print nothing is a configuration error
    directory, files = inputs
    out = tmp_path / "out"
    argv = _argv(command, files, **{k: directory / v for k, v in swap.items()})
    argv += ["--format", spec]
    assert _run(argv, out, capsys) == (
        3, "adx: configuration error: --format needs at least one of text,json-lines,csv\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kind,fault,command,flag", [
    ("scenario", "no-section-header", "simulate", None),
    ("episodes", "non-utf-8", "summary", None),
    ("scenario", None, "validate", "--replicates=nan"),
    ("efficacy", None, "benefit-risk", "--seed=-1"),
])
def test_a_child_process_prints_no_traceback(inputs, kind, fault, command, flag, tmp_path):
    directory, files = inputs
    swap = {kind: directory / f"{kind}-{fault}"} if fault else {}
    argv = _argv(command, files, **swap) + ([flag] if flag else [])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "adx.cli", *argv, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode in (2, 3, 4) and "Traceback" not in done.stderr, done.stderr
    assert done.stderr.splitlines()[-1].startswith(("adx: ", f"adx {command}: error: "))


def test_an_exposure_row_below_the_episodes_names_its_line_and_subject(inputs, tmp_path,
                                                                       capsys):
    # A1's episodes reach cycle 4; so do B0's, whose row comes later
    directory, files = inputs
    exposure = write_csv(tmp_path / "exposure.csv", HEADERS["exposure"].split(","),
                         [["A0", 4], ["A1", 3], ["B0", 2]])
    code, err = _run(_argv("exposure", files, exposure=exposure), tmp_path / "out", capsys)
    assert (code, err) == (2, f"adx: input error: {exposure}:3: exposure row gives subject "
                              "'A1' last_cycle 3, below its episodes' cycle 4\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, named", [
    (["--seed", "5"], "--seed"),
    (["--ci=0.9", "--seed=0"], "--seed, --ci"),
    (["--bootstrap-unit", "episode"], "--bootstrap-unit"),  # its default, given
    (["--se", "5"], "--seed"),  # an abbreviation argparse reads as --seed
])
def test_a_bootstrap_flag_without_bootstrap_is_a_configuration_error(inputs, flags, named,
                                                                      tmp_path, capsys):
    directory, files = inputs
    argv = [*_argv("benefit-risk", files)[:-2], *flags]  # without --bootstrap 200
    assert _run(argv, tmp_path / "out", capsys) == (
        3, f"adx: configuration error: without --bootstrap, nothing uses {named}\n")


@pytest.mark.parametrize("bootstrap", [False, True])
def test_the_header_lists_the_bootstrap_flags_only_with_bootstrap(inputs, bootstrap, tmp_path,
                                                                  capsys):
    # with --bootstrap, the flags not given are listed at their defaults
    directory, files = inputs
    argv = [*_argv("benefit-risk", files)[:None if bootstrap else -2], "--format", "json-lines"]
    assert _run(argv, tmp_path / "out", capsys, cpus=1) == (0, "")
    header = json.loads((tmp_path / "out" / "benefit_risk.jsonl").read_text().splitlines()[0])
    assert {key: header["config"].get(key) for key in ("bootstrap", "seed", "ci",
                                                        "bootstrap_unit")} == (
        {"bootstrap": 200, "seed": 0, "ci": 0.95, "bootstrap_unit": "episode"} if bootstrap
        else dict.fromkeys(("bootstrap", "seed", "ci", "bootstrap_unit")))
    assert sorted(header["config"]) == sorted(["command", "efficacy", "episodes", "hierarchy",
                                               "level", "subjects", "unmapped",
                                               *(["bootstrap", "bootstrap_unit", "ci", "seed"]
                                                 if bootstrap else [])])
