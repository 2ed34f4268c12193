import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adx import cli
from adx.cli import main

from conftest import write_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def table7_files(tmp_path):
    """Two arms of 100 episodes each, both with AdX 0.69."""
    subjects = write_csv(
        tmp_path / "subjects.csv",
        ["subject_id", "arm", "sex", "age_years", "background_therapy", "substudy",
         "first_dose_day", "last_observed_day"],
        [["P1", "Arm1", "F", "", "", "", "", ""], ["P2", "Arm2", "F", "", "", "", "", ""]],
    )
    rows = []
    for pt, n in [("ae1", 81), ("ae2", 7), ("ae3", 6), ("ae4", 6)]:
        rows += [["P1", "Arm1", pt, "", "", "", "", ""]] * n
    for pt, n in [("ae1", 50), ("ae2", 50)]:
        rows += [["P2", "Arm2", pt, "", "", "", "", ""]] * n
    episodes = write_csv(
        tmp_path / "episodes.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        rows,
    )
    return {"subjects": subjects, "episodes": episodes, "dir": tmp_path}


def test_summary_minimal(capsys, tiny_trial_files, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "summary",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--out", str(out_dir), "--format", "text,json-lines",
    )
    assert code == 0
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "summary.jsonl").exists()
    lines = (out_dir / "summary.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["record"] == "header"
    assert "version" in head


def test_summary_table7_prints_069(capsys, table7_files, tmp_path):
    code, out, _ = run(
        capsys, "summary",
        "--episodes", str(table7_files["episodes"]),
        "--subjects", str(table7_files["subjects"]),
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    arm_lines = [l for l in out.splitlines() if l.startswith("Arm")]
    assert all("0.69" in l for l in arm_lines)


def test_missing_subjects_file_exit_code(capsys, tiny_trial_files, tmp_path):
    code, _, err = run(
        capsys, "summary",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "nope.csv" in err


def test_bad_alpha_exit_code(capsys, tiny_trial_files, tmp_path):
    code, _, err = run(
        capsys, "summary",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--alpha", "1.5", "--out", str(tmp_path),
    )
    assert code == 3
    assert "alpha" in err


@pytest.fixture
def uniform_arms(tmp_path):
    """Two arms, each uniform over the same two PTs, so se(diff) is zero."""
    subjects = write_csv(tmp_path / "s.csv",
                         ["subject_id", "arm", "sex"],
                         [["S1", "A", "F"], ["S2", "B", "F"]])
    rows = [["S1", "A", "x", "", "", "", "", ""], ["S1", "A", "y", "", "", "", "", ""],
            ["S2", "B", "x", "", "", "", "", ""], ["S2", "B", "y", "", "", "", "", ""]]
    episodes = write_csv(tmp_path / "e.csv",
                         ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious",
                          "severity", "tier"], rows)
    return ["--episodes", str(episodes), "--subjects", str(subjects)]


def test_degenerate_exit_code(capsys, uniform_arms, tmp_path):
    code, _, err = run(capsys, "compare", *uniform_arms, "--out", str(tmp_path))
    assert code == 4
    assert "degenerate" in err.lower()


def test_summary_reports_degenerate_comparison(capsys, uniform_arms, tmp_path):
    out_dir = tmp_path / "o"
    code, out, _ = run(capsys, "summary", *uniform_arms, "--out", str(out_dir),
                       "--format", "text,json-lines")
    assert code == 0
    assert "difference" not in out
    assert "note: not compared, both profiles uniform (se_diff 0): A vs B" in out.splitlines()
    recs = _strict_jsonl(out_dir / "summary.jsonl")
    assert [r for r in recs if r["record"] in ("comparison", "degenerate_comparison")] == [
        {"record": "degenerate_comparison", "arm_1": "A", "arm_2": "B", "cell": {}}]


def test_compare_output(capsys, table7_files, tmp_path):
    out_dir = tmp_path / "o"
    code, out, _ = run(
        capsys, "compare",
        "--episodes", str(table7_files["episodes"]),
        "--subjects", str(table7_files["subjects"]),
        "--arms", "Arm1,Arm2",
        "--out", str(out_dir), "--format", "text,json-lines,csv",
    )
    assert code == 0
    recs = [json.loads(l) for l in (out_dir / "compare.jsonl").read_text().splitlines()]
    comp = [r for r in recs if r.get("record") == "comparison"][0]
    assert abs(comp["diff"]) < 0.01


def test_subgroup_two_pvalue_rows(capsys, tmp_path):
    subjects = write_csv(
        tmp_path / "s.csv", ["subject_id", "arm", "sex"],
        [["S1", "A", "F"], ["S2", "A", "M"], ["S3", "B", "F"], ["S4", "B", "M"]],
    )
    rows = []
    for sid, arm in [("S1", "A"), ("S2", "A"), ("S3", "B"), ("S4", "B")]:
        rows += [[sid, arm, pt, "", "", "", "", ""] for pt in ["a", "a", "b", "c"]]
    episodes = write_csv(
        tmp_path / "e.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        rows,
    )
    out_dir = tmp_path / "o"
    code, out, _ = run(
        capsys, "subgroup", "--episodes", str(episodes), "--subjects", str(subjects),
        "--by", "sex", "--out", str(out_dir), "--format", "json-lines",
    )
    assert code == 0
    recs = [json.loads(l) for l in (out_dir / "subgroup.jsonl").read_text().splitlines()]
    comps = [r for r in recs if r.get("record") == "comparison"]
    assert len(comps) == 2  # one A-vs-B comparison per sex


def test_interim_plot_csv_contract(capsys, tmp_path):
    subjects = write_csv(tmp_path / "s.csv", ["subject_id", "arm", "sex"],
                         [["S1", "A", "F"]])
    rows = [["S1", "A", pt, d, "", "", "", ""]
            for d, pt in zip(range(0, 300, 10), "abcde" * 6)]
    episodes = write_csv(
        tmp_path / "e.csv",
        ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"],
        rows,
    )
    out_dir = tmp_path / "o"
    code, _, _ = run(
        capsys, "interim", "--episodes", str(episodes), "--subjects", str(subjects),
        "--out", str(out_dir), "--format", "csv",
    )
    assert code == 0
    lines = (out_dir / "interim.csv").read_text().splitlines()
    data_lines = [l for l in lines if not l.startswith("#")]
    assert data_lines[0] == "look,arm,adx,se,K,N"
    assert len(data_lines) == 4  # header + 3 default looks


def test_benefit_risk_table12(capsys, table7_files, tmp_path):
    # efficacy 5.3/3.5 with the Table-12 AdX values comes from the real
    # trial; here the CLI is driven end-to-end on reconstructed counts
    eff = write_csv(
        table7_files["dir"] / "eff.csv",
        ["arm", "endpoint_label", "value", "higher_is_better"],
        [["Arm1", "pfs", "5.3", "true"], ["Arm2", "pfs", "3.5", "true"]],
    )
    out_dir = tmp_path / "o"
    code, out, _ = run(
        capsys, "benefit-risk",
        "--episodes", str(table7_files["episodes"]),
        "--subjects", str(table7_files["subjects"]),
        "--efficacy", str(eff), "--arms", "Arm1,Arm2",
        "--out", str(out_dir), "--format", "text,json-lines",
    )
    assert code == 0
    recs = [json.loads(l) for l in (out_dir / "benefit_risk.jsonl").read_text().splitlines()]
    rr = [r for r in recs if r.get("record") == "re_read"][0]
    # both arms have adx ~0.69, so re-read ~ 5.3/3.5
    assert rr["re_read"] == pytest.approx(5.3 / 3.5, rel=0.02)


def test_simulate_and_validate(capsys, tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(
        "[scenario]\nseed = 11\n\n"
        "[arm A]\nprobs = 0.5 0.3 0.2\nepisodes_per_subject = 3.0\nsubjects = 40\n"
    )
    out_dir = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate", "--scenario", str(scenario), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "episodes.csv").exists()
    assert (out_dir / "subjects.csv").exists()

    code, out, _ = run(
        capsys, "validate", "--scenario", str(scenario),
        "--check", "variance", "--replicates", "300",
        "--out", str(tmp_path / "val"), "--format", "text,json-lines",
    )
    assert code == 0
    assert "sd/se" in out


def test_simulate_writes_every_file_through_the_writer(capsys, tmp_path, monkeypatch):
    # each renamed into place from a new file of mode 0600 in the output directory
    replaced, replace = [], os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: replaced.append((Path(a), b)) or replace(a, b))
    out = tmp_path / "sim"
    scenario = _scenario(tmp_path, [("A", "0.5 0.3 0.2")])
    code, _, _ = run(capsys, "simulate", "--scenario", str(scenario), "--out", str(out),
                     "--format", "text,csv")
    names = ["episodes.csv", "simulate.csv", "simulate.txt", "subjects.csv"]
    assert code == 0 and sorted(Path(b).name for _, b in replaced) == names
    assert all(a.parent == out and not a.exists() for a, _ in replaced)
    assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == dict.fromkeys(names, 0o600)


@pytest.mark.parametrize("replicates", ["1", "0", "-5"])
def test_validate_too_few_replicates_is_a_configuration_error(capsys, tmp_path, replicates):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nseed = 11\n\n[arm A]\nprobs = 0.5 0.3 0.2\n")
    code, out, err = run(capsys, "validate", "--scenario", str(scenario),
                         "--replicates", replicates, "--out", str(tmp_path / "val"))
    assert code == 3
    assert err == "adx: configuration error: replicates must be >= 2\n"
    assert out == "" and not (tmp_path / "val").exists()


def test_structured_output_byte_identical_on_rerun(capsys, table7_files, tmp_path):
    eff = write_csv(
        table7_files["dir"] / "eff.csv",
        ["arm", "endpoint_label", "value", "higher_is_better"],
        [["Arm1", "pfs", "5.3", "true"], ["Arm2", "pfs", "3.5", "true"]],
    )
    blobs = []
    for d in ("o1", "o2"):
        out_dir = tmp_path / d
        code, _, _ = run(
            capsys, "benefit-risk",
            "--episodes", str(table7_files["episodes"]),
            "--subjects", str(table7_files["subjects"]),
            "--efficacy", str(eff), "--arms", "Arm1,Arm2",
            "--bootstrap", "300", "--seed", "5",
            "--out", str(out_dir), "--format", "json-lines,csv",
        )
        assert code == 0
        blobs.append(
            (out_dir / "benefit_risk.jsonl").read_bytes()
            + (out_dir / "benefit_risk.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_unknown_format_rejected(capsys, tiny_trial_files, tmp_path):
    code, _, err = run(
        capsys, "summary",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--format", "xml", "--out", str(tmp_path),
    )
    assert code == 3


def test_drilldown_command(capsys, tiny_trial_files, tmp_path):
    code, out, _ = run(
        capsys, "drilldown",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--hierarchy", str(tiny_trial_files["hierarchy"]),
        "--soc", "gastrointestinal disorders", "--top", "1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert "nausea" in out
    assert "Total" in out


def test_hierarchy_command(capsys, tiny_trial_files, tmp_path):
    code, out, _ = run(
        capsys, "hierarchy",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--hierarchy", str(tiny_trial_files["hierarchy"]),
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert "P1" in out or "p1" in out.lower() or "rollup" in out


@pytest.mark.parametrize("command, extra", [
    ("summary", ["--control", "Nope"]), ("subgroup", ["--by", "sex", "--control", "Nope"]),
    ("soc", ["--control", "Nope"]), ("hierarchy", ["--control", "Nope"]),
    ("interim", ["--control", "Nope"]),
    # drilldown has no --control; an unknown arm in its --arms is the same mistake
    ("drilldown", ["--soc", "gastrointestinal disorders", "--arms", "A,Nope"]),
])
def test_unknown_control_is_config_error(capsys, tiny_trial_files, tmp_path, command, extra):
    code, _, err = run(
        capsys, command, *extra,
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--hierarchy", str(tiny_trial_files["hierarchy"]),
        "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert err.count("\n") == 1 and "Nope" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, repeated", [
    (["compare", "--arms", "A,A"], "A"),
    (["drilldown", "--soc", "gastrointestinal disorders", "--arms", "A,B, A"], "A"),
    # before the dataset check: the repeat is named, not the unknown arm
    (["drilldown", "--soc", "gastrointestinal disorders", "--arms", "Nope,Nope"], "Nope"),
])
def test_a_repeated_arm_is_config_error(capsys, tiny_trial_files, tmp_path, argv, repeated):
    # an arm compared with itself is no independent sample, and drilldown's
    # columns are one per distinct arm
    code, out, err = run(capsys, *argv, "--episodes", str(tiny_trial_files["episodes"]),
                         "--subjects", str(tiny_trial_files["subjects"]),
                         "--hierarchy", str(tiny_trial_files["hierarchy"]),
                         "--out", str(tmp_path / "o"))
    assert (code, out) == (3, "")
    assert err == f"adx: configuration error: --arms repeats arm(s): {repeated}\n"
    assert not (tmp_path / "o").exists()


def _strict_jsonl(path):
    def reject(const):
        raise ValueError(f"non-JSON constant {const}")
    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


def _scenario(tmp_path, arms):
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario]\nseed = 5\n\n" + "".join(
        f"[arm {name}]\nprobs = {probs}\nepisodes_per_subject = 2.0\nsubjects = 60\n\n"
        for name, probs in arms))
    return path


def test_validate_both_equals_variance_then_normality(capsys, tmp_path, monkeypatch):
    # no uniform arm, so --check normality runs too; the header records differ by check
    from adx import simulate

    scenario = _scenario(tmp_path, [("A", "0.5 0.3 0.2"), ("B", "0.4 0.3 0.2 0.1")])
    calls = {}

    def counted(name):
        function = getattr(simulate, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return function(*args, **kwargs)
        monkeypatch.setattr(simulate, name, wrapper)
    for name in ("_replicate_draws", "validate_variance", "validate_normality"):
        counted(name)
    records = {}
    for check in ("both", "variance", "normality"):
        calls.clear()
        code, _, _ = run(capsys, "validate", "--scenario", str(scenario), "--check", check,
                         "--replicates", "150", "--out", str(tmp_path / check),
                         "--format", "json-lines")
        assert code == 0
        records[check] = (tmp_path / check / "validate.jsonl").read_text().splitlines()[1:]
        if check == "both":  # one Monte Carlo pass serves both checks
            assert calls == {"_replicate_draws": 1, "validate_normality": 1}
    assert records["both"] == records["variance"] + records["normality"]
    assert all('"validate_variance"' in line for line in records["variance"])
    assert all('"validate_normality"' in line for line in records["normality"])


def test_validate_single_type_arm_writes_strict_json(capsys, tmp_path):
    scenario = _scenario(tmp_path, [("Mono", "1.0"), ("B", "0.5 0.5")])
    out_dir = tmp_path / "o"
    code, out, _ = run(capsys, "validate", "--scenario", str(scenario), "--check", "variance",
                       "--replicates", "50", "--out", str(out_dir), "--format", "text,json-lines")
    assert code == 0
    mono = [r for r in _strict_jsonl(out_dir / "validate.jsonl") if r.get("arm") == "Mono"][0]
    assert mono["sd_over_se"] is None
    assert mono["degenerate"] is True
    assert "nan" not in out


@pytest.fixture
def efficacy_trial(table7_files):
    def write(rows, header=("arm", "endpoint_label", "value", "higher_is_better")):
        return write_csv(table7_files["dir"] / "eff.csv", list(header), rows)
    return table7_files, write


def _benefit_risk(capsys, files, eff, *extra):
    return run(capsys, "benefit-risk", "--episodes", str(files["episodes"]),
               "--subjects", str(files["subjects"]), "--efficacy", str(eff),
               "--out", str(files["dir"] / "o"), *extra)


@pytest.mark.parametrize("arms, missing", [("Arm1,Arm2", "efficacy file: Arm2"),
                                           ("Arm1,Arm9", "dataset: Arm9")])
def test_benefit_risk_unknown_arm_is_config_error(capsys, efficacy_trial, arms, missing):
    files, write = efficacy_trial
    eff = write([["Arm1", "pfs", "5.3", "true"]])
    code, _, err = _benefit_risk(capsys, files, eff, "--arms", arms)
    assert code == 3
    assert err.count("\n") == 1 and missing in err


def test_benefit_risk_repeated_arm_is_config_error(capsys, efficacy_trial):
    files, write = efficacy_trial
    eff = write([["Arm1", "pfs", "5.3", "true"], ["Arm2", "pfs", "3.5", "true"]])
    code, out, err = _benefit_risk(capsys, files, eff, "--arms", "Arm1,Arm1")
    assert (code, out) == (3, "")
    assert err == "adx: configuration error: --arms repeats arm(s): Arm1\n"


@pytest.mark.parametrize("header, rows, reason", [
    (("arm", "endpoint_label", "higher_is_better"), [["Arm1", "pfs", "true"]],
     "missing required column(s): value"),
    (("arm", "endpoint_label", "value", "higher_is_better"),
     [["Arm1", "pfs", "5.3", "true"], ["Arm2", "pfs", "3.5", "true"], ["Arm1", "os", "9", "true"]],
     ":4: second efficacy row for arm 'Arm1'"),
    (("arm", "endpoint_label", "value", "higher_is_better"),
     [["Arm1", "pfs", "nan", "true"], ["Arm2", "pfs", "3.5", "true"]],
     ":2: bad efficacy row: efficacy value must be finite"),
    # a short row without a value
    (("arm", "value"), [["Arm1"], ["Arm2", "3.5"]],
     ":2: bad efficacy row: float() argument must be a string or a real number, not 'NoneType'"),
])
def test_benefit_risk_malformed_efficacy_is_input_error(capsys, efficacy_trial, header, rows, reason):
    files, write = efficacy_trial
    code, _, err = _benefit_risk(capsys, files, write(rows, header), "--arms", "Arm1,Arm2")
    assert code == 2
    assert err.count("\n") == 1 and reason in err


def test_exposure_file_without_last_cycle_is_input_error(capsys, tiny_trial_files, tmp_path):
    exposure = write_csv(tmp_path / "exposure.csv", ["subject_id", "cycles"], [["S1", "3"]])
    code, _, err = run(
        capsys, "exposure",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--exposure-file", str(exposure), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert err.count("\n") == 1 and "missing required column(s): last_cycle" in err


def test_exposure_file_is_read(capsys, tiny_trial_files, tmp_path):
    exposure = write_csv(tmp_path / "exposure.csv", ["subject_id", "last_cycle"],
                         [["S1", "6"], ["S2", "3"], ["S3", "4"]])
    out_dir = tmp_path / "o"
    code, _, _ = run(
        capsys, "exposure",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--exposure-file", str(exposure), "--max-cycle", "6",
        "--out", str(out_dir), "--format", "json-lines",
    )
    assert code == 0
    at_six = [r for r in _strict_jsonl(out_dir / "exposure.jsonl")
              if r.get("record") == "exposure" and r["cycle"] == 6]
    assert {r["arm"]: r["subjects_at_cycle"] for r in at_six} == {"A": 1, "B": 0}


@pytest.mark.parametrize("rows, error, line", [
    ([["S1", "3"], ["S1", "9"], ["S3", "4"]], "second exposure row for subject 'S1'", 3),
    ([["S1", "3"], ["S99999", "4"]], "exposure row references unknown subject 'S99999'", 3),
    # the file's own faults come before a subject the subjects file lacks
    ([["S99999", "4"], ["S99999", "5"]], "second exposure row for subject 'S99999'", 3),
])
def test_exposure_file_rejects_a_repeated_or_unknown_subject(capsys, tiny_trial_files, tmp_path,
                                                             rows, error, line):
    exposure = write_csv(tmp_path / "exposure.csv", ["subject_id", "last_cycle"], rows)
    code, out, err = run(
        capsys, "exposure",
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--exposure-file", str(exposure), "--out", str(tmp_path / "o"),
    )
    assert (code, out) == (2, "")
    assert err == f"adx: input error: {exposure}:{line}: {error}\n"
    assert not (tmp_path / "o").exists()


_THREADS_CHILD = """
import os, sys
from adx import cli
sys.argv = ["adx", "validate", "--scenario", sys.argv[1], "--replicates", "2",
            "--out", sys.argv[2], "--format", "json-lines"]
code = cli.run()
print(code, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"),
      os.environ.get("OMP_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset, expected", [
    ({}, ("1", "1")),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, ("2", "3")),
])
def test_run_keeps_numpy_blas_to_one_thread_unless_set(tmp_path, preset, expected):
    scenario = _scenario(tmp_path, [("A", "0.5 0.3 0.2")])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                            "OMP_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env.update(preset, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD, str(scenario),
                           str(tmp_path / "o")], env=env, capture_output=True, text=True,
                          timeout=120)
    code, threads, *values = proc.stdout.split()
    assert code == "0", proc.stderr
    assert tuple(values) == expected
    if not preset:  # numpy loaded and no BLAS worker started: the main thread alone
        assert threads == "1"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["exposure", "--max-cycle", "-3"], "max_cycle must be >= 1, got -3",
                 id="max-cycle=-3"),
    pytest.param(["exposure", "--max-cycle", "0"], "max_cycle must be >= 1, got 0",
                 id="max-cycle=0"),
    pytest.param(["drilldown", "--soc", "gastrointestinal disorders", "--top", "-3"],
                 "top_n must be >= 0, got -3", id="top=-3"),
    pytest.param(["subgroup", "--by", "age", "--age-cuts", "nan"],
                 "cut_points must be finite, got nan", id="age-cuts=nan"),
    pytest.param(["subgroup", "--by", "age", "--age-cuts=-1"],
                 "cut_points must be > 0, got -1", id="age-cuts=-1"),
    pytest.param(["subgroup", "--by", "age", "--age-cuts", "0,40"],
                 "cut_points must be > 0, got 0", id="age-cuts=0,40"),
    pytest.param(["interim", "--age-cuts=-1"], "cut_points must be > 0, got -1",
                 id="interim-age-cuts=-1"),
    pytest.param(["subgroup", "--by", "sex", "--min-episodes=-1"],
                 "min_episodes must be >= 0, got -1", id="min-episodes=-1"),
    pytest.param(["interim", "--looks=-5,10"], "cutoff_days must be >= 0, got -5", id="looks=-5,10"),
])
def test_count_flag_out_of_range_is_config_error(capsys, tiny_trial_files, tmp_path, argv,
                                                 message):
    code, out, err = run(
        capsys, *argv,
        "--episodes", str(tiny_trial_files["episodes"]),
        "--subjects", str(tiny_trial_files["subjects"]),
        "--hierarchy", str(tiny_trial_files["hierarchy"]),
        "--out", str(tmp_path / "o"),
    )
    assert code == 3 and out == ""
    assert err == f"adx: configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_validate_both_flags_uniform_arm(capsys, tmp_path):
    scenario = _scenario(tmp_path, [("Flat", "0.5 0.5"), ("B", "0.6 0.3 0.1")])
    out_dir = tmp_path / "o"
    code, out, err = run(capsys, "validate", "--scenario", str(scenario), "--check", "both",
                         "--replicates", "100", "--out", str(out_dir),
                         "--format", "text,json-lines")
    assert code == 0, err
    recs = {(r["record"], r["arm"]): r for r in _strict_jsonl(out_dir / "validate.jsonl")[1:]}
    assert set(recs) == {(f"validate_{kind}", arm) for kind in ("variance", "normality")
                         for arm in ("Flat", "B")}
    assert recs["validate_variance", "Flat"]["degenerate"] is True
    flat = recs["validate_normality", "Flat"]
    assert flat["degenerate"] is True
    assert flat["skew"] is flat["excess_kurtosis"] is flat["ks_distance"] is None
    assert recs["validate_normality", "B"]["ks_distance"] is not None
    normality_rows = [line for line in out.splitlines() if line.startswith("normality")]
    assert [row.split()[1] for row in normality_rows] == ["Flat", "B"]
    assert normality_rows[0].endswith("degenerate (uniform)")
    code, _, err = run(capsys, "validate", "--scenario", str(scenario), "--check", "normality",
                       "--replicates", "100", "--out", str(tmp_path / "n"))
    assert code == 4 and "uniform" in err


@pytest.mark.parametrize("command, extra, flag", [
    ("drilldown", ["--soc", "gastrointestinal disorders"], ["--alpha", "0.2"]),
    ("drilldown", ["--soc", "gastrointestinal disorders"], ["--one-sided"]),
    ("drilldown", ["--soc", "gastrointestinal disorders"], ["--control", "A"]),
    ("drilldown", ["--soc", "gastrointestinal disorders"], ["--level", "soc"]),
    ("exposure", [], ["--alpha", "0.2"]),
    ("exposure", [], ["--one-sided"]),
    ("exposure", [], ["--control", "A"]),
    ("compare", [], ["--control", "A"]),
    ("benefit-risk", ["--efficacy", "efficacy.csv"], ["--alpha", "0.2"]),
    ("benefit-risk", ["--efficacy", "efficacy.csv"], ["--one-sided"]),
    ("benefit-risk", ["--efficacy", "efficacy.csv"], ["--control", "A"]),
    ("soc", [], ["--level", "soc"]),
    ("hierarchy", [], ["--level", "hlt"]),
])
def test_unused_test_flags_are_usage_errors(capsys, tiny_trial_files, tmp_path, command, extra,
                                            flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *extra, *flag,
              "--episodes", str(tiny_trial_files["episodes"]),
              "--subjects", str(tiny_trial_files["subjects"]),
              "--hierarchy", str(tiny_trial_files["hierarchy"]),
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["subgroup", "interim"])
def test_unknown_dimension_lists_the_valid_ones(capsys, tiny_trial_files, tmp_path, command):
    code, _, err = run(capsys, command, "--by", "sex,blood",
                       "--episodes", str(tiny_trial_files["episodes"]),
                       "--subjects", str(tiny_trial_files["subjects"]),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.count("\n") == 1 and "'blood'; valid: sex, age," in err


@pytest.mark.parametrize("command", ["subgroup", "interim"])
def test_blank_dimension_entries_are_dropped(capsys, tiny_trial_files, tmp_path, command):
    trial = ["--episodes", str(tiny_trial_files["episodes"]),
             "--subjects", str(tiny_trial_files["subjects"])]
    outs = []
    for by in ("sex,", "sex"):
        code, out, err = run(capsys, command, "--by", by, *trial, "--out", str(tmp_path / by))
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] and "sex=F" in outs[0]


@pytest.mark.parametrize("argv, spaced, tidy", [
    (["compare"], ["--arms", "A,B,"], ["--arms", "A,B"]),
    (["drilldown", "--soc", "gastrointestinal disorders"], ["--arms", "A,,B"], ["--arms", "A,B"]),
    (["interim"], ["--looks", "50,,150"], ["--looks", "50,150"]),
    (["interim", "--by", "age"], ["--age-cuts", " 40,,50, "], ["--age-cuts", "40,50"]),
    (["subgroup", "--by", "age"], ["--age-cuts", "40,,50"], ["--age-cuts", "40,50"]),
])
def test_blank_list_entries_are_dropped(capsys, tiny_trial_files, tmp_path, argv, spaced, tidy):
    trial = ["--episodes", str(tiny_trial_files["episodes"]),
             "--subjects", str(tiny_trial_files["subjects"]),
             "--hierarchy", str(tiny_trial_files["hierarchy"])]
    outs = []
    for i, flag in enumerate((spaced, tidy)):
        code, out, err = run(capsys, *argv, *flag, *trial, "--out", str(tmp_path / str(i)))
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, message", [
    (["compare", "--arms", "A,"], "--arms needs exactly two comma-separated labels"),
    (["interim", "--looks", "50,x"], "--looks: 'x' is not an integer"),
    (["interim", "--looks", "50,1.5"], "--looks: '1.5' is not an integer"),
    (["interim", "--by", "age", "--age-cuts", "40,old"], "--age-cuts: 'old' is not a number"),
    (["subgroup", "--by", "age", "--age-cuts", "forty"], "--age-cuts: 'forty' is not a number"),
])
def test_bad_list_entry_is_config_error_naming_the_flag(capsys, tiny_trial_files, tmp_path, argv,
                                                       message):
    code, _, err = run(capsys, *argv, "--episodes", str(tiny_trial_files["episodes"]),
                       "--subjects", str(tiny_trial_files["subjects"]),
                       "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == f"adx: configuration error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_negative_scenario_seed_is_input_error(capsys, tmp_path, command):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nseed = -4\n\n[arm A]\nprobs = 0.5 0.5\n")
    code, _, err = run(capsys, command, "--scenario", str(scenario), "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == "adx: error: scenario seed must be >= 0, got -4\n"


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


# Every command's flags, written out by hand rather than read from cli, so
# that dropping or changing a flag in the declarations fails here. A name
# ending in "!" is required.
_TRIAL = ("--episodes!", "--subjects!", "--hierarchy", "--unmapped", "--out", "--format")
EXPECTED_FLAGS = {
    "summary": (*_TRIAL, "--level", "--alpha", "--one-sided", "--control"),
    "compare": (*_TRIAL, "--level", "--alpha", "--one-sided", "--arms"),
    "subgroup": (*_TRIAL, "--level", "--alpha", "--one-sided", "--control",
                 "--by!", "--age-cuts", "--min-episodes"),
    "soc": (*_TRIAL, "--alpha", "--one-sided", "--control"),
    "drilldown": (*_TRIAL, "--soc!", "--top", "--arms"),
    "hierarchy": (*_TRIAL, "--alpha", "--one-sided", "--control"),
    "interim": (*_TRIAL, "--level", "--alpha", "--one-sided", "--control",
                "--looks", "--by", "--age-cuts"),
    "exposure": (*_TRIAL, "--level", "--max-cycle", "--exposure-file"),
    "benefit-risk": (*_TRIAL, "--level", "--efficacy!", "--arms", "--bootstrap", "--seed",
                     "--ci", "--bootstrap-unit"),
    "simulate": ("--scenario!", "--out", "--format"),
    "validate": ("--scenario!", "--check", "--replicates", "--out", "--format"),
}
# The default, type, choices and nargs of each flag that are not None.
EXPECTED_SPEC = {
    "--unmapped": dict(default="reject", choices=["reject", "synthetic"]),
    "--out": dict(default="."),
    "--format": dict(default="text"),
    "--level": dict(default="pt", choices=["pt", "hlt", "hlgt", "soc"]),
    "--alpha": dict(default=0.05, type=float),
    "--one-sided": dict(default=False, nargs=0),
    "--age-cuts": dict(default="40,50,65"),
    "--min-episodes": dict(default=10, type=int),
    "--top": dict(default=2, type=int),
    "--max-cycle": dict(type=int),
    "--bootstrap": dict(type=int),
    # None when not given, so that one given without --bootstrap is found;
    # with --bootstrap, cli._check_config gives them 0, 0.95 and "episode"
    "--seed": dict(type=int),
    "--ci": dict(type=float),
    "--bootstrap-unit": dict(choices=["episode", "subject"]),
    "--check": dict(default="both", choices=["variance", "normality", "both"]),
    "--replicates": dict(default=1000, type=int),
}


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_command_help_lists_exactly_its_flags(capsys, command):
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _help(capsys, command)))
    assert listed == {"--help"} | {f.rstrip("!") for f in EXPECTED_FLAGS[command]}
    assert cli.COMMANDS[command].__name__ == "cmd_" + command.replace("-", "_")


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_command_flags_keep_defaults_types_and_choices(command):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    actions = {a.option_strings[0]: a for a in sub.choices[command]._actions}
    for flag in EXPECTED_FLAGS[command]:
        action = actions[flag.rstrip("!")]
        spec = {key: getattr(action, key) for key in ("default", "type", "choices", "nargs")}
        assert spec == {"default": None, "type": None, "choices": None, "nargs": None,
                        **EXPECTED_SPEC.get(flag.rstrip("!"), {})}, flag
        assert action.required == flag.endswith("!"), flag


def test_help_lists_every_command(capsys):
    out = _help(capsys)
    assert len(cli.COMMANDS) == 11
    for name, (line, _) in cli.DECLARED.items():
        assert re.search(rf"^ +{name} +{re.escape(line)}$", out, re.M), name


def _parse_exit(capsys, parse, argv):
    """The exit code, standard output and standard error of ``parse(argv)``."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


# main builds only the invoked command's flags; what it prints must not tell
@pytest.mark.parametrize("argv", [
    ["--help"], [], ["--version"], ["sumary"], ["sumary", "--episodes", "e.csv"],
    ["--bogus", "summary"], ["summary"], ["subgroup", "--episodes", "e.csv", "--subjects", "s.csv"],
    ["drilldown", "--top", "x"], ["summary", "--by", "sex"], ["simulate", "--scenario"],
    *([command, "--help"] for command in sorted(EXPECTED_FLAGS)),
], ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, argv):
    assert (_parse_exit(capsys, main, argv)
            == _parse_exit(capsys, cli.build_parser().parse_args, argv))


def test_subgroup_requires_by(capsys, tiny_trial_files, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["subgroup", "--episodes", str(tiny_trial_files["episodes"]),
              "--subjects", str(tiny_trial_files["subjects"]), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "the following arguments are required: --by" in capsys.readouterr().err


def test_hierarchy_reports_degenerate_comparisons(capsys, uniform_arms, tmp_path):
    hierarchy = write_csv(tmp_path / "h.csv", ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
                          [["x", "h1", "g1", "s1"], ["y", "h2", "g1", "s1"]])
    out_dir = tmp_path / "o"
    code, out, _ = run(capsys, "hierarchy", *uniform_arms, "--hierarchy", str(hierarchy),
                       "--out", str(out_dir), "--format", "text,json-lines")
    assert code == 0
    assert ("note: not compared, both profiles uniform (se_diff 0): "
            "A vs B at pt; A vs B at hlt; A vs B at hlgt") in out.splitlines()
    recs = _strict_jsonl(out_dir / "hierarchy.jsonl")
    assert [r for r in recs if r["record"] in ("comparison", "degenerate_comparison")] == [
        {"record": "degenerate_comparison", "arm_1": "A", "arm_2": "B", "level": level}
        for level in ("pt", "hlt", "hlgt")]


# A field over the csv module's default limit (131,072 characters) and a
# Latin-1 byte: each is one line naming the file, exit 2, in every loader.
UNREADABLE = {
    "long_field": (("x" * 200_000 + "\n").encode(), "field limit (131072), the csv module's default"),
    "latin1": ("caf\xe9\n".encode("latin-1"), "not UTF-8 text"),
}


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
@pytest.mark.parametrize("which", ["episodes", "subjects", "hierarchy"])
def test_unreadable_csv_is_one_line_input_error(capsys, tiny_trial_files, tmp_path, which, fault):
    line, reason = UNREADABLE[fault]
    path = tiny_trial_files[which]
    path.write_bytes(path.read_bytes() + line)
    code, _, err = run(capsys, "summary", "--episodes", str(tiny_trial_files["episodes"]),
                       "--subjects", str(tiny_trial_files["subjects"]),
                       "--hierarchy", str(tiny_trial_files["hierarchy"]),
                       "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.count("\n") == 1 and str(path) in err and reason in err
    if fault == "long_field":  # named by the physical line it is on, the last one
        last_line = len(path.read_bytes().splitlines())
        assert err.startswith(f"adx: input error: {path}:{last_line}: ")


@pytest.mark.parametrize("which", ["episodes", "subjects"])
def test_unreadable_csv_header_is_line_1(capsys, tiny_trial_files, tmp_path, which):
    path = tiny_trial_files[which]
    path.write_bytes(b"x" * 200_000 + b"," + path.read_bytes())
    code, _, err = run(capsys, "summary", "--episodes", str(tiny_trial_files["episodes"]),
                       "--subjects", str(tiny_trial_files["subjects"]),
                       "--out", str(tmp_path / "o"))
    assert code == 2 and err.startswith(f"adx: input error: {path}:1: unreadable CSV: field larger")


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
def test_unreadable_exposure_file_is_input_error(capsys, tiny_trial_files, tmp_path, fault):
    line, reason = UNREADABLE[fault]
    exposure = write_csv(tmp_path / "exposure.csv", ["subject_id", "last_cycle"], [["S1", "3"]])
    exposure.write_bytes(exposure.read_bytes() + line)
    code, _, err = run(capsys, "exposure", "--episodes", str(tiny_trial_files["episodes"]),
                       "--subjects", str(tiny_trial_files["subjects"]),
                       "--exposure-file", str(exposure), "--out", str(tmp_path / "o"))
    assert code == 2 and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
def test_unreadable_efficacy_file_is_input_error(capsys, efficacy_trial, fault):
    line, reason = UNREADABLE[fault]
    files, write = efficacy_trial
    eff = write([["Arm1", "pfs", "5.3", "true"], ["Arm2", "pfs", "3.5", "true"]])
    eff.write_bytes(eff.read_bytes() + line)
    code, _, err = _benefit_risk(capsys, files, eff, "--arms", "Arm1,Arm2")
    assert code == 2 and err.count("\n") == 1 and reason in err


def test_unreadable_csv_prints_no_traceback(tiny_trial_files, tmp_path):
    episodes = tiny_trial_files["episodes"]
    episodes.write_bytes(episodes.read_bytes() + UNREADABLE["long_field"][0])
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "adx.cli", "summary", "--episodes", str(episodes),
         "--subjects", str(tiny_trial_files["subjects"]), "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("which", ["episodes", "subjects", "hierarchy", "exposure", "efficacy"])
def test_input_path_that_is_a_directory_is_input_error(capsys, tiny_trial_files, tmp_path, which):
    files = {k: str(v) for k, v in tiny_trial_files.items()}
    files[which] = str(tmp_path / "a_directory")
    (tmp_path / "a_directory").mkdir()
    command = {"exposure": ["exposure", "--exposure-file"],
               "efficacy": ["benefit-risk", "--arms", "A,B", "--efficacy"]}
    argv = [*command[which], files[which]] if which in command else ["summary"]
    code, out, err = run(capsys, *argv, "--episodes", files["episodes"],
                         "--subjects", files["subjects"], "--hierarchy", files["hierarchy"],
                         "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == f"adx: input error: [Errno 21] Is a directory: '{files[which]}'\n"


@pytest.mark.parametrize("out", ["a_file", "a_file/sub"])
@pytest.mark.parametrize("command", ["summary", "simulate"])
def test_out_naming_a_file_is_config_error(capsys, tiny_trial_files, tmp_path, out, command):
    (tmp_path / "a_file").write_text("kept\n")
    scenario = tmp_path / "scenario.ini"
    scenario.write_text("[scenario]\nseed = 1\n\n[arm A]\nprobs = 0.5 0.5\nsubjects = 3\n")
    inputs = {"summary": ["--episodes", str(tiny_trial_files["episodes"]),
                          "--subjects", str(tiny_trial_files["subjects"])],
              "simulate": ["--scenario", str(scenario)]}
    code, stdout, err = run(capsys, command, *inputs[command], "--out", str(tmp_path / out))
    assert (code, stdout) == (3, "")
    assert err == (f"adx: configuration error: --out {tmp_path / out}: "
                   f"{tmp_path / 'a_file'} is a file, not a directory\n")
    assert (tmp_path / "a_file").read_text() == "kept\n"


# A header-only episodes file: each command's outcome as it stands. The
# outcomes differ from command to command; making them agree is left open.
@pytest.mark.parametrize("argv, code, err", [
    (["summary"], 0, ""),
    (["subgroup", "--by", "sex"], 0, ""),
    (["soc"], 0, ""),
    (["drilldown", "--soc", "gastrointestinal disorders"], 0, ""),
    (["compare"], 4, "adx: degenerate statistics: profile has no episodes\n"),
    (["benefit-risk"], 4, "adx: degenerate statistics: profile has no episodes\n"),
    (["hierarchy"], 4, "adx: degenerate statistics: no episodes in arm(s): A, B\n"),
    (["interim"], 2, "adx: error: no episode carries onset_day\n"),
    (["exposure"], 2, "adx: error: no episode carries a cycle number\n"),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_header_only_episodes_outcome(capsys, tiny_trial_files, tmp_path, argv, code, err):
    episodes = write_csv(tmp_path / "empty.csv", ["subject_id", "arm", "pt_term", "onset_day",
                                                  "cycle", "serious", "severity", "tier"], [])
    if argv[0] == "benefit-risk":
        argv = [*argv, "--efficacy", str(write_csv(
            tmp_path / "efficacy.csv", ["arm", "endpoint_label", "value", "higher_is_better"],
            [["A", "pfs", "5", "true"], ["B", "pfs", "3", "true"]]))]
    got = run(capsys, *argv, "--episodes", str(episodes),
              "--subjects", str(tiny_trial_files["subjects"]),
              "--hierarchy", str(tiny_trial_files["hierarchy"]), "--out", str(tmp_path / "o"))
    assert (got[0], got[2]) == (code, err)
    if code == 0:  # tables without an estimate
        assert "." not in got[1].replace("(0.0%)", "")
