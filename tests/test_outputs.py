"""Golden outputs: every command, in all three formats, on the tiny trial.

``golden_outputs.txt`` holds each command's exit code, stdout, stderr and
the files it writes, with the working directory shown as ``<dir>``. The
commands run in one child with PYTHONHASHSEED=0, because ``benefit-risk``
orders its rows by the hash seed (a known defect, see README.md). After an
intended output change, regenerate the file with

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/test_outputs.py > tests/golden_outputs.txt

and review its diff.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import tiny_trial, write_csv

GOLDEN = Path(__file__).with_name("golden_outputs.txt")
ESTIMATE_FIELDS = {"adx", "se", "k", "n", "eals", "seals"}
COMPARISON_FIELDS = {"diff", "se_diff", "z", "p_value", "direction"}


def _commands(d: Path) -> dict[str, list[str]]:
    """Each command's argv, in run order; ``benefit-risk`` reads what ``simulate`` wrote."""
    files = tiny_trial(d)
    simulated = d / "out" / "simulate"
    trial = ["--episodes", str(files["episodes"]), "--subjects", str(files["subjects"]),
             "--hierarchy", str(files["hierarchy"])]
    efficacy = write_csv(d / "efficacy.csv", ["arm", "endpoint_label", "value", "higher_is_better"],
                         [["A", "pfs", "11", "true"], ["B", "pfs", "7", "true"]])
    scenario = d / "scenario.ini"
    scenario.write_text("[scenario]\nseed = 5\n\n"
                        "[arm A]\nprobs = 0.5 0.3 0.2\nepisodes_per_subject = 2.0\nsubjects = 8\n\n"
                        "[arm B]\nprobs = 0.4 0.3 0.2 0.1\nepisodes_per_subject = 2.0\nsubjects = 8\n")
    return {
        "summary": ["summary", *trial],
        "compare": ["compare", *trial],
        "subgroup": ["subgroup", "--by", "sex,age", "--age-cuts", "30", "--min-episodes", "2",
                     *trial],
        "soc": ["soc", "--control", "B", *trial],
        "drilldown": ["drilldown", "--soc", "gastrointestinal disorders", "--top", "1", *trial],
        "hierarchy": ["hierarchy", *trial],
        "interim": ["interim", "--looks", "50,150", *trial],
        "exposure": ["exposure", "--max-cycle", "4", *trial],
        "simulate": ["simulate", "--scenario", str(scenario)],
        "validate": ["validate", "--scenario", str(scenario), "--replicates", "200"],
        # on the simulated trial: a tiny-trial bootstrap replicate collapses to one AE type
        "benefit-risk": ["benefit-risk", "--episodes", str(simulated / "episodes.csv"),
                         "--subjects", str(simulated / "subjects.csv"), "--efficacy", str(efficacy),
                         "--arms", "A,B", "--bootstrap", "200", "--seed", "3"],
    }


def render(d: Path) -> str:
    """Run every command into ``d/out/<name>``; their outputs as one text."""
    from adx.cli import main

    parts = []
    for name, argv in _commands(d).items():
        out_dir = d / "out" / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--format", "text,json-lines,csv", "--out", str(out_dir)])
        parts.append(f"=== {name}: exit {code}\n--- stdout\n{stdout.getvalue()}"
                     f"--- stderr\n{stderr.getvalue()}")
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
            parts.append(f"--- {path.name}\n{path.read_text(encoding='utf-8')}")
    return "".join(parts).replace(str(d), "<dir>")


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, __file__, str(d)], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return d, proc.stdout


def test_outputs_match_golden(rendered):
    _, text = rendered
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_estimate_and_comparison_records_carry_the_full_field_set(rendered):
    d, _ = rendered
    seen = set()
    for path in sorted((d / "out").glob("*/*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            need = {"estimate": ESTIMATE_FIELDS, "comparison": COMPARISON_FIELDS}.get(rec["record"])
            if need is not None:
                assert need <= set(rec), f"{path.name}: {rec['record']} lacks {need - set(rec)}"
                seen.add((path.stem, rec["record"]))
    assert {(name, "estimate") for name in ("compare", "subgroup", "soc", "hierarchy", "interim")} \
        | {(name, "comparison") for name in ("summary", "compare", "hierarchy", "interim")} <= seen


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.stdout.write(render(Path(sys.argv[1])))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(render(Path(tmp)))
