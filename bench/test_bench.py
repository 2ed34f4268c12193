"""Tests of the benchmark itself: oracle, output checks, span arithmetic,
binding-site instrumentation and metric names.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q bench``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import oracle
import run
import spans
from adx import cohorts, entropy, report
from adx.data import AeEpisode, SubjectRecord, TrialDataset, write_trial

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_numpy_oracle_matches_estimate():
    counts = {"a": 7, "b": 5, "c": 3, "d": 1}
    est = entropy.estimate(entropy.FrequencyProfile(counts))
    h, se = oracle.adx_se(counts.values())
    assert oracle.close(h, est.adx)
    assert oracle.close(se, est.se)


def test_checker_flags_nan_jsonl_line(tmp_path):
    out = tmp_path / "summary"
    out.mkdir()
    (out / "summary.jsonl").write_text('{"record": "header"}\n{"record": "summary", "se": NaN}\n')
    problems = oracle.Checker({})("summary", out, 0)
    assert len(problems) == 1 and "summary.jsonl:2: invalid JSON" in problems[0]


def test_checker_flags_extra_csv_field(tmp_path):
    out = tmp_path / "drilldown"
    out.mkdir()
    (out / "drilldown.csv").write_text("# adx-toolkit 0.1.0\n# config: a=1, b=2\n"
                                       "ae_type,A,B\npain in extremity, left,3,4\nnausea,1,2\n")
    problems = oracle.Checker({})("drilldown", out, 0)
    assert len(problems) == 1
    assert "1 of 2 rows do not have the header's 3 fields" in problems[0]


def test_checker_flags_missing_output(tmp_path):
    out = tmp_path / "subgroup"
    out.mkdir()
    (out / "subgroup.jsonl").write_text('{"record": "header"}\n')
    problems = oracle.Checker({})("subgroup", out, 0, "", ("subgroup.jsonl", "subgroup.csv"))
    assert problems == ["subgroup: subgroup.csv not written"]


def test_checker_flags_nonzero_exit_and_changed_output(tmp_path):
    check = oracle.Checker({})
    out = tmp_path / "o"
    out.mkdir()
    (out / "x.jsonl").write_text('{"v": 1}\n')
    assert check("x", out, 0) == []
    (out / "x.jsonl").write_text('{"v": 2}\n')
    assert "differ from the first run" in check("x", out, 0)[0]
    assert "exit code 3" in check("x", out, 3, "adx: configuration error: bad\n")[0]


def test_run_child_reports_the_childs_own_peak_rss():
    parent = bytearray(200 * 2**20)  # a parent far larger than the child
    res = run.run_child([sys.executable, "-c", "x = bytearray(20 * 2**20)"], dict(os.environ))
    assert res["code"] == 0 and 20 < res["rss"] < 100, res
    del parent


def test_self_time_on_hand_built_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 11.0, 15.0, 16.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    with rec.span("cli.main"):                # 0 .. 16
        with rec.span("data.load_trial"):     # 1 .. 10
            with rec.span("entropy.adx"):     # 2 .. 4
                pass
            with rec.span("entropy.adx"):     # 5 .. 6
                pass
        with rec.span("report.write_csv"):    # 11 .. 15
            pass
    assert rec.self_times() == [3.0, 6.0, 2.0, 1.0, 4.0]
    summary = rec.summary()
    assert summary["entropy.adx"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert summary["data.load_trial"]["self_s"] == 6.0
    metrics = layers.layer_metrics(summary, rec.counts)
    assert sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS) == 16.0
    assert metrics["data.validate_s"] == 6.0


def test_instrument_wraps_every_binding_site_and_restores():
    subjects = (SubjectRecord("s1", "A", sex="F"), SubjectRecord("s2", "B", sex="M"))
    episodes = tuple(AeEpisode(sid, arm, pt) for sid, arm in (("s1", "A"), ("s2", "B"))
                     for pt in ("x", "x", "y", "z"))
    trial = TrialDataset(subjects=subjects, episodes=episodes)
    original = cohorts.estimate
    rec = spans.Recorder()
    with spans.instrument(rec, layers.targets()):
        assert cohorts.estimate is not original
        cohorts.subgroup_analysis(trial, ["sex"])
    assert cohorts.estimate is original and entropy.estimate is original
    summary = rec.summary()
    assert summary["entropy.estimate"]["calls"] == 2
    assert rec.counts["entropy.episodes_tallied"] == 8
    assert rec.counts["cohorts.cells"] == 2


@pytest.fixture
def tiny_resampling(tmp_path):
    scenario = tmp_path / "tiny.ini"
    scenario.write_text(
        "[scenario]\nseed = 0\n\n"
        "[arm Active]\nprobs = 0.4 0.3 0.2 0.1\nepisodes_per_subject = 2\nsubjects = 50\n\n"
        "[arm Placebo]\nprobs = 0.4 0.3 0.3\nepisodes_per_subject = 2\nsubjects = 50\n"
    )
    return scenario


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_listed_metric(tiny_resampling, tmp_path, trace, section):
    commands = run._resampling_commands
    if trace:
        # In-process, benefit-risk orders its rows by this process's hash
        # seed (a known defect, see below), not by the pinned one of the
        # subprocess pass it is compared with; so the traced run leaves it out.
        commands = lambda t, seed: [c for c in run._resampling_commands(t, seed)  # noqa: E731
                                    if not c.label.startswith("benefit_risk")]
    workload = run.Workload(tiny_resampling, commands, run._resampling_checks)
    measure = run.per_layer if trace else run.end_to_end
    result = measure(workload, 5, 0.0, tmp_path / "work")
    assert result["tally"].failed == 0, result["tally"].problems
    emitted = result["metrics"]
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(emitted) == set(listed)
    assert {k: u for k, (_, u) in emitted.items()} == listed


# The two program defects below are kept out of the benchmark's workloads
# (see README.md, "Known program defects"). Each test fails while its defect
# stands; once it is fixed the test passes, strict xfail turns that into a
# failure, and the marker and the benchmark's workaround should both go.

@pytest.mark.xfail(strict=True, raises=oracle.CheckFailed,
                   reason="report.write_csv does not quote cells (ROADMAP item 2)")
def test_known_defect_csv_cell_with_comma_is_not_quoted(tmp_path):
    path = tmp_path / "soc.csv"
    report.write_csv(path, {}, ["soc", "adx"], [[inputs.DRILLDOWN_SOC, 1.5], ["age=[40,50)", 2.5]])
    oracle.check_csv(path)


@pytest.mark.xfail(strict=True, reason="benefit-risk orders its rows by a set of arm names")
def test_known_defect_benefit_risk_output_follows_hash_seed(tmp_path):
    subjects = tuple(SubjectRecord(f"s{i}", arm) for i, arm in enumerate(["Active", "Placebo"] * 3))
    episodes = tuple(AeEpisode(s.subject_id, s.arm, pt) for s in subjects for pt in ("x", "y", "y"))
    write_trial(TrialDataset(subjects=subjects, episodes=episodes),
                tmp_path / "episodes.csv", tmp_path / "subjects.csv")
    (tmp_path / "efficacy.csv").write_text("arm,endpoint_label,value,higher_is_better\n"
                                           "Active,pfs,11,true\nPlacebo,pfs,7,true\n")
    outputs = []
    for hash_seed in ("0", "3"):  # these two iterate {"Active", "Placebo"} in opposite orders
        out = tmp_path / f"out{hash_seed}"
        argv = inputs.adx_argv("benefit-risk", "--episodes", str(tmp_path / "episodes.csv"),
                               "--subjects", str(tmp_path / "subjects.csv"),
                               "--efficacy", str(tmp_path / "efficacy.csv"),
                               "--arms", "Active,Placebo", "--format", "json-lines", "--out", str(out))
        env = dict(inputs.adx_env(run.SRC), PYTHONHASHSEED=hash_seed)
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        outputs.append((out / "benefit_risk.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
