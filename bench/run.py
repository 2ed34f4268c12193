"""Benchmark of the ``adx`` command line on seeded synthetic trials.

    python3 bench/run.py --workload trial-report --seed 1 --seconds 20 --trace 0

One client, closed loop: the commands of a workload run one after another,
each in a fresh ``python -m adx.cli`` child with ``src`` on PYTHONPATH, and
the next starts when the previous one exits. The workload's commands run
round robin, one full pass and then for as long as ``--seconds`` allows. A
fixed reference task runs between the steps, and the times are reported at
its speed (see ``REFERENCE``). Every output is checked (see ``oracle.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead runs
the same commands in-process through ``adx.cli.main``, each one plain and
then traced, and reports per-layer metrics (see ``layers.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import layers
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = BENCH / "scenarios"

SETUP_REPEATS = 3
# A fixed task that runs no adx code: it imports numpy and scipy.stats, as
# every command does, then makes small numpy draws and runs a dict loop. It
# runs in a fresh child before the set-ups and after each set-up and each
# command. The host's speed drifts by a quarter and more over minutes, and
# the reference drifts with it; so a run's times are reported at reference
# speed, scaled by REFERENCE_S over the run's mean reference time.
REFERENCE = """\
import numpy as np, scipy.stats
p = np.full(400, 1 / 400)
for r in range(400):
    c = np.random.default_rng([3, r]).multinomial(5000, p)
    q = c[c > 0] / 5000
    float(-(q * np.log(q)).sum())
d = {}
for i in range(300000):
    k = str(i % 5000)
    d[k] = d.get(k, 0) + i * 0.5
"""
REFERENCE_S = 1.5  # the reference's time on an unloaded machine, rounded
CHILD_TIMEOUT_S = inputs.CHILD_TIMEOUT_S
FORMATS = "text,json-lines,csv"
# report.write_csv does not quote its cells (ROADMAP item 2), so a cell with
# a comma breaks the row: subgroup's age bins such as [40,50) and soc's
# comma-bearing SOC labels. These two commands therefore write no CSV, so
# that no command of a workload fails; test_bench.py pins the defect.
NO_CSV = {"subgroup", "soc"}
FORMATS_NO_CSV = "text,json-lines"
INTERIM_LOOKS = 12
MAX_CYCLE = 15
BOOTSTRAP_REPLICATES = 1000
VALIDATE_REPLICATES = 1000


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    outputs: tuple[str, ...]  # files the command must write into --out


@dataclass(frozen=True)
class Workload:
    scenario: Path  # scenario template; its seed is replaced by --seed
    commands: Callable[[inputs.TrialFiles, int], list[Command]]
    checks: Callable[[inputs.TrialFiles, int], dict]  # label -> check(records, out_dir)


def _report(label: str, name: str, argv: list[str], formats: str = FORMATS) -> Command:
    """A command writing ``name`` in each of ``formats``."""
    suffix = {"text": "txt", "json-lines": "jsonl", "csv": "csv"}
    return Command(label, [*argv, "--format", formats],
                   tuple(f"{name}.{suffix[f]}" for f in formats.split(",")))


def _looks(scenario: Path) -> list[int]:
    cfg = configparser.ConfigParser()
    cfg.read(scenario)
    span = min(cfg.getint(s, "onset_span") for s in cfg.sections() if s.startswith("arm "))
    return [round(span * i / INTERIM_LOOKS) for i in range(1, INTERIM_LOOKS + 1)]


def _trial_report_commands(t: inputs.TrialFiles, seed: int):
    common = ["--episodes", str(t.episodes), "--subjects", str(t.subjects),
              "--hierarchy", str(t.hierarchy)]
    looks = ",".join(str(x) for x in _looks(t.scenario))
    return [_report(label, label, argv, FORMATS_NO_CSV if label in NO_CSV else FORMATS)
            for label, argv in (
        ("summary", ["summary", *common]),
        ("subgroup", ["subgroup", "--by", "sex,age,seriousness", *common]),
        ("soc", ["soc", "--control", "Placebo", *common]),
        ("hierarchy", ["hierarchy", *common]),
        ("drilldown", ["drilldown", "--soc", inputs.DRILLDOWN_SOC, *common]),
        ("interim", ["interim", "--looks", looks, *common]),
        ("exposure", ["exposure", "--max-cycle", str(MAX_CYCLE), *common]),
    )]


def _trial_report_checks(t: inputs.TrialFiles, seed: int):
    trial = oracle.Trial(t.episodes, t.hierarchy)
    return {
        "summary": lambda recs, out: oracle.check_summary(recs, trial),
        "hierarchy": lambda recs, out: oracle.check_hierarchy(recs, trial),
        "interim": lambda recs, out: oracle.check_interim(recs, trial, _looks(t.scenario)),
        "exposure": lambda recs, out: oracle.check_exposure(recs, trial, MAX_CYCLE),
    }


def _resampling_commands(t: inputs.TrialFiles, seed: int):
    base = ["benefit-risk", "--episodes", str(t.episodes), "--subjects", str(t.subjects),
            "--efficacy", str(t.efficacy), "--arms", "Active,Placebo",
            "--bootstrap", str(BOOTSTRAP_REPLICATES), "--seed", str(seed)]
    return [
        *(_report(f"benefit_risk_{unit}", "benefit_risk", [*base, "--bootstrap-unit", unit])
          for unit in ("episode", "subject")),
        Command("simulate", ["simulate", "--scenario", str(t.scenario), "--format", "json-lines"],
                ("episodes.csv", "subjects.csv", "simulate.jsonl")),
        Command("validate", ["validate", "--scenario", str(t.scenario), "--check", "both",
                             "--replicates", str(VALIDATE_REPLICATES), "--format", "text,json-lines"],
                ("validate.txt", "validate.jsonl")),
    ]


def _resampling_checks(t: inputs.TrialFiles, seed: int):
    trial = oracle.Trial(t.episodes)
    efficacy = oracle.read_efficacy(t.efficacy)
    probs = inputs.scenario_probs(t.scenario)
    check = lambda recs, out: oracle.check_benefit_risk(recs, trial, efficacy)  # noqa: E731
    return {"benefit_risk_episode": check, "benefit_risk_subject": check,
            "simulate": oracle.check_simulate,
            "validate": lambda recs, out: oracle.check_validate(recs, probs)}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "trial-report": Workload(SCENARIOS / "report.ini", _trial_report_commands, _trial_report_checks),
    "resampling": Workload(SCENARIOS / "bootstrap.ini", _resampling_commands, _resampling_checks),
}


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_child(argv: list[str], env: dict, stderr=subprocess.DEVNULL) -> dict:
    """Run one child to completion through ``spawn.py``, so that its peak RSS
    is its own: wall and CPU seconds, exit code and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawn.py"), *argv], env=env,
                            stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT, start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        out, _ = proc.communicate()
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    if proc.returncode != 0:  # killed on timeout
        return {"wall": time.perf_counter() - start, "cpu": 0.0, "code": proc.returncode, "rss": 0.0}
    return json.loads(out)


def setup(workload: Workload, seed: int, dest: Path) -> inputs.TrialFiles:
    return inputs.build_trial(workload.scenario, seed, dest, SRC)


def input_digest(t: inputs.TrialFiles) -> str:
    paths = [t.scenario, t.episodes, t.subjects, t.hierarchy, t.efficacy]
    return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()


def tail_percentile(samples: list[float]):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 99, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = (p, statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1])
    return best


class Tally:
    """Command outcomes: attempts, failures and their messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)

    def report(self) -> None:
        for msg, n in sorted(self.problems.items()):
            print(f"FAIL x{n}: {msg}")


class Reference:
    """Times REFERENCE, each time in a fresh child."""

    def __init__(self, env: dict):
        self.env = env
        self.walls: list[float] = []

    def time(self) -> None:
        res = run_child([sys.executable, "-c", REFERENCE], self.env)
        if res["code"] != 0:
            raise RuntimeError(f"the reference task exited with code {res['code']}")
        self.walls.append(res["wall"])

    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.walls)


def run_command(cmd: Command, work: Path, checker, tally: Tally) -> dict:
    """Run one command in a fresh child and check its outputs; returns the
    run_child result."""
    out = work / cmd.label
    out.mkdir(parents=True)
    err = work / f"{cmd.label}.stderr"
    with open(err, "w", encoding="utf-8") as fh:
        res = run_child(inputs.adx_argv(*cmd.argv, "--out", str(out)), inputs.adx_env(SRC), stderr=fh)
    tally.record(checker(cmd.label, out, res["code"], err.read_text(encoding="utf-8"), cmd.outputs))
    shutil.rmtree(work)
    return res


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    ref = Reference(inputs.adx_env(SRC))
    ref.time()
    setup_s, digests = [], set()
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = setup(workload, seed, work / f"setup{r}")
        setup_s.append(time.perf_counter() - start)
        digests.add(input_digest(inp))
        ref.time()
    tally = Tally()
    if len(digests) != 1:
        tally.problems["setup: inputs differ between repeats with the same seed"] += 1
    commands = workload.commands(inp, seed)
    checker = oracle.Checker(workload.checks(inp, seed))

    # The commands run round robin, each followed by the reference. After
    # the first pass, the next command starts only if a run of its median
    # length, reference included, still ends within --seconds.
    results = {c.label: [] for c in commands}
    spent = {c.label: [] for c in commands}
    start = time.perf_counter()
    for i in itertools.count():
        cmd = commands[i % len(commands)]
        if i >= len(commands) and time.perf_counter() - start + statistics.median(spent[cmd.label]) > seconds:
            break
        began = time.perf_counter()
        results[cmd.label].append(run_command(cmd, work / f"run{i}", checker, tally))
        ref.time()
        spent[cmd.label].append(time.perf_counter() - began)

    samples = {label: {k: [r[k] for r in rs] for k in ("wall", "cpu", "rss")} for label, rs in results.items()}
    print(f"{sum(len(rs) for rs in results.values())} command run(s) of {len(commands)} command(s); "
          f"setup x{SETUP_REPEATS}")
    print(f"{'command':<22}{'n':>4}{'median_s':>11}{'min_s':>9}{'cpu_s':>9}  tail")
    for label, s in samples.items():
        tail = tail_percentile(s["wall"])
        tail_txt = f"p{tail[0]:g}={tail[1]:.3f}" if tail else "n/a (fewer than 10 samples beyond p90)"
        print(f"{label:<22}{len(s['wall']):>4}{statistics.median(s['wall']):>11.3f}{min(s['wall']):>9.3f}"
              f"{statistics.median(s['cpu']):>9.3f}  {tail_txt}")
    print(f"error_rate {tally.failed}/{tally.attempted} commands")
    tally.report()
    print("setup_s: " + " ".join(f"{x:.3f}" for x in setup_s))
    print("reference_s: " + " ".join(f"{x:.3f}" for x in ref.walls))
    scale = ref.scale()
    wall_s = sum(statistics.median(s["wall"]) for s in samples.values())
    print(f"measured wall_s {wall_s:.3f}, setup_s {statistics.median(setup_s):.3f}; "
          f"times {scale:.3f} = {REFERENCE_S} s over the mean reference time")
    metrics = {
        "wall_s": (scale * wall_s, "s"),
        "peak_rss_mb": (max(statistics.median(s["rss"]) for s in samples.values()), "MB"),
        "setup_s": (scale * statistics.median(setup_s), "s"),
    }
    return {"tally": tally, "metrics": metrics, "commands": samples, "reference_s": ref.walls}


def in_process(cmd: Command, out: Path, checker, tally: Tally) -> float:
    """Run one command through ``adx.cli.main``; returns its wall time."""
    from adx import cli

    out.mkdir(parents=True)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, err = cli.main([*cmd.argv, "--out", str(out)]), ""
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            code, err = 1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    tally.record(checker(cmd.label, out, code, err, cmd.outputs))
    shutil.rmtree(out)
    return wall


def per_layer(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    inp = setup(workload, seed, work / "setup")
    commands = workload.commands(inp, seed)
    checker = oracle.Checker(workload.checks(inp, seed))
    tally = Tally()
    env = inputs.adx_env(SRC)
    metrics = {"cli.startup_s": statistics.median(
        run_child(inputs.adx_argv("--version"), env)["wall"] for _ in range(3))}
    imp = subprocess.run([sys.executable, "-X", "importtime", "-c", "import adx.cli"], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True)
    metrics.update(layers.import_times(imp.stderr))

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adx.cli  # noqa: F401  (loads every adx module before instrumenting)

    # One untraced subprocess pass, for the accounting below; then each
    # command runs in-process plain and then traced, back to back, so that
    # the overhead is measured across the shortest possible gap in time.
    start = time.perf_counter()
    sub = {cmd.label: run_command(cmd, work / "subprocess", checker, tally)["wall"] for cmd in commands}
    plain, traced, layer_samples = [], [], []
    while not traced or time.perf_counter() - start < seconds:
        rec = spans.Recorder()
        plain.append({})
        traced.append({})
        for cmd in commands:
            plain[-1][cmd.label] = in_process(cmd, work / "plain" / cmd.label, checker, tally)
            with spans.instrument(rec, layers.targets()):
                traced[-1][cmd.label] = in_process(cmd, work / "traced" / cmd.label, checker, tally)
        layer_samples.append(layers.layer_metrics(rec.summary(), rec.counts))
    metrics.update(layers.median_metrics(layer_samples))
    plain_wall = statistics.median(sum(p.values()) for p in plain)
    traced_wall = statistics.median(sum(p.values()) for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    startup = metrics["cli.startup_s"]
    print(f"{len(traced)} in-process pass(es), each command plain and then traced")
    print(f"in-process wall: plain {plain_wall:.3f}s, traced {traced_wall:.3f}s; "
          f"layer self times sum to {sum(metrics[f'{x}.self_s'] for x in layers.LAYERS):.3f}s")
    print(f"{'command':<22}{'subprocess_s':>13}{'startup_s':>11}{'in_process_s':>14}{'residual_s':>12}")
    for cmd in commands:
        own = statistics.median(p[cmd.label] for p in plain)
        print(f"{cmd.label:<22}{sub[cmd.label]:>13.3f}{startup:>11.3f}{own:>14.3f}"
              f"{sub[cmd.label] - startup - own:>+12.3f}")
    accounting = {"subprocess_s": sum(sub.values()),
                  "startup_plus_in_process_s": len(commands) * startup + plain_wall}
    print(f"accounting: subprocess {accounting['subprocess_s']:.3f}s, "
          f"startup + in-process {accounting['startup_plus_in_process_s']:.3f}s")
    tally.report()
    return {"tally": tally, "metrics": {k: (v, layers.unit_of(k)) for k, v in metrics.items()},
            "accounting": accounting}


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a work directory of its own, removed at the end."""
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        return (per_layer if trace else end_to_end)(WORKLOADS[name], seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    inputs.pin_hash_seed()
    # Turn SIGTERM into SystemExit, so the running child is killed and the work files go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "adx" / "cli.py").is_file():
        print(f"bench: no adx sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
