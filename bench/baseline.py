"""Run the benchmark over ten seeds and record medians and spreads.

    python3 bench/baseline.py --out bench/baseline.json

Each workload of BENCHMARK.json runs once per seed with ``--trace 0``, one
after another, then once with ``--trace 1`` on the first seed. For every
end-to-end metric the record holds the values, their median and quartiles,
and the spread (interquartile range over median) that the bounds in
BENCHMARK.json are judged against.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

import run

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.measure(workload, seed, CONFIG["run_seconds"], trace)
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "scipy": importlib.metadata.version("scipy")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write the record here as JSON")
    args = ap.parse_args()
    run.inputs.pin_hash_seed()
    record = {"machine": machine(), "run_seconds": CONFIG["run_seconds"], "seeds": list(SEEDS),
              "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    for workload in (w["name"] for w in CONFIG["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: {r['run_s']:.1f}s failed {r['tally'].failed}/{r['tally'].attempted} "
                  + " ".join(f"{k}={v:.4g}" for k, (v, _) in r["metrics"].items()), flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name][0] for r in runs]
            metrics[name] = {"values": values, **spread(values), "bound": bounds[name]}
            s = metrics[name]["spread"]
            print(f"  {name:<14} median {metrics[name]['median']:.4g}  spread {s:.3f}  "
                  f"bound {bounds[name]}  {'ok' if s <= bounds[name] / 3 else 'WIDE'}")
        commands = {label: {stat: statistics.median(statistics.median(r["commands"][label][stat]) for r in runs)
                            for stat in ("wall", "cpu")} for label in runs[0]["commands"]}
        failures: dict[str, int] = {}
        for r in runs:
            for msg, n in r["tally"].problems.items():
                key = re.sub(r"\d+ of \d+ rows", "N of M rows", msg)
                failures[key] = failures.get(key, 0) + n
        traced = run_once(workload, SEEDS[0], 1)
        record["workloads"][workload] = {
            "run_s": [round(r["run_s"], 1) for r in runs],
            "command_runs": [sum(len(c["wall"]) for c in r["commands"].values()) for r in runs],
            "reference_mean_s": [statistics.mean(r["reference_s"]) for r in runs],
            "attempted": [r["tally"].attempted for r in runs],
            "failed": [r["tally"].failed for r in runs],
            "error_rate": sum(r["tally"].failed for r in runs) / sum(r["tally"].attempted for r in runs),
            "failures": failures,
            "end_to_end": metrics,
            "command_median_s": commands,
            "per_layer": {k: v for k, (v, _) in traced["metrics"].items()},
            "accounting": traced["accounting"],
        }
        print(f"  traced run: {traced['accounting']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
