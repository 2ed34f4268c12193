"""The layers of ``src/adx`` as the traced run sees them.

Each layer is one module; its spans wrap the module's public functions,
timed from outside the program. ``<layer>.self_s`` is the time spent in a
layer's spans minus the time of the spans they call, so the self times of
all layers add up to the time spent inside ``cli.main``.
"""
from __future__ import annotations

import os
import re
import statistics

LAYERS = ("cli", "data", "entropy", "cohorts", "temporal", "benefit_risk", "simulate", "report")


def _rows(counts, result, args):
    counts["data.rows_parsed"] += len(result)


def _tallied(counts, result, args):
    counts["entropy.episodes_tallied"] += len(args["episodes"])


def _cells(counts, result, args):
    counts["cohorts.cells"] += len(result.estimates)


def _drilldown_cells(counts, result, args):
    counts["cohorts.cells"] += result.total_types * len(result.arms)


def _interim_looks(counts, result, args):
    counts["temporal.looks"] += len(result.schedule.cutoff_days)


def _exposure_looks(counts, result, args):
    counts["temporal.looks"] += result.max_cycle


def _bootstrap(counts, result, args):
    counts["benefit_risk.replicates"] += args["replicates"]


def _drawn(counts, result, args):
    counts["simulate.replicates_drawn"] += args["replicates"] * len(args["scenario"].arms)


def _written(counts, result, args):
    counts["report.files_written"] += 1
    counts["report.bytes_written"] += os.path.getsize(args["path"])


def targets():
    """``(module, attribute, span name, counter)`` for every traced function."""
    from adx import benefit_risk, cli, cohorts, data, entropy, report, simulate, temporal

    spec = [
        (cli, "main", None),
        *[(cli, fn.__name__, None) for fn in cli.COMMANDS.values()],
        (data, "load_trial", None),
        (data, "load_subjects", _rows),
        (data, "load_episodes", _rows),
        (data, "HierarchyMap.from_csv", _rows),
        (data, "dataset_summary", None),
        (data, "write_trial", None),
        (entropy, "profile_from_episodes", _tallied),
        (entropy, "estimate", None),
        (entropy, "adx", None),
        (entropy, "adx_variance", None),
        (entropy, "compare", None),
        (cohorts, "subgroup_analysis", _cells),
        (cohorts, "soc_analysis", None),
        (cohorts, "drilldown", _drilldown_cells),
        (cohorts, "hierarchy_sweep", _cells),
        (temporal, "default_schedule", None),
        (temporal, "interim_series", _interim_looks),
        (temporal, "exposure_curves", _exposure_looks),
        (benefit_risk, "load_efficacy", None),
        (benefit_risk, "benefit_risk", None),
        (benefit_risk, "re_read_bootstrap_ci", _bootstrap),
        (simulate, "load_scenario", None),
        (simulate, "generate_trial", None),
        (simulate, "validate_variance", _drawn),
        (simulate, "validate_normality", _drawn),
        (report, "write_text", _written),
        (report, "write_jsonl", _written),
        (report, "write_csv", _written),
    ]
    return [(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}", count) for mod, attr, count in spec]


def layer_metrics(summary: dict, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from ``Recorder.summary()``."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_of(*names):
        return sum(a["self_s"] for n, a in summary.items() if n in names)

    m = {f"{layer}.self_s": sum(a["self_s"] for n, a in summary.items() if n.split(".")[0] == layer)
         for layer in LAYERS}
    load_s = total("data.load_episodes") + total("data.load_subjects") + total("data.HierarchyMap.from_csv")
    rows = counts["data.rows_parsed"]
    replicates = counts["benefit_risk.replicates"]
    m.update({
        "data.load_episodes_s": total("data.load_episodes"),
        "data.load_subjects_s": total("data.load_subjects"),
        "data.load_hierarchy_s": total("data.HierarchyMap.from_csv"),
        "data.validate_s": self_of("data.load_trial"),
        "data.rows_parsed": rows,
        "data.rows_per_s": rows / load_s if load_s else 0.0,
        "data.write_trial_s": total("data.write_trial"),
        "entropy.episodes_tallied": counts["entropy.episodes_tallied"],
        "cohorts.cells": counts["cohorts.cells"],
        "temporal.looks": counts["temporal.looks"],
        "benefit_risk.replicates": replicates,
        "benefit_risk.ms_per_replicate":
            1000.0 * total("benefit_risk.re_read_bootstrap_ci") / replicates if replicates else 0.0,
        "simulate.generate_s": total("simulate.generate_trial"),
        "simulate.validate_self_s": self_of("simulate.validate_variance", "simulate.validate_normality"),
        "simulate.replicates_drawn": counts["simulate.replicates_drawn"],
        "report.write_s": total("report.write_text") + total("report.write_jsonl") + total("report.write_csv"),
        "report.files_written": counts["report.files_written"],
        "report.bytes_written": counts["report.bytes_written"],
    })
    for short, name in (("profile", "profile_from_episodes"), ("estimate", "estimate"), ("adx", "adx"),
                        ("variance", "adx_variance"), ("compare", "compare")):
        m[f"entropy.{short}_s"] = total(f"entropy.{name}")
        m[f"entropy.{short}_calls"] = calls(f"entropy.{name}")
    return m


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """``cli.import_s`` and ``cli.import_scipy_s`` from ``-X importtime`` output.

    ``cli.import_scipy_s`` is the self time of every ``scipy`` module, so it
    leaves out numpy, which the toolkit imports anyway.
    """
    cli_s = scipy_s = 0.0
    for self_us, cum_us, _, name in _IMPORT_LINE.findall(stderr):
        if name == "adx.cli":
            cli_s = int(cum_us) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy_s += int(self_us) / 1e6
    return {"cli.import_s": cli_s, "cli.import_scipy_s": scipy_s}


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_frac", "ratio"), ("ms_per_replicate", "ms"),
                         ("bytes_written", "B"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def median_metrics(samples: list[dict]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
