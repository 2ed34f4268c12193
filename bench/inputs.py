"""Seeded input builder for the benchmark.

A trial is built in four steps, all from the benchmark's ``--seed``:

1. the committed scenario INI is copied with its ``seed`` replaced;
2. ``adx simulate`` turns it into ``episodes.csv`` and ``subjects.csv``;
3. subject covariates (sex, age, background therapy) and episode
   attributes (seriousness, severity) are filled in;
4. a 4-level hierarchy CSV (400 PT -> 80 HLT -> 25 HLGT -> 10 SOC) and an
   efficacy CSV are written.

Some hierarchy and efficacy labels carry commas and double quotes, as
real dictionaries do. The program only ever sees the generated files.
"""
from __future__ import annotations

import configparser
import csv
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_HLT, N_HLGT, N_SOC = 80, 25, 10
CHILD_TIMEOUT_S = 170.0  # a run must end within 180 seconds

SOC_LABELS = (
    "Gastrointestinal disorders",
    "Infections and infestations",
    "Injury, poisoning and procedural complications",
    "Nervous system disorders",
    'Skin and subcutaneous tissue disorders "NEC"',
    "Respiratory, thoracic and mediastinal disorders",
    "Blood and lymphatic system disorders",
    "Musculoskeletal and connective tissue disorders",
    "General disorders, administration site conditions",
    "Metabolism and nutrition disorders",
)
# A SOC whose label has a comma, so the label also travels through argv.
DRILLDOWN_SOC = SOC_LABELS[2]


# ``benefit-risk`` orders its rows by iterating a set of arm names, so its
# output follows the hash seed (see README.md). Every process of the
# benchmark runs with this one, so that reruns of a command can be compared
# byte for byte; test_bench.py pins the defect.
HASH_SEED = "0"


def adx_env(src: Path) -> dict:
    """Environment for an ``adx`` child: ``src`` on PYTHONPATH and the hash seed pinned."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_hash_seed() -> None:
    """Re-execute this script with HASH_SEED, unless it already runs with it,
    so that in-process runs order their output as the children do."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))


def adx_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "adx.cli", *args]


def seeded_scenario(template: Path, seed: int, out: Path) -> Path:
    """Copy the scenario INI with its seed replaced by ``seed``."""
    cfg = configparser.ConfigParser()
    cfg.read(template)
    cfg.set("scenario", "seed", str(seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    return out


def scenario_probs(path: Path) -> dict[str, np.ndarray]:
    """True AE-type probability vector per arm, read independently of adx."""
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return {
        sec[4:].strip(): np.array([float(t) for t in cfg.get(sec, "probs").replace(",", " ").split()])
        for sec in cfg.sections() if sec.startswith("arm ")
    }


@dataclass(frozen=True)
class TrialFiles:
    scenario: Path
    episodes: Path
    subjects: Path
    hierarchy: Path
    efficacy: Path


def _rewrite(path: Path, fill) -> None:
    """Rewrite a CSV in place, letting ``fill(header, rows)`` edit the rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    fill(header, body)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)


def _add_covariates(files: TrialFiles, rng: np.random.Generator) -> None:
    def subjects(header, body):
        col = {c: i for i, c in enumerate(header)}
        n = len(body)
        sex = rng.choice(np.array(["F", "M", "U"]), size=n, p=[0.49, 0.49, 0.02])
        age = rng.integers(18, 86, size=n)
        therapy = rng.choice(np.array(["none", "platinum, doublet", "taxane"]), size=n)
        for row, s, a, t in zip(body, sex, age, therapy):
            row[col["sex"]], row[col["age_years"]], row[col["background_therapy"]] = s, str(a), t

    def episodes(header, body):
        col = {c: i for i, c in enumerate(header)}
        n = len(body)
        serious = rng.choice(np.array(["true", "false", ""]), size=n, p=[0.12, 0.85, 0.03])
        severity = rng.choice(np.array(["1", "2", "3", ""]), size=n, p=[0.5, 0.3, 0.15, 0.05])
        for row, s, v in zip(body, serious, severity):
            row[col["serious"]], row[col["severity"]] = s, v

    _rewrite(files.subjects, subjects)
    _rewrite(files.episodes, episodes)


def _write_hierarchy(path: Path, n_types: int, rng: np.random.Generator) -> None:
    """PT ``ae_NNN`` -> HLT -> HLGT -> SOC, each PT to one HLT at random."""
    hlt_of_pt = rng.permutation(n_types) % N_HLT
    hlgt = [f"HLGT {g:02d} " + ("conditions, not elsewhere classified" if g % 4 == 0 else "disorders")
            for g in range(N_HLGT)]
    hlt = [f'HLT {h:02d} "{"NOS" if h % 5 == 0 else "events"}"' + (", unspecified" if h % 3 == 0 else "")
           for h in range(N_HLT)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["pt_term", "hlt_term", "hlgt_term", "soc_term"])
        for i in range(n_types):
            h = int(hlt_of_pt[i])
            g = h % N_HLGT
            w.writerow([f"ae_{i + 1:03d}", hlt[h], hlgt[g], SOC_LABELS[g % N_SOC]])


def _write_efficacy(path: Path, rng: np.random.Generator) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["arm", "endpoint_label", "value", "higher_is_better"])
        w.writerow(["Active", "median PFS, months", f"{11.0 + rng.uniform(0, 1):.3f}", "true"])
        w.writerow(["Placebo", "median PFS, months", f"{7.5 + rng.uniform(0, 1):.3f}", "true"])


def build_trial(template: Path, seed: int, out: Path, src: Path) -> TrialFiles:
    """Generate one trial's inputs under ``out``; deterministic given ``seed``."""
    scenario = seeded_scenario(template, seed, out / "scenario.ini")
    files = TrialFiles(scenario, out / "episodes.csv", out / "subjects.csv",
                       out / "hierarchy.csv", out / "efficacy.csv")
    argv = adx_argv("simulate", "--scenario", str(scenario), "--out", str(out), "--format", "json-lines")
    subprocess.run(argv, env=adx_env(src), check=True, stdout=subprocess.DEVNULL, cwd=out,
                   timeout=CHILD_TIMEOUT_S)
    rng = np.random.default_rng([seed, 1])
    _add_covariates(files, rng)
    _write_hierarchy(files.hierarchy, max(len(p) for p in scenario_probs(scenario).values()), rng)
    _write_efficacy(files.efficacy, rng)
    return files
