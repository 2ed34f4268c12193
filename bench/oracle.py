"""Output checks for the benchmark, with an independent numpy oracle.

Every command's outputs are checked for:

- presence: each file the command's ``--format`` asks for is written;
- strict JSON lines: each ``.jsonl`` line parses, and NaN or Infinity
  is rejected;
- RFC-4180 CSV: each ``.csv`` reads back with ``csv.reader`` and every row
  has the header's field count (leading ``#`` lines are the header echo);
- determinism: every file is byte-identical to the same command's first run
  in the benchmark invocation;
- full-precision AdX/SE (and Re-REAd, true AdX) against values recomputed
  here from the generated CSVs and scenario, without importing ``adx``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

_WS = re.compile(r"\s+")


def normalize(text: str) -> str:
    """The toolkit's documented term identity: trimmed, collapsed, case-folded."""
    return _WS.sub(" ", text.strip()).casefold()


def adx_se(counts) -> tuple[float, float]:
    """Plug-in entropy of a count vector and its asymptotic SE."""
    c = np.asarray([x for x in counts if x > 0], dtype=float)
    n = c.sum()
    p = c / n
    h = float(-(p * np.log(p)).sum())
    var = float((p * (np.log(p) + h) ** 2).sum() / n)
    return h, math.sqrt(var)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class CheckFailed(Exception):
    pass


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def read_jsonl(path: Path) -> list[dict]:
    """Parse JSON lines strictly: NaN, Infinity and -Infinity are errors."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                out.append(json.loads(line, parse_constant=_reject_constant))
            except ValueError as exc:
                raise CheckFailed(f"{path.name}:{i}: invalid JSON ({exc})") from None
    return out


def check_csv(path: Path) -> None:
    """Every row after the ``#`` header echo has the header's field count."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        raise CheckFailed(f"{path.name}: no CSV header")
    width = len(rows[0])
    bad = [i for i, row in enumerate(rows[1:], start=1) if len(row) != width]
    if bad:
        raise CheckFailed(
            f"{path.name}: {len(bad)} of {len(rows) - 1} rows do not have the header's "
            f"{width} fields (first: data row {bad[0]} has {len(rows[bad[0]])})"
        )


class Trial:
    """The generated episodes and hierarchy, parsed without ``adx``."""

    def __init__(self, episodes: Path, hierarchy: Path | None = None):
        with open(episodes, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.arm = np.array([r["arm"].strip() for r in rows])
        self.pt = np.array([normalize(r["pt_term"]) for r in rows])
        self.onset = np.array([int(r["onset_day"]) if r["onset_day"].strip() else -1 for r in rows])
        self.cycle = np.array([int(r["cycle"]) if r["cycle"].strip() else -1 for r in rows])
        self.levels = {"pt": self.pt}
        if hierarchy is not None:
            with open(hierarchy, newline="", encoding="utf-8") as fh:
                hmap = {normalize(r["pt_term"]): r for r in csv.DictReader(fh)}
            for level in ("hlt", "hlgt", "soc"):
                self.levels[level] = np.array([normalize(hmap[p][f"{level}_term"]) for p in self.pt])

    def counts(self, mask, level: str = "pt") -> list[int]:
        _, c = np.unique(self.levels[level][mask], return_counts=True)
        return c.tolist()


def _expect(found: dict, expected: dict, what: str, fields=("adx", "se")) -> None:
    """Each expected key is present in ``found`` with matching values."""
    missing = [k for k in expected if k not in found]
    if missing:
        raise CheckFailed(f"{what}: missing records for {missing[:3]}")
    for key, exp in expected.items():
        for field, value in zip(fields, exp):
            got = found[key][field]
            if not close(got, value):
                raise CheckFailed(f"{what} {key} {field}: {got!r} != oracle {value!r}")


def check_summary(recs: list[dict], trial: Trial) -> None:
    found = {r["arm"]: r for r in recs if r["record"] == "summary" and "adx" in r}
    expected = {arm: adx_se(trial.counts(trial.arm == arm)) for arm in np.unique(trial.arm)}
    _expect(found, expected, "summary")


def check_hierarchy(recs: list[dict], trial: Trial) -> None:
    found = {(r["arm"], r["level"]): r for r in recs if r["record"] == "estimate"}
    expected = {(arm, level): adx_se(trial.counts(trial.arm == arm, level))
                for arm in np.unique(trial.arm) for level in ("pt", "hlt", "hlgt")}
    _expect(found, expected, "hierarchy")


def check_interim(recs: list[dict], trial: Trial, looks: list[int]) -> None:
    found = {(r["arm"], r["look"]): r for r in recs if r["record"] == "estimate"}
    expected = {}
    for i, cutoff in enumerate(looks, start=1):
        dated = (trial.onset >= 0) & (trial.onset <= cutoff)
        for arm in np.unique(trial.arm[dated]):
            expected[(arm, i)] = adx_se(trial.counts(dated & (trial.arm == arm)))
    _expect(found, expected, "interim")


def check_exposure(recs: list[dict], trial: Trial, max_cycle: int) -> None:
    found = {(r["arm"], r["cycle"]): r for r in recs if r["record"] == "exposure"}
    expected = {}
    for arm in np.unique(trial.arm):
        for c in range(1, max_cycle + 1):
            mask = (trial.arm == arm) & (trial.cycle >= 1) & (trial.cycle <= c)
            counts = trial.counts(mask)
            expected[(arm, c)] = (adx_se(counts)[0], len(counts), sum(counts)) if counts else (0.0, 0, 0)
    _expect(found, expected, "exposure", fields=("adx", "k", "n"))


def read_efficacy(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["arm"].strip(): float(r["value"]) for r in csv.DictReader(fh)}


def check_benefit_risk(recs: list[dict], trial: Trial, efficacy: dict[str, float]) -> None:
    rr = [r for r in recs if r["record"] == "re_read"]
    if len(rr) != 1:
        raise CheckFailed(f"benefit-risk: {len(rr)} re_read records, expected 1")
    rec = rr[0]
    read = {arm: efficacy[arm] / adx_se(trial.counts(trial.arm == arm))[0]
            for arm in (rec["arm_1"], rec["arm_2"])}
    want = read[rec["arm_1"]] / read[rec["arm_2"]]
    if not close(rec["re_read"], want):
        raise CheckFailed(f"benefit-risk re_read {rec['re_read']!r} != oracle {want!r}")
    if not rec["ci_lo"] <= rec["re_read"] <= rec["ci_hi"]:
        raise CheckFailed(f"benefit-risk re_read {rec['re_read']!r} outside "
                          f"[{rec['ci_lo']!r}, {rec['ci_hi']!r}]")


def check_validate(recs: list[dict], probs: dict[str, np.ndarray]) -> None:
    found = defaultdict(list)
    for r in recs:
        if r["record"].startswith("validate_"):
            found[r["arm"]].append(r)
    for arm, p in probs.items():
        p = p[p > 0]
        true_adx = float(-(p * np.log(p)).sum())
        if len(found[arm]) != 2:
            raise CheckFailed(f"validate: {len(found[arm])} records for arm {arm!r}, expected 2")
        for r in found[arm]:
            if not math.isclose(r["true_adx"], true_adx, rel_tol=1e-12):
                raise CheckFailed(f"validate {arm} true_adx {r['true_adx']!r} != scenario {true_adx!r}")


def check_simulate(recs: list[dict], out: Path) -> None:
    with open(out / "episodes.csv", newline="", encoding="utf-8") as fh:
        arms = [row["arm"] for row in csv.DictReader(fh)]
    for r in recs:
        if r["record"] == "simulated" and arms.count(r["arm"]) != r["episodes"]:
            raise CheckFailed(f"simulate: episodes.csv has {arms.count(r['arm'])} rows for "
                              f"{r['arm']!r}, simulate.jsonl says {r['episodes']}")


class Checker:
    """Runs every check on one command's output directory.

    ``semantic`` maps a command label to a function of its parsed JSON-lines
    records (and output directory) that raises CheckFailed.
    """

    def __init__(self, semantic: dict):
        self.semantic = semantic
        self.first_digest: dict[str, dict[str, str]] = {}

    def __call__(self, label: str, out: Path, returncode: int, stderr: str = "",
                 outputs=()) -> list[str]:
        """Problems with one run; ``outputs`` names the files it must write."""
        if returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return [f"{label}: exit code {returncode} {tail[0]}"]
        problems = [f"{label}: {name} not written" for name in outputs if not (out / name).is_file()]
        records = []
        json_ok = True
        for path in sorted(out.iterdir()):
            try:
                if path.suffix == ".jsonl":
                    records += read_jsonl(path)
                elif path.suffix == ".csv":
                    check_csv(path)
            except CheckFailed as exc:
                problems.append(f"{label}: {exc}")
                json_ok = json_ok and path.suffix != ".jsonl"
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        first = self.first_digest.setdefault(label, digest)
        if digest != first:
            changed = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
            problems.append(f"{label}: outputs differ from the first run: {changed}")
        check = self.semantic.get(label)
        if check is not None and json_ok:
            try:
                check(records, out)
            except (CheckFailed, KeyError, TypeError) as exc:
                problems.append(f"{label}: {type(exc).__name__}: {exc}")
        return problems
