"""Command-line entry point: ``adx <subcommand> [flags]``.

``main`` prints an ``AdxError`` as one line, ``adx: <kind>: <message>``, and
exits with its ``exit_code`` (see ``errors``); any other ``ValueError`` is a
configuration error, exit 3. Each command is declared once, next to its
body (``command``), with its flags drawn from ``FLAGS``. It builds one list
of JSON-lines records, and its text and CSV are column views of it
(``_emit``).

No command needs scipy, so start-up stays small: ``cohorts``, ``temporal``,
``benefit_risk`` and ``simulate`` are imported only by the commands that use
them, and only ``benefit-risk --bootstrap`` and ``validate``, which resample
on every CPU (forking in ``kernel.replicates``), load numpy. ``main`` runs a
command with the cyclic garbage collector off; ``run``, the entry point,
then freezes the heap. The list flags (``--by``, ``--arms``, ``--looks``,
``--age-cuts``, ``--format``) are read by one helper, ``_entries``.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, data, entropy, report
from .errors import AdxError, ConfigError, ExposureBelowEpisodes, UnknownSubject

if TYPE_CHECKING:
    from . import cohorts


# The add_argument keywords of every flag. A command declares the names of the
# flags it takes with ``command``; a name ending in "!" is one it requires.
FLAGS = {
    "--episodes": dict(help="episodes CSV"),
    "--subjects": dict(help="subjects CSV"),
    "--hierarchy": dict(help="hierarchy CSV (pt,hlt,hlgt,soc)"),
    "--unmapped": dict(choices=["reject", "synthetic"], default="reject",
                       help="handling of PTs absent from the hierarchy"),
    "--out": dict(default=".", help="output directory"),
    "--format": dict(default="text", help="comma-separated subset of text,json-lines,csv"),
    "--level": dict(choices=list(data.HIERARCHY_LEVELS), default="pt",
                    help="hierarchy level the AE types are counted at"),
    "--alpha": dict(type=float, default=0.05, help="significance level of the tests"),
    "--one-sided": dict(action="store_true", help="one-sided p-values"),
    "--control": dict(help="designated control arm"),
    "--arms": dict(help="comma-separated arms: a pair for compare (default: first two arms) "
                        "and benefit-risk's Re-REAd, any list for drilldown (default: all)"),
    "--by": dict(help="comma-separated subgroup dimensions (sex,age,...)"),
    "--age-cuts": dict(default="40,50,65", help="ascending age cut points"),
    "--min-episodes": dict(type=int, default=10),
    "--soc": dict(help="SOC to drill into"),
    "--top": dict(type=int, default=2),
    "--looks": dict(help="comma-separated cutoff days (default: thirds of onset span)"),
    "--max-cycle": dict(type=int),
    "--exposure-file": dict(help="optional CSV subject_id,last_cycle"),
    "--efficacy": dict(help="CSV arm,endpoint_label,value,higher_is_better"),
    "--bootstrap": dict(type=int, help="bootstrap replicates for the Re-REAd CI"),
    "--seed": dict(type=int),
    "--ci": dict(type=float),
    "--bootstrap-unit": dict(choices=["episode", "subject"]),
    "--scenario": dict(help="scenario INI file"),
    "--check": dict(choices=["variance", "normality", "both"], default="both"),
    "--replicates": dict(type=int, default=1000),
}
TRIAL = ("--episodes!", "--subjects!", "--hierarchy", "--unmapped")
TESTS = ("--alpha", "--one-sided")

COMMANDS = {}  # command name -> its cmd_* function
DECLARED = {}  # command name -> (help line, flag names)


def command(name: str, help_line: str, *flags: str):
    """Declare ``adx name``: its help line and its flags, besides ``--out`` and ``--format``."""
    def declare(fn):
        COMMANDS[name] = fn
        DECLARED[name] = (help_line, (*flags, "--out", "--format"))
        return fn
    return declare


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``adx`` parser: a subparser for every command, with its flags
    added to every one or, given ``command``, to that command's alone."""
    parser = argparse.ArgumentParser(
        prog="adx",
        description="Adverse-event safety summarization with the Adversity Index",
    )
    parser.add_argument("--version", action="version", version=f"adx-toolkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags) in DECLARED.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags if command in (None, name) else ():
            p.add_argument(flag.rstrip("!"), required=flag.endswith("!"),
                           **FLAGS[flag.rstrip("!")])
    return parser


def _formats(args) -> set[str]:
    fmts = set(_entries(args.format, "--format"))
    if not fmts:
        raise ConfigError("--format needs at least one of text,json-lines,csv")
    bad = fmts - {"text", "json-lines", "csv"}
    if bad:
        raise ConfigError(f"unknown format(s): {', '.join(sorted(bad))}")
    return fmts


# benefit-risk's flags of the bootstrap, with the defaults that --bootstrap gives them
BOOTSTRAP_DEFAULTS = {"seed": 0, "ci": 0.95, "bootstrap_unit": "episode"}


def _check_config(args):
    _formats(args)  # so that a bad --format fails before any file is read or written
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be in (0, 1)")
    boots = getattr(args, "bootstrap", None)
    if boots is not None and boots < 200:
        raise ConfigError("bootstrap replicates must be >= 200")
    reps = getattr(args, "replicates", None)
    if reps is not None and reps < 2:
        raise ConfigError("replicates must be >= 2")
    if getattr(args, "min_episodes", 0) < 0:
        raise ConfigError(f"min_episodes must be >= 0, got {args.min_episodes}")
    if (getattr(args, "seed", None) or 0) < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    ci = getattr(args, "ci", None)
    if ci is not None and not 0.0 < ci < 1.0:
        raise ConfigError("ci level must be in (0, 1)")
    if args.command == "benefit-risk":  # a flag not given is None, and the header leaves it out
        given = [name for name in BOOTSTRAP_DEFAULTS if getattr(args, name) is not None]
        if args.bootstrap is not None:
            for name in BOOTSTRAP_DEFAULTS.keys() - given:
                setattr(args, name, BOOTSTRAP_DEFAULTS[name])
        elif given:
            unused = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(f"without --bootstrap, nothing uses {unused}")
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {args.out}: {path} is a file, not a directory")


def _load(args) -> data.TrialDataset:
    trial = data.load_trial(args.episodes, args.subjects, args.hierarchy, unmapped=args.unmapped)
    control = getattr(args, "control", None)
    if control is not None and control not in trial.arms:
        raise ConfigError(f"control arm not in dataset: {control}")
    return trial


def _entries(spec: str | None, flag: str, kind: type = str) -> list:
    """The comma-separated entries of ``flag``'s value ``spec``, blank ones
    dropped, each read as ``kind`` (``str``, ``int`` or ``float``)."""
    entries = []
    for entry in (spec or "").split(","):
        entry = entry.strip()
        if entry:
            try:
                entries.append(kind(entry))
            except ValueError:
                raise ConfigError(f"{flag}: {entry!r} is not {data._NOUNS[kind]}") from None
    return entries


def _arms(spec: str, *known: tuple, pair: bool = False) -> tuple[str, ...]:
    """Parse ``--arms A,B,...``, distinct labels, exactly two with ``pair``;
    each arm must be in every ``(arms, where)`` of ``known``."""
    arms = tuple(_entries(spec, "--arms"))
    if pair and len(arms) != 2:
        raise ConfigError("--arms needs exactly two comma-separated labels")
    repeated = [a for a, n in Counter(arms).items() if n > 1]
    if repeated:
        raise ConfigError(f"--arms repeats arm(s): {', '.join(repeated)}")
    for present, where in known:
        missing = [a for a in arms if a not in present]
        if missing:
            raise ConfigError(f"arm(s) not in {where}: {', '.join(missing)}")
    return arms


def _emit(args, records: list[dict], *pieces, csv: tuple):
    """Write ``records`` as JSON lines, the text ``pieces`` as text and the
    ``csv=(kind, columns)`` view of ``records`` as CSV, each to a file named
    after the command (``benefit-risk`` writes ``benefit_risk.*``).

    A text piece is a string or a ``(kind, columns[, footnotes])`` table of
    ``records`` (see ``report.table``). A table after the first is set off
    by a blank line, and left out when it has no rows.
    """
    fmts = _formats(args)
    cfg = {k: v for k, v in vars(args).items() if k not in ("out", "format") and v is not None}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = args.command.replace("-", "_")
    if "text" in fmts:
        body = ""
        for piece in pieces:
            if isinstance(piece, tuple):
                if body and not report.select(records, piece[0]):
                    continue
                piece = ("\n" if body else "") + report.table(records, *piece)
            body += piece
        report.write_text(out / f"{name}.txt", cfg, body)
        sys.stdout.write(body)
    if "json-lines" in fmts:
        report.write_jsonl(out / f"{name}.jsonl", cfg, records)
    if "csv" in fmts:
        report.write_csv(out / f"{name}.csv", cfg, *report.csv_view(records, *csv))


def _estimate(kind: str, est: entropy.AdxEstimate, **fields) -> dict:
    return {"record": kind, **fields, "adx": est.adx, "se": est.se, "k": est.k, "n": est.n,
            "eals": est.eals, "seals": est.seals}


def _comparison(arm_1: str, arm_2: str, res: entropy.ComparisonResult, **fields) -> dict:
    return {"record": "comparison", "arm_1": arm_1, "arm_2": arm_2, **fields, "diff": res.diff,
            "se_diff": res.se_diff, "z": res.z, "p_value": res.p_value,
            "direction": res.direction}


def _degenerate(pairs: list[tuple[str, dict]]) -> tuple[list[dict], list[str]]:
    """A record per zero-variance pair of ``pairs``, each a ``(label, record
    fields)``, and a footnote naming them by label."""
    records = [{"record": "degenerate_comparison", **fields} for _, fields in pairs]
    labels = "; ".join(label for label, _ in pairs)
    return records, [f"not compared, both profiles uniform (se_diff 0): {labels}"] if labels else []


def _cell_pair(ka: cohorts.CohortKey, kb: cohorts.CohortKey, prefix: str = "", **fields):
    """The ``_degenerate`` entry of two cohorts of one cell."""
    return (f"{prefix}{ka} vs {kb}",
            {"arm_1": ka.arm, "arm_2": kb.arm, **fields, "cell": dict(ka.filters)})


def _subgroups(args) -> tuple[list[str], cohorts.AgeBinning]:
    """The ``--by`` dimensions and the ``--age-cuts`` bins."""
    from . import cohorts
    return (_entries(args.by, "--by"),
            cohorts.AgeBinning(_entries(args.age_cuts, "--age-cuts", float)))


def _arm_estimate(trial: data.TrialDataset, arm: str, level: str) -> entropy.AdxEstimate:
    terms = trial.columns.pt_term.select(trial.in_arm(arm))
    return entropy.estimate(entropy.profile_from_episodes(terms, trial.terms_at(level)))


def _cohort(arm_field: str):
    """The cohort label of a record's ``arm_field`` and ``cell``."""
    def label(r: dict) -> str:
        from .cohorts import CohortKey
        return str(CohortKey(r[arm_field], tuple(r["cell"].items())))
    return label


# Table columns shared by several commands; see report.table.
ADX = ("adx", "adx", report.fmt_adx)
SE = ("se", "se", report.fmt_se)
ESTIMATE = [ADX, SE, ("K", "k"), ("N", "n")]
COHORT = ("cohort", _cohort("arm"))
COHORTS = [("cohort_1", _cohort("arm_1")), ("cohort_2", _cohort("arm_2"))]
DIFF = ("diff", "diff", report.fmt_adx)
Z = ("z", "z", "{:.2f}".format)
P = ("p", "p_value", report.fmt_p)


@command("summary", "per-arm counts plus AdX and the pairwise difference",
         *TRIAL, "--level", *TESTS, "--control")
def cmd_summary(args) -> None:
    from . import cohorts
    trial = _load(args)
    rep = cohorts.subgroup_analysis(trial, [], args.level, control=args.control,
                                    alpha=args.alpha, two_sided=not args.one_sided)
    est = {key.arm: e for key, e in rep.estimates.items()}
    records = [_estimate("summary", est[r["arm"]], **r) if r["arm"] in est
               else {"record": "summary", **r} for r in data.dataset_summary(trial)]
    records += [_comparison(ka.arm, kb.arm, res) for ka, kb, res in rep.comparisons]
    degenerate, notes = _degenerate([_cell_pair(ka, kb) for ka, kb in rep.degenerate])
    records += degenerate
    lines = [
        f"difference adx({ka.arm}) - adx({kb.arm}) = {report.fmt_adx(res.diff)}"
        f" ({report.fmt_se(res.se_diff)}), z = {res.z:.2f}, p = {report.fmt_p(res.p_value)}\n"
        for ka, kb, res in rep.comparisons
    ]
    columns = ["arm", "subjects", "episodes", "distinct_types"]
    with_ae = ("subjects_with_ae",
               lambda r: f"{r['subjects_with_ae']} ({r['pct_subjects_with_ae']:.1f}%)")
    _emit(args, records, ("summary", [*columns, with_ae, ADX, SE], notes), *lines,
          csv=("summary", [*columns, "subjects_with_ae"]))


@command("compare", "two-arm AdX comparison", *TRIAL, "--level", *TESTS, "--arms")
def cmd_compare(args) -> None:
    trial = _load(args)
    if args.arms:
        pair = _arms(args.arms, (trial.arms, "dataset"), pair=True)
    else:
        if len(trial.arms) < 2:
            raise ConfigError("dataset has fewer than two arms; use --arms")
        pair = list(trial.arms[:2])
    ests = [_arm_estimate(trial, a, args.level) for a in pair]
    res = entropy.compare(ests[0], ests[1], args.alpha, not args.one_sided)
    records = [_estimate("estimate", e, arm=a) for a, e in zip(pair, ests)]
    records.append(_comparison(pair[0], pair[1], res))
    line = (f"difference = {report.fmt_adx(res.diff)} ({report.fmt_se(res.se_diff)}), "
            f"z = {res.z:.2f}, p = {report.fmt_p(res.p_value)}, direction = {res.direction}\n")
    columns = ["arm", *ESTIMATE]
    _emit(args, records,
          ("estimate", [*columns, ("eals", "eals", report.fmt_eals),
                        ("seals", "seals", report.fmt_seals)]), line,
          csv=("estimate", columns))


def _subgroup_output(args, rep: cohorts.SubgroupReport) -> None:
    records = [_estimate("estimate", est, arm=key.arm, cell=dict(key.filters),
                         low_n=key in rep.low_n) for key, est in rep.estimates.items()]
    records += [_comparison(ka.arm, kb.arm, res, cell=dict(ka.filters))
                for ka, kb, res in rep.comparisons]
    degenerate, notes = _degenerate([_cell_pair(ka, kb) for ka, kb in rep.degenerate])
    records += degenerate
    records += [{"record": "empty_cohort", "arm": key.arm, "cell": dict(key.filters)}
                for key in rep.empty]
    flags = ("flags", lambda r: "low-N" if r["low_n"] else "")
    _emit(args, records,
          ("estimate", [COHORT, *ESTIMATE, flags], rep.footnotes + notes),
          ("comparison", [*COHORTS, DIFF, ("se_diff", "se_diff", report.fmt_se), Z, P]),
          csv=("estimate", [COHORT, *ESTIMATE]))


@command("subgroup", "AdX by arm x subgroup cells", *TRIAL, "--level", *TESTS, "--control",
         "--by!", "--age-cuts", "--min-episodes")
def cmd_subgroup(args) -> None:
    from . import cohorts
    trial = _load(args)
    dims, binning = _subgroups(args)
    rep = cohorts.subgroup_analysis(
        trial, dims, level=args.level, age_binning=binning, min_episodes=args.min_episodes,
        control=args.control, alpha=args.alpha, two_sided=not args.one_sided,
    )
    _subgroup_output(args, rep)


@command("soc", "SOC-wise AdX comparison", *TRIAL, *TESTS, "--control")
def cmd_soc(args) -> None:
    from . import cohorts
    trial = _load(args)
    rep = cohorts.soc_analysis(trial, control=args.control, alpha=args.alpha,
                               two_sided=not args.one_sided)
    _subgroup_output(args, rep)


# the JSON-lines name and the text label of each summary row of a drilldown
_DRILLDOWN_TOTALS = {"_others": "Others", "_zero_count_types": "AE with zero count",
                     "_total": "Total"}


@command("drilldown", "leading AE types inside one SOC", *TRIAL, "--soc!", "--top", "--arms")
def cmd_drilldown(args) -> None:
    from . import cohorts
    trial = _load(args)
    arms = _arms(args.arms, (trial.arms, "dataset")) if args.arms else None
    table = cohorts.drilldown(trial, args.soc, arms, args.top)
    rows = [*table.rows, ("_others", table.others),
            ("_zero_count_types", table.zero_count_types), ("_total", table.totals)]
    records = [{"record": "drilldown", "soc": table.soc, "ae_type": pt, **counts}
               for pt, counts in rows]
    _emit(args, records,
          ("drilldown", [(f"AE (total # types {table.total_types})", "ae_type",
                          lambda t: _DRILLDOWN_TOTALS.get(t, t)), *table.arms]),
          csv=(lambda r: r["ae_type"] not in _DRILLDOWN_TOTALS, ["ae_type", *table.arms]))


@command("hierarchy", "AdX rollup across hierarchy levels", *TRIAL, *TESTS, "--control")
def cmd_hierarchy(args) -> None:
    from . import cohorts
    trial = _load(args)
    rep = cohorts.hierarchy_sweep(trial, control=args.control, alpha=args.alpha,
                                  two_sided=not args.one_sided)
    records = [_estimate("estimate", est, arm=arm, level=level)
               for (arm, level), est in rep.estimates.items()]
    records += [_comparison(a, b, res, level=level)
                for (a, b, level), res in rep.comparisons.items()]
    degenerate, notes = _degenerate([(f"{a} vs {b} at {level}",
                                      {"arm_1": a, "arm_2": b, "level": level})
                                     for a, b, level in rep.degenerate])
    records += degenerate
    records.append({"record": "propositions", "p1": rep.p1_holds, "p2": rep.p2_holds,
                    "p3": rep.p3_holds, "p4": rep.p4_holds})
    line = (
        f"\nrollup diagnostics: decline with coarsening (P1) {rep.p1_holds}; "
        f"rank preserved (P2) {rep.p2_holds}; significance propagates down (P3) {rep.p3_holds}; "
        f"non-significance propagates up (P4) {rep.p4_holds}\n"
    )
    columns = ["arm", "level", *ESTIMATE]
    _emit(args, records, ("estimate", columns, notes),
          ("comparison", ["arm_1", "arm_2", "level", P]), line, csv=("estimate", columns))


@command("interim", "cumulative AdX at interim looks", *TRIAL, "--level", *TESTS, "--control",
         "--looks", "--by", "--age-cuts")
def cmd_interim(args) -> None:
    from . import temporal

    trial = _load(args)
    schedule = None
    if args.looks:
        schedule = temporal.LookSchedule(_entries(args.looks, "--looks", int))
    dims, binning = _subgroups(args)
    series = temporal.interim_series(
        trial, schedule, dims, level=args.level, age_binning=binning, control=args.control,
        alpha=args.alpha, two_sided=not args.one_sided,
    )
    records = [_estimate("estimate", est, look=look + 1,
                         cutoff_day=series.schedule.cutoff_days[look], arm=key.arm,
                         cell=dict(key.filters))
               for (key, look), est in series.estimates.items()]
    records += [_comparison(ka.arm, kb.arm, res, look=look + 1, cell=dict(ka.filters))
                for ka, kb, look, res in series.comparisons]
    degenerate, notes = _degenerate([_cell_pair(ka, kb, f"look {look + 1}: ", look=look + 1)
                                     for ka, kb, look in series.degenerate])
    records += degenerate
    notes = [temporal.SEQUENTIAL_CAVEAT,
             f"episodes without onset_day excluded: {series.excluded_undated}", *notes]
    _emit(args, records,
          ("estimate", ["look", "cutoff_day", COHORT, *ESTIMATE], notes),
          ("comparison", ["look", *COHORTS, DIFF, Z, P]),
          csv=("estimate", ["look", ("arm", _cohort("arm")), *ESTIMATE]))


@command("exposure", "cumulative AE profile by cycle", *TRIAL, "--level", "--max-cycle",
         "--exposure-file")
def cmd_exposure(args) -> None:
    from . import temporal

    trial = _load(args)
    exposure = data.load_exposure(args.exposure_file) if args.exposure_file else None
    if exposure:  # one row per subject, so the i-th subject is on the file's line i + 2
        known = {s.subject_id for s in trial.subjects}
        for line, subject_id in enumerate(exposure, 2):
            if subject_id not in known:
                raise UnknownSubject(f"{args.exposure_file}:{line}: exposure row references "
                                     f"unknown subject {subject_id!r}")
    try:
        curves = temporal.exposure_curves(trial, args.max_cycle, exposure, level=args.level)
    except ExposureBelowEpisodes as exc:  # named by the line of its row, as above
        line = list(exposure).index(exc.subject_id) + 2
        raise ExposureBelowEpisodes(f"{args.exposure_file}:{line}: {exc}", exc.subject_id) from None
    records = [{"record": "exposure", "arm": arm, "cycle": cycle, "adx": h, "k": k, "n": n,
                "subjects_at_cycle": subj}
               for arm, rows in curves.curves.items() for cycle, h, k, n, subj in rows]
    columns = ["arm", "cycle", ADX, ("K", "k"), ("N", "n"), "subjects_at_cycle"]
    _emit(args, records,
          ("exposure", columns, [f"episodes without cycle excluded: {curves.excluded_no_cycle}"]),
          csv=("exposure", columns))


@command("benefit-risk", "REAd / Re-REAd from an efficacy file", *TRIAL, "--level",
         "--efficacy!", "--arms", "--bootstrap", "--seed", "--ci", "--bootstrap-unit")
def cmd_benefit_risk(args) -> None:
    from . import benefit_risk

    trial = _load(args)
    efficacy = benefit_risk.load_efficacy(args.efficacy)
    if args.arms:
        pairs = [_arms(args.arms, (trial.arms, "dataset"), (efficacy, "efficacy file"), pair=True)]
    else:
        arms = [a for a in trial.arms if a in efficacy]
        if len(arms) < 2:
            raise ConfigError("need two arms with efficacy values (or --arms)")
        pairs = [(a, arms[-1]) for a in arms[:-1]]
    ests = {arm: _arm_estimate(trial, arm, args.level) for arm in {a for p in pairs for a in p}}
    result = benefit_risk.benefit_risk(ests, efficacy, pairs)
    records = [{"record": "read", "arm": arm, "benefit": efficacy[arm].benefit,
                "adx": ests[arm].adx, "read": r}
               for arm, r in result.read_values.items()]
    lines = []
    for (a, b), rr in result.re_read_values.items():
        line = f"re-read({a}/{b}) = {rr:.2f}"
        rec = {"record": "re_read", "arm_1": a, "arm_2": b, "re_read": rr}
        if args.bootstrap:
            lo, hi = benefit_risk.re_read_bootstrap_ci(
                trial, efficacy, (a, b), level=args.ci, replicates=args.bootstrap,
                seed=args.seed, unit=args.bootstrap_unit, hierarchy_level=args.level,
            )
            line += (f", {args.ci:.0%} bootstrap CI [{lo:.2f}, {hi:.2f}] "
                     f"({args.bootstrap} replicates, seed {args.seed})")
            rec.update(ci_lo=lo, ci_hi=hi, ci_level=args.ci,
                       replicates=args.bootstrap, seed=args.seed, unit=args.bootstrap_unit)
        lines.append(line + "\n")
        records.append(rec)
    columns = ["arm", ("benefit", "benefit", "{:g}".format), ADX,
               ("read", "read", "{:.3f}".format)]
    _emit(args, records, ("read", columns), *lines, csv=("read", columns))


@command("simulate", "generate a synthetic trial from a scenario file", "--scenario!")
def cmd_simulate(args) -> None:
    from . import simulate

    scenario = simulate.load_scenario(args.scenario)
    trial = simulate.generate_trial(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.write_trial(trial, out / "episodes.csv", out / "subjects.csv")
    subjects = Counter(map(itemgetter(1), trial.subjects))
    records = [{"record": "simulated", "arm": arm, "subjects": subjects[arm],
                "episodes": trial.columns.arm.count(arm), "seed": scenario.seed}
               for arm in trial.arms]
    columns = ["arm", "subjects", "episodes"]
    _emit(args, records, ("simulated", columns), csv=("simulated", columns))


def _validate_notes(r: dict) -> str:
    if r.get("ks_distance") is not None:
        return f"ks={r['ks_distance']:.4f}"
    return "degenerate (uniform)" if r["degenerate"] else ""


@command("validate", "Monte Carlo validation of variance/normality", "--scenario!", "--check",
         "--replicates")
def cmd_validate(args) -> None:
    from . import simulate

    scenario = simulate.load_scenario(args.scenario)
    if args.check == "variance":
        rep = simulate.validate_variance(scenario, args.replicates)
    else:  # a normality record is the variance record of the same draws plus three fields
        rep = simulate.validate_normality(scenario, args.replicates,
                                          flag_uniform=args.check == "both")
    records = []
    for kind in ("variance", "normality") if args.check == "both" else (args.check,):
        for av in rep.arms:
            rec = {"record": f"validate_{kind}", **av._asdict()}
            if kind == "variance":  # the variance check leaves these unset
                del rec["skew"], rec["excess_kurtosis"], rec["ks_distance"]
            records.append(rec)
    f4, f5 = "{:.4f}".format, "{:.5f}".format
    columns = [("check", lambda r: r["record"][len("validate_"):]), "arm",
               ("true_adx", "true_adx", f4), ("mean_adx", "mean_adx", f4), ("sd", "sd_adx", f5),
               ("mean_se", "mean_analytic_se", f5)]
    bias = ("bias", "bias", "{:+.5f}".format)
    sd_se = ("sd/se", lambda r: "n/a" if r["sd_over_se"] is None else f"{r['sd_over_se']:.3f}")
    _emit(args, records, (lambda r: True, [*columns, sd_se, bias, ("notes", _validate_notes)]),
          csv=(lambda r: True,
               [*columns, ("sd/se", "sd_over_se"), bias, "ks_distance", "degenerate"]))


def main(argv: list[str] | None = None) -> int:
    # A command makes no reference cycles per row, so the cyclic collector
    # would only cost time; the caller's setting is restored on return.
    collecting = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else argv
        # the first argument not an option names the command: adx itself has no option values
        args = build_parser(next((a for a in argv if not a.startswith("-")), "")).parse_args(argv)
        _check_config(args)
        COMMANDS[args.command](args)
        return 0
    except AdxError as exc:
        print(f"adx: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"adx: {ConfigError.kind}: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """``main`` for the ``adx`` script and ``python -m adx.cli``. No adx code
    calls BLAS, so numpy's BLAS starts no worker thread unless the user asks
    for threads. The process ends next, so the heap is frozen: the collection
    at shutdown then skips it."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    code = main()
    gc.freeze()  # not in main, which callers also run in-process
    return code


if __name__ == "__main__":
    sys.exit(run())
