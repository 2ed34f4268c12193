"""Command-line entry point: ``adx <subcommand> [flags]``.

Exit codes: 0 success, 2 input error (files, referential integrity),
3 configuration error (bad flags), 4 degenerate statistics (zero
variance / zero adversity). Outputs go to --out DIR in any of the three
formats; text also echoes to stdout.

The report commands need neither numpy nor scipy, so start-up stays
small: ``benefit_risk`` and ``simulate``, which resample with numpy, are
imported only by the commands that use them.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, cohorts, data, entropy, report, temporal
from .errors import (
    AdxError,
    ConfigError,
    DegenerateScenario,
    DegenerateVariance,
    EmptyProfile,
    InputError,
    ZeroAdversity,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_DEGENERATE = 4


def _add_trial_args(p: argparse.ArgumentParser, hierarchy: bool = True):
    p.add_argument("--episodes", required=True, help="episodes CSV")
    p.add_argument("--subjects", required=True, help="subjects CSV")
    if hierarchy:
        p.add_argument("--hierarchy", help="hierarchy CSV (pt,hlt,hlgt,soc)")
        p.add_argument(
            "--unmapped", choices=["reject", "synthetic"], default="reject",
            help="handling of PTs absent from the hierarchy",
        )


def _add_common_args(p: argparse.ArgumentParser, tests: bool = True, control: bool = True,
                     level: bool = True):
    """Output flags, plus the test flags (``--alpha``, ``--one-sided``),
    ``--control`` and ``--level`` for the commands that use them."""
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--format", default="text",
        help="comma-separated subset of text,json-lines,csv",
    )
    if level:
        p.add_argument("--level", choices=list(data.HIERARCHY_LEVELS), default="pt")
    if tests:
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--one-sided", action="store_true")
    if control:
        p.add_argument("--control", help="designated control arm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adx",
        description="Adverse-event safety summarization with the Adversity Index",
    )
    parser.add_argument("--version", action="version", version=f"adx-toolkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="per-arm counts plus AdX and the pairwise difference")
    _add_trial_args(p)
    _add_common_args(p)

    p = sub.add_parser("compare", help="two-arm AdX comparison")
    _add_trial_args(p)
    _add_common_args(p, control=False)
    p.add_argument("--arms", help="comma-separated pair, e.g. A,B (default: first two arms)")

    p = sub.add_parser("subgroup", help="AdX by arm x subgroup cells")
    _add_trial_args(p)
    _add_common_args(p)
    p.add_argument("--by", required=True, help="comma-separated dimensions (sex,age,...)")
    p.add_argument("--age-cuts", default="40,50,65", help="ascending age cut points")
    p.add_argument("--min-episodes", type=int, default=10)

    p = sub.add_parser("soc", help="SOC-wise AdX comparison")
    _add_trial_args(p)
    _add_common_args(p, level=False)

    p = sub.add_parser("drilldown", help="leading AE types inside one SOC")
    _add_trial_args(p)
    _add_common_args(p, tests=False, control=False, level=False)
    p.add_argument("--soc", required=True)
    p.add_argument("--top", type=int, default=2)
    p.add_argument("--arms", help="comma-separated arm list (default: all)")

    p = sub.add_parser("hierarchy", help="AdX rollup across hierarchy levels")
    _add_trial_args(p)
    _add_common_args(p, level=False)

    p = sub.add_parser("interim", help="cumulative AdX at interim looks")
    _add_trial_args(p)
    _add_common_args(p)
    p.add_argument("--looks", help="comma-separated cutoff days (default: thirds of onset span)")
    p.add_argument("--by", help="optional subgroup dimensions")
    p.add_argument("--age-cuts", default="40,50,65")

    p = sub.add_parser("exposure", help="cumulative AE profile by cycle")
    _add_trial_args(p)
    _add_common_args(p, tests=False, control=False)
    p.add_argument("--max-cycle", type=int)
    p.add_argument("--exposure-file", help="optional CSV subject_id,last_cycle")

    p = sub.add_parser("benefit-risk", help="REAd / Re-REAd from an efficacy file")
    _add_trial_args(p)
    _add_common_args(p, tests=False, control=False)
    p.add_argument("--efficacy", required=True, help="CSV arm,endpoint_label,value,higher_is_better")
    p.add_argument("--arms", help="pair for Re-REAd, e.g. ACTIVE,PLACEBO")
    p.add_argument("--bootstrap", type=int, help="bootstrap replicates for the Re-REAd CI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ci", type=float, default=0.95)
    p.add_argument("--bootstrap-unit", choices=["episode", "subject"], default="episode")

    p = sub.add_parser("simulate", help="generate a synthetic trial from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--format", default="text")

    p = sub.add_parser("validate", help="Monte Carlo validation of variance/normality")
    p.add_argument("--scenario", required=True)
    p.add_argument("--check", choices=["variance", "normality", "both"], default="both")
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--out", default=".")
    p.add_argument("--format", default="text")
    return parser


def _formats(args) -> set[str]:
    fmts = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = fmts - {"text", "json-lines", "csv"}
    if bad:
        raise ConfigError(f"unknown format(s): {', '.join(sorted(bad))}")
    return fmts


def _check_config(args):
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must be in (0, 1)")
    boots = getattr(args, "bootstrap", None)
    if boots is not None and boots < 200:
        raise ConfigError("bootstrap replicates must be >= 200")
    ci = getattr(args, "ci", None)
    if ci is not None and not 0.0 < ci < 1.0:
        raise ConfigError("ci level must be in (0, 1)")


def _load(args) -> data.TrialDataset:
    trial = data.load_trial(
        args.episodes, args.subjects,
        getattr(args, "hierarchy", None),
        unmapped=getattr(args, "unmapped", "reject"),
    )
    control = getattr(args, "control", None)
    if control is not None and control not in trial.arms:
        raise ConfigError(f"control arm not in dataset: {control}")
    return trial


def _arms(spec: str, *known: tuple, pair: bool = False) -> tuple[str, ...]:
    """Parse ``--arms A,B,...``, exactly two labels with ``pair``; each arm
    must be in every ``(arms, where)`` of ``known``."""
    arms = tuple(a.strip() for a in spec.split(","))
    if pair and len(arms) != 2:
        raise ConfigError("--arms needs exactly two comma-separated labels")
    for present, where in known:
        missing = [a for a in arms if a not in present]
        if missing:
            raise ConfigError(f"arm(s) not in {where}: {', '.join(missing)}")
    return arms


def _config_dict(args) -> dict:
    keep = {
        "command", "episodes", "subjects", "hierarchy", "level", "control", "alpha",
        "one_sided", "by", "age_cuts", "looks", "efficacy", "arms", "soc", "top",
        "bootstrap", "seed", "ci", "bootstrap_unit", "scenario", "check",
        "replicates", "max_cycle", "min_episodes", "unmapped", "exposure_file",
    }
    return {k: v for k, v in vars(args).items() if k in keep and v is not None}


def _emit(args, name: str, body: str, records: list[dict],
          csv_cols: list[str] | None = None, csv_rows: list[list] | None = None):
    fmts = _formats(args)
    cfg = _config_dict(args)
    out = Path(args.out)
    if "text" in fmts:
        report.write_text(out / f"{name}.txt", cfg, body)
        sys.stdout.write(body)
    if "json-lines" in fmts:
        report.write_jsonl(out / f"{name}.jsonl", cfg, records)
    if "csv" in fmts and csv_cols is not None:
        report.write_csv(out / f"{name}.csv", cfg, csv_cols, csv_rows or [])


def _sided(args) -> bool:
    return not getattr(args, "one_sided", False)


def cmd_summary(args) -> int:
    trial = _load(args)
    rows = data.dataset_summary(trial)
    rep = cohorts.subgroup_analysis(trial, [], args.level, control=args.control,
                                    alpha=args.alpha, two_sided=_sided(args))
    est = {key.arm: e for key, e in rep.estimates.items()}
    table_rows = []
    records = []
    for r in rows:
        arm = r["arm"]
        cells = [arm, str(r["subjects"]), str(r["episodes"]), str(r["distinct_types"]),
                 f"{r['subjects_with_ae']} ({r['pct_subjects_with_ae']:.1f}%)"]
        if arm in est:
            cells += [report.fmt_adx(est[arm].adx), report.fmt_se(est[arm].se)]
        else:
            cells += ["", ""]
        table_rows.append(cells)
        rec = dict(r)
        if arm in est:
            rec.update(adx=est[arm].adx, se=est[arm].se, k=est[arm].k, n=est[arm].n,
                       eals=est[arm].eals, seals=est[arm].seals)
        records.append({"record": "summary", **rec})
    body = report.render_table(
        ["arm", "subjects", "episodes", "distinct_types", "subjects_with_ae", "adx", "se"],
        table_rows,
    )
    for ka, kb, res in rep.comparisons:
        body += (
            f"difference adx({ka.arm}) - adx({kb.arm}) = {report.fmt_adx(res.diff)}"
            f" ({report.fmt_se(res.se_diff)}), z = {res.z:.2f}, p = {report.fmt_p(res.p_value)}\n"
        )
        records.append({"record": "comparison", "arm_1": ka.arm, "arm_2": kb.arm,
                        "diff": res.diff, "se_diff": res.se_diff, "z": res.z,
                        "p_value": res.p_value, "direction": res.direction})
    csv_rows = [[r["arm"], r["subjects"], r["episodes"], r["distinct_types"],
                 r["subjects_with_ae"]] for r in rows]
    _emit(args, "summary", body, records,
          ["arm", "subjects", "episodes", "distinct_types", "subjects_with_ae"], csv_rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    trial = _load(args)
    if args.arms:
        pair = _arms(args.arms, (trial.arms, "dataset"), pair=True)
    else:
        if len(trial.arms) < 2:
            raise ConfigError("dataset has fewer than two arms; use --arms")
        pair = list(trial.arms[:2])
    ests = [
        entropy.estimate(
            entropy.profile_from_episodes(trial.episodes_for_arm(a), args.level, trial.hierarchy)
        )
        for a in pair
    ]
    res = entropy.compare(ests[0], ests[1], args.alpha, _sided(args))
    rows = [
        [a, report.fmt_adx(e.adx), report.fmt_se(e.se), str(e.k), str(e.n),
         report.fmt_eals(e.eals), report.fmt_seals(e.seals)]
        for a, e in zip(pair, ests)
    ]
    body = report.render_table(["arm", "adx", "se", "K", "N", "eals", "seals"], rows)
    body += (
        f"difference = {report.fmt_adx(res.diff)} ({report.fmt_se(res.se_diff)}), "
        f"z = {res.z:.2f}, p = {report.fmt_p(res.p_value)}, direction = {res.direction}\n"
    )
    records = [
        {"record": "estimate", "arm": a, "adx": e.adx, "se": e.se, "k": e.k, "n": e.n,
         "eals": e.eals, "seals": e.seals}
        for a, e in zip(pair, ests)
    ]
    records.append({"record": "comparison", "arm_1": pair[0], "arm_2": pair[1],
                    "diff": res.diff, "se_diff": res.se_diff, "z": res.z,
                    "p_value": res.p_value, "direction": res.direction})
    csv_rows = [[a, e.adx, e.se, e.k, e.n] for a, e in zip(pair, ests)]
    _emit(args, "compare", body, records, ["arm", "adx", "se", "K", "N"], csv_rows)
    return EXIT_OK


def _subgroup_output(args, rep: cohorts.SubgroupReport, name: str) -> int:
    rows = []
    records = []
    for key, est in rep.estimates.items():
        flag = "low-N" if key in rep.low_n else ""
        rows.append([str(key), report.fmt_adx(est.adx), report.fmt_se(est.se),
                     str(est.k), str(est.n), flag])
        records.append({"record": "estimate", "arm": key.arm,
                        "cell": dict(key.filters), "adx": est.adx, "se": est.se,
                        "k": est.k, "n": est.n, "eals": est.eals, "seals": est.seals,
                        "low_n": key in rep.low_n})
    body = report.render_table(["cohort", "adx", "se", "K", "N", "flags"], rows,
                               footnotes=rep.footnotes)
    comp_rows = []
    for ka, kb, res in rep.comparisons:
        comp_rows.append([str(ka), str(kb), report.fmt_adx(res.diff),
                          report.fmt_se(res.se_diff), f"{res.z:.2f}", report.fmt_p(res.p_value)])
        records.append({"record": "comparison", "arm_1": ka.arm, "arm_2": kb.arm,
                        "cell": dict(ka.filters), "diff": res.diff, "se_diff": res.se_diff,
                        "z": res.z, "p_value": res.p_value, "direction": res.direction})
    if comp_rows:
        body += "\n" + report.render_table(
            ["cohort_1", "cohort_2", "diff", "se_diff", "z", "p"], comp_rows
        )
    for key in sorted(rep.empty, key=str):
        records.append({"record": "empty_cohort", "arm": key.arm, "cell": dict(key.filters)})
    csv_rows = [[str(k), e.adx, e.se, e.k, e.n] for k, e in rep.estimates.items()]
    _emit(args, name, body, records, ["cohort", "adx", "se", "K", "N"], csv_rows)
    return EXIT_OK


def cmd_subgroup(args) -> int:
    trial = _load(args)
    dims = [d.strip() for d in args.by.split(",") if d.strip()]
    cuts = tuple(float(c) for c in args.age_cuts.split(","))
    rep = cohorts.subgroup_analysis(
        trial, dims, level=args.level, age_binning=cohorts.AgeBinning(cuts),
        min_episodes=args.min_episodes, control=args.control,
        alpha=args.alpha, two_sided=_sided(args),
    )
    return _subgroup_output(args, rep, "subgroup")


def cmd_soc(args) -> int:
    trial = _load(args)
    rep = cohorts.soc_analysis(trial, control=args.control, alpha=args.alpha,
                               two_sided=_sided(args))
    return _subgroup_output(args, rep, "soc")


def cmd_drilldown(args) -> int:
    trial = _load(args)
    arms = _arms(args.arms, (trial.arms, "dataset")) if args.arms else None
    table = cohorts.drilldown(trial, args.soc, arms, args.top)
    rows = [[pt] + [str(counts[a]) for a in table.arms] for pt, counts in table.rows]
    rows.append(["Others"] + [str(table.others[a]) for a in table.arms])
    rows.append(["AE with zero count"] + [str(table.zero_count_types[a]) for a in table.arms])
    rows.append(["Total"] + [str(table.totals[a]) for a in table.arms])
    body = report.render_table(
        [f"AE (total # types {table.total_types})"] + table.arms, rows
    )
    records = [{"record": "drilldown", "soc": table.soc, "ae_type": pt, **counts}
               for pt, counts in table.rows]
    records.append({"record": "drilldown", "soc": table.soc, "ae_type": "_others", **table.others})
    records.append({"record": "drilldown", "soc": table.soc, "ae_type": "_zero_count_types",
                    **table.zero_count_types})
    records.append({"record": "drilldown", "soc": table.soc, "ae_type": "_total", **table.totals})
    csv_rows = [[pt] + [counts[a] for a in table.arms] for pt, counts in table.rows]
    _emit(args, "drilldown", body, records, ["ae_type"] + table.arms, csv_rows)
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    trial = _load(args)
    rep = cohorts.hierarchy_sweep(trial, control=args.control, alpha=args.alpha,
                                  two_sided=_sided(args))
    rows = []
    records = []
    for (arm, level), est in rep.estimates.items():
        rows.append([arm, level, report.fmt_adx(est.adx), report.fmt_se(est.se),
                     str(est.k), str(est.n)])
        records.append({"record": "estimate", "arm": arm, "level": level, "adx": est.adx,
                        "se": est.se, "k": est.k, "n": est.n})
    body = report.render_table(["arm", "level", "adx", "se", "K", "N"], rows)
    comp_rows = []
    for (a, b, level), res in rep.comparisons.items():
        comp_rows.append([a, b, level, report.fmt_p(res.p_value)])
        records.append({"record": "comparison", "arm_1": a, "arm_2": b, "level": level,
                        "diff": res.diff, "z": res.z, "p_value": res.p_value})
    body += "\n" + report.render_table(["arm_1", "arm_2", "level", "p"], comp_rows)
    body += (
        f"\nrollup diagnostics: decline with coarsening (P1) {rep.p1_holds}; "
        f"rank preserved (P2) {rep.p2_holds}; significance propagates down (P3) {rep.p3_holds}; "
        f"non-significance propagates up (P4) {rep.p4_holds}\n"
    )
    records.append({"record": "propositions", "p1": rep.p1_holds, "p2": rep.p2_holds,
                    "p3": rep.p3_holds, "p4": rep.p4_holds})
    csv_rows = [[arm, level, est.adx, est.se, est.k, est.n]
                for (arm, level), est in rep.estimates.items()]
    _emit(args, "hierarchy", body, records, ["arm", "level", "adx", "se", "K", "N"], csv_rows)
    return EXIT_OK


def cmd_interim(args) -> int:
    trial = _load(args)
    schedule = None
    if args.looks:
        schedule = temporal.LookSchedule(tuple(int(x) for x in args.looks.split(",")))
    dims = [d.strip() for d in args.by.split(",")] if args.by else None
    cuts = tuple(float(c) for c in args.age_cuts.split(","))
    series = temporal.interim_series(
        trial, schedule, dims, level=args.level,
        age_binning=cohorts.AgeBinning(cuts), control=args.control,
        alpha=args.alpha, two_sided=_sided(args),
    )
    rows, records, csv_rows = [], [], []
    for (key, look), est in series.estimates.items():
        cutoff = series.schedule.cutoff_days[look]
        rows.append([str(look + 1), str(cutoff), str(key), report.fmt_adx(est.adx),
                     report.fmt_se(est.se), str(est.k), str(est.n)])
        records.append({"record": "estimate", "look": look + 1, "cutoff_day": cutoff,
                        "arm": key.arm, "cell": dict(key.filters), "adx": est.adx,
                        "se": est.se, "k": est.k, "n": est.n})
        csv_rows.append([look + 1, key.arm if not key.filters else str(key),
                         est.adx, est.se, est.k, est.n])
    body = report.render_table(["look", "cutoff_day", "cohort", "adx", "se", "K", "N"], rows,
                               footnotes=series.caveats +
                               [f"episodes without onset_day excluded: {series.excluded_undated}"])
    comp_rows = []
    for ka, kb, look, res in series.comparisons:
        comp_rows.append([str(look + 1), str(ka), str(kb),
                          report.fmt_adx(res.diff), f"{res.z:.2f}", report.fmt_p(res.p_value)])
        records.append({"record": "comparison", "look": look + 1, "arm_1": ka.arm,
                        "arm_2": kb.arm, "cell": dict(ka.filters), "diff": res.diff,
                        "se_diff": res.se_diff, "z": res.z, "p_value": res.p_value})
    if comp_rows:
        body += "\n" + report.render_table(["look", "cohort_1", "cohort_2", "diff", "z", "p"],
                                           comp_rows)
    _emit(args, "interim", body, records, ["look", "arm", "adx", "se", "K", "N"], csv_rows)
    return EXIT_OK


def cmd_exposure(args) -> int:
    trial = _load(args)
    exposure = data.load_exposure(args.exposure_file) if args.exposure_file else None
    curves = temporal.exposure_curves(trial, args.max_cycle, exposure, level=args.level)
    rows, records, csv_rows = [], [], []
    for arm in sorted(curves.curves):
        for cycle, h, k, n, subj in curves.curves[arm]:
            rows.append([arm, str(cycle), report.fmt_adx(h), str(k), str(n), str(subj)])
            records.append({"record": "exposure", "arm": arm, "cycle": cycle, "adx": h,
                            "k": k, "n": n, "subjects_at_cycle": subj})
            csv_rows.append([arm, cycle, h, k, n, subj])
    body = report.render_table(
        ["arm", "cycle", "adx", "K", "N", "subjects_at_cycle"], rows,
        footnotes=[f"episodes without cycle excluded: {curves.excluded_no_cycle}"],
    )
    _emit(args, "exposure", body, records,
          ["arm", "cycle", "adx", "K", "N", "subjects_at_cycle"], csv_rows)
    return EXIT_OK


def cmd_benefit_risk(args) -> int:
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
    ests = {
        arm: entropy.estimate(
            entropy.profile_from_episodes(trial.episodes_for_arm(arm), args.level, trial.hierarchy)
        )
        for arm in {a for p in pairs for a in p}
    }
    result = benefit_risk.benefit_risk(ests, efficacy, pairs)
    rows = [[arm, f"{efficacy[arm].benefit:g}", report.fmt_adx(ests[arm].adx), f"{r:.3f}"]
            for arm, r in result.read_values.items()]
    body = report.render_table(["arm", "benefit", "adx", "read"], rows)
    records = [{"record": "read", "arm": arm, "benefit": efficacy[arm].benefit,
                "adx": ests[arm].adx, "read": r}
               for arm, r in result.read_values.items()]
    for (a, b), rr in result.re_read_values.items():
        line = f"re-read({a}/{b}) = {rr:.2f}"
        rec = {"record": "re_read", "arm_1": a, "arm_2": b, "re_read": rr}
        if args.bootstrap:
            lo, hi = benefit_risk.re_read_bootstrap_ci(
                trial, efficacy, (a, b), level=args.ci, replicates=args.bootstrap,
                seed=args.seed, unit=args.bootstrap_unit, hierarchy_level=args.level,
            )
            line += f", {args.ci:.0%} bootstrap CI [{lo:.2f}, {hi:.2f}] ({args.bootstrap} replicates, seed {args.seed})"
            rec.update(ci_lo=lo, ci_hi=hi, ci_level=args.ci,
                       replicates=args.bootstrap, seed=args.seed, unit=args.bootstrap_unit)
        body += line + "\n"
        records.append(rec)
    csv_rows = [[arm, efficacy[arm].benefit, ests[arm].adx, r]
                for arm, r in result.read_values.items()]
    _emit(args, "benefit_risk", body, records, ["arm", "benefit", "adx", "read"], csv_rows)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import simulate

    scenario = simulate.load_scenario(args.scenario)
    trial = simulate.generate_trial(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.write_trial(trial, out / "episodes.csv", out / "subjects.csv")
    body = report.render_table(
        ["arm", "subjects", "episodes"],
        [[arm, str(sum(1 for s in trial.subjects if s.arm == arm)),
          str(len(trial.episodes_for_arm(arm)))] for arm in trial.arms],
    )
    records = [{"record": "simulated", "arm": arm,
                "subjects": sum(1 for s in trial.subjects if s.arm == arm),
                "episodes": len(trial.episodes_for_arm(arm)), "seed": scenario.seed}
               for arm in trial.arms]
    _emit(args, "simulate", body, records)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import simulate

    scenario = simulate.load_scenario(args.scenario)
    records, rows = [], []
    draws = {}  # the first check draws the replicates, the second reuses them
    reports = []
    if args.check in ("variance", "both"):
        reports.append(("variance", simulate.validate_variance(scenario, args.replicates, draws)))
    if args.check in ("normality", "both"):
        reports.append(("normality", simulate.validate_normality(
            scenario, args.replicates, draws, flag_uniform=args.check == "both")))
    for kind, rep in reports:
        for av in rep.arms:
            sd_over_se = "n/a" if av.sd_over_se is None else f"{av.sd_over_se:.3f}"
            row = [kind, av.arm, f"{av.true_adx:.4f}", f"{av.mean_adx:.4f}",
                   f"{av.sd_adx:.5f}", f"{av.mean_analytic_se:.5f}",
                   sd_over_se, f"{av.bias:+.5f}"]
            if av.ks_distance is not None:
                row.append(f"ks={av.ks_distance:.4f}")
            elif av.degenerate:
                row.append("degenerate (uniform)")
            else:
                row.append("")
            rows.append(row)
            rec = {"record": f"validate_{kind}", "arm": av.arm, "true_adx": av.true_adx,
                   "replicates": av.replicates, "mean_adx": av.mean_adx, "sd_adx": av.sd_adx,
                   "mean_analytic_se": av.mean_analytic_se, "sd_over_se": av.sd_over_se,
                   "bias": av.bias, "first_order_bias": av.first_order_bias,
                   "degenerate": av.degenerate}
            if kind == "normality":
                rec.update(ks_distance=av.ks_distance, skew=av.skew,
                           excess_kurtosis=av.excess_kurtosis)
            records.append(rec)
    body = report.render_table(
        ["check", "arm", "true_adx", "mean_adx", "sd", "mean_se", "sd/se", "bias", "notes"],
        rows,
    )
    _emit(args, "validate", body, records)
    return EXIT_OK


COMMANDS = {
    "summary": cmd_summary,
    "compare": cmd_compare,
    "subgroup": cmd_subgroup,
    "soc": cmd_soc,
    "drilldown": cmd_drilldown,
    "hierarchy": cmd_hierarchy,
    "interim": cmd_interim,
    "exposure": cmd_exposure,
    "benefit-risk": cmd_benefit_risk,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_config(args)
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"adx: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateVariance, ZeroAdversity, EmptyProfile, DegenerateScenario) as exc:
        print(f"adx: degenerate statistics: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputError, FileNotFoundError) as exc:
        print(f"adx: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AdxError as exc:
        print(f"adx: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"adx: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
