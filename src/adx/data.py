"""Episode/subject data model, CSV loading and validation.

The counting unit throughout the toolkit is the AE *episode*: one recorded
occurrence of an adverse-event term in one subject. Repeated identical
(subject, term, onset_day) rows are kept as distinct episodes on purpose.
"""
from __future__ import annotations

import csv
import re
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import (
    ArmMismatch,
    InputError,
    MalformedRow,
    MissingHierarchy,
    UnknownSubject,
    UnmappedTerm,
)

HIERARCHY_LEVELS = ("pt", "hlt", "hlgt", "soc")

TIER_VALUES = ("tier1", "tier23", "untiered")

_TRIPLE_INDEX = {"hlt": 0, "hlgt": 1, "soc": 2}  # position in a PT's (hlt, hlgt, soc)

_WS = re.compile(r"\s+")


def normalize_term(text: str) -> str:
    """Case-fold, trim and collapse internal whitespace.

    Term identity everywhere in the toolkit is defined on the normalized
    form, so CSV exports that differ only in casing or spacing match.
    """
    return _WS.sub(" ", text.strip()).casefold()


class _EpisodeFields(NamedTuple):
    subject_id: str
    arm: str
    pt_term: str
    onset_day: int | None
    cycle: int | None
    serious: bool | None
    severity: int | None
    tier: str


class AeEpisode(_EpisodeFields):
    """One AE episode, an immutable named tuple.

    The constructor normalizes ``pt_term`` and checks the values;
    ``load_episodes`` runs the same checks once per distinct CSV value and
    builds rows with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, subject_id: str, arm: str, pt_term: str, onset_day: int | None = None,
                cycle: int | None = None, serious: bool | None = None,
                severity: int | None = None, tier: str = "untiered"):
        pt_term = _checked_pt(pt_term)
        _check_onset_day(onset_day)
        _check_cycle(cycle)
        _check_tier(tier)
        return tuple.__new__(cls, (subject_id, arm, pt_term, onset_day, cycle, serious, severity, tier))


def _checked_pt(pt_term: str) -> str:
    pt = normalize_term(pt_term)
    if not pt:
        raise ValueError("pt_term is empty after normalization")
    return pt


def _check_onset_day(onset_day: int | None) -> None:
    if onset_day is not None and onset_day < 0:
        raise ValueError(f"onset_day {onset_day} < 0")


def _check_cycle(cycle: int | None) -> None:
    if cycle is not None and cycle < 1:
        raise ValueError(f"cycle {cycle} < 1")


def _check_tier(tier: str) -> None:
    if tier not in TIER_VALUES:
        raise ValueError(f"tier must be one of {TIER_VALUES}, got {tier!r}")


class _SubjectFields(NamedTuple):
    subject_id: str
    arm: str
    sex: str  # F, M or U (other/unknown)
    age_years: float | None
    background_therapy: str | None
    substudy: str | None
    first_dose_day: int | None
    last_observed_day: int | None


class SubjectRecord(_SubjectFields):
    """One subject, an immutable named tuple checked at construction."""

    __slots__ = ()

    def __new__(cls, subject_id: str, arm: str, sex: str = "U", age_years: float | None = None,
                background_therapy: str | None = None, substudy: str | None = None,
                first_dose_day: int | None = None, last_observed_day: int | None = None):
        if sex not in ("F", "M", "U"):
            raise ValueError(f"sex must be F, M or U, got {sex!r}")
        if age_years is not None and age_years < 0:
            raise ValueError("age_years < 0")
        if (
            first_dose_day is not None
            and last_observed_day is not None
            and last_observed_day < first_dose_day
        ):
            raise ValueError("last_observed_day < first_dose_day")
        return tuple.__new__(cls, (subject_id, arm, sex, age_years, background_therapy, substudy,
                                   first_dose_day, last_observed_day))


class HierarchyMap:
    """PT -> (HLT, HLGT, SOC) lookup with a functional chain.

    A given PT maps to exactly one triple, a given HLT to one HLGT, and a
    given HLGT to one SOC; violations are rejected at construction.
    """

    def __init__(self, entries: dict[str, tuple[str, str, str]]):
        norm: dict[str, tuple[str, str, str]] = {}
        hlt_parent: dict[str, str] = {}
        hlgt_parent: dict[str, str] = {}
        for pt, (hlt, hlgt, soc) in entries.items():
            pt_n = normalize_term(pt)
            triple = (normalize_term(hlt), normalize_term(hlgt), normalize_term(soc))
            if pt_n in norm and norm[pt_n] != triple:
                raise InputError(f"pt {pt_n!r} mapped to more than one hierarchy triple")
            norm[pt_n] = triple
        for pt_n, (hlt, hlgt, soc) in norm.items():
            if hlt in hlt_parent and hlt_parent[hlt] != hlgt:
                raise InputError(f"hlt {hlt!r} mapped to more than one hlgt")
            hlt_parent[hlt] = hlgt
            if hlgt in hlgt_parent and hlgt_parent[hlgt] != soc:
                raise InputError(f"hlgt {hlgt!r} mapped to more than one soc")
            hlgt_parent[hlgt] = soc
        self.entries = norm

    # Keys are normalized and normalize_term is idempotent, so a term found
    # as given needs no normalizing; loaded PTs are already normalized.
    def __contains__(self, pt_term: str) -> bool:
        return pt_term in self.entries or normalize_term(pt_term) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def term_at(self, pt_term: str, level: str) -> str:
        """Resolve a PT to its term at the requested hierarchy level."""
        triple = self.entries.get(pt_term)
        if triple is None:
            pt_term = normalize_term(pt_term)
            triple = self.entries.get(pt_term)
        if level == "pt":
            return pt_term
        if triple is None:
            raise UnmappedTerm(f"pt {pt_term!r} not in hierarchy")
        return triple[_TRIPLE_INDEX[level]]

    def socs(self) -> list[str]:
        return sorted({soc for _, _, soc in self.entries.values()})

    @classmethod
    def from_csv(cls, path: str | Path) -> "HierarchyMap":
        entries: dict[str, tuple[str, str, str]] = {}
        with _csv_rows(path, csv.DictReader) as reader:
            _require_columns(reader.fieldnames, path, ["pt_term", "hlt_term", "hlgt_term", "soc_term"])
            for line_no, row in enumerate(reader, start=2):
                try:
                    pt = normalize_term(row["pt_term"])
                    triple = (
                        normalize_term(row["hlt_term"]),
                        normalize_term(row["hlgt_term"]),
                        normalize_term(row["soc_term"]),
                    )
                except (KeyError, AttributeError):
                    raise MalformedRow(path, line_no, "missing hierarchy columns")
                if not pt or not all(triple):
                    raise MalformedRow(path, line_no, "empty term")
                if pt in entries and entries[pt] != triple:
                    raise InputError(
                        f"{path}:{line_no}: pt {pt!r} duplicated with a different hierarchy path"
                    )
                entries[pt] = triple
        return cls(entries)


class TrialDataset:
    """Immutable validated container for one trial's safety data."""

    __slots__ = ("subjects", "episodes", "hierarchy", "arms", "_subject_index")

    def __init__(self, subjects: tuple[SubjectRecord, ...], episodes: tuple[AeEpisode, ...],
                 hierarchy: HierarchyMap | None = None, arms: tuple[str, ...] = ()):
        by_id = {}
        for s in subjects:
            if s.subject_id in by_id:
                raise InputError(f"duplicate subject_id {s.subject_id!r}")
            by_id[s.subject_id] = s
        for ep in episodes:
            subj = by_id.get(ep.subject_id)
            if subj is None:
                raise UnknownSubject(f"episode references unknown subject {ep.subject_id!r}")
            if subj.arm != ep.arm:
                raise ArmMismatch(
                    f"episode arm {ep.arm!r} != subject arm {subj.arm!r} for {ep.subject_id!r}"
                )
        present = []
        for s in subjects:
            if s.arm not in present:
                present.append(s.arm)
        if not arms:
            arms = tuple(present)
        elif set(arms) != set(present):
            raise InputError("declared arms differ from arms present in subjects")
        for name, value in zip(self.__slots__, (subjects, episodes, hierarchy, arms, by_id)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TrialDataset is immutable, cannot change {name!r}")

    __delattr__ = __setattr__

    def subject(self, subject_id: str) -> SubjectRecord:
        return self._subject_index[subject_id]

    def episodes_for_arm(self, arm: str) -> list[AeEpisode]:
        return [e for e in self.episodes if e.arm == arm]

    def require_hierarchy(self) -> HierarchyMap:
        if self.hierarchy is None:
            raise MissingHierarchy("this analysis needs a hierarchy mapping file")
        return self.hierarchy


@contextmanager
def _csv_rows(path: str | Path, reader=csv.reader):
    """Yield ``reader`` over ``path`` read as UTF-8. A malformed CSV line, such
    as a field over the csv module's default size limit (kept), and bytes
    that are not UTF-8 become input errors that name the file; a malformed
    line is named by its physical line number."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = reader(fh)
        try:
            yield rows
        except csv.Error as exc:
            reason = f"unreadable CSV: {exc}"
            if "field limit" in reason:
                reason += ", the csv module's default"
            # a DictReader counts a record only once its inner reader returns it
            raise MalformedRow(path, getattr(rows, "reader", rows).line_num, reason) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _require_columns(fieldnames: list[str] | None, path, cols):
    missing = [c for c in cols if fieldnames is None or c not in fieldnames]
    if missing:
        raise MalformedRow(path, 1, f"missing required column(s): {', '.join(missing)}")


def _opt_int(value: str, path, line_no, col) -> int | None:
    if value is None or value.strip() == "":
        return None
    try:
        return int(value)
    except ValueError:
        raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not an integer")


def _opt_float(value: str, path, line_no, col) -> float | None:
    if value is None or value.strip() == "":
        return None
    try:
        return float(value)
    except ValueError:
        raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not a number")


def _opt_bool(value: str, path, line_no, col) -> bool | None:
    if value is None or value.strip() == "":
        return None
    v = value.strip().lower()
    if v in ("1", "true", "yes", "y"):
        return True
    if v in ("0", "false", "no", "n"):
        return False
    raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not a boolean")


def load_subjects(path: str | Path) -> list[SubjectRecord]:
    subjects = []
    with _csv_rows(path, csv.DictReader) as reader:
        _require_columns(reader.fieldnames, path, ["subject_id", "arm", "sex"])
        for line_no, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            arm = (row.get("arm") or "").strip()
            if not sid or not arm:
                raise MalformedRow(path, line_no, "empty subject_id or arm")
            sex = (row.get("sex") or "U").strip().upper() or "U"
            if sex not in ("F", "M", "U"):
                sex = "U"
            try:
                subjects.append(
                    SubjectRecord(
                        subject_id=sid,
                        arm=arm,
                        sex=sex,
                        age_years=_opt_float(row.get("age_years"), path, line_no, "age_years"),
                        background_therapy=(row.get("background_therapy") or "").strip() or None,
                        substudy=(row.get("substudy") or "").strip() or None,
                        first_dose_day=_opt_int(row.get("first_dose_day"), path, line_no, "first_dose_day"),
                        last_observed_day=_opt_int(row.get("last_observed_day"), path, line_no, "last_observed_day"),
                    )
                )
            except ValueError as exc:
                raise MalformedRow(path, line_no, str(exc))
    return subjects


_EPISODE_COLUMNS = ("subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier")


def _parse_episode(raw: tuple, path, line_no: int) -> tuple:
    """Parse and check one row's raw values (``None`` for a missing one)
    in the fixed check order, so a row with several faults always reports
    the same first one."""
    sid_raw, arm_raw, pt_raw, onset_raw, cycle_raw, serious_raw, severity_raw, tier_raw = raw
    sid = (sid_raw or "").strip()
    arm = (arm_raw or "").strip()
    if not sid or not arm:
        raise MalformedRow(path, line_no, "empty subject_id or arm")
    tier = (tier_raw or "").strip().lower() or "untiered"
    onset_day = _opt_int(onset_raw, path, line_no, "onset_day")
    cycle = _opt_int(cycle_raw, path, line_no, "cycle")
    serious = _opt_bool(serious_raw, path, line_no, "serious")
    severity = _opt_int(severity_raw, path, line_no, "severity")
    try:
        pt = _checked_pt(pt_raw or "")
        _check_onset_day(onset_day)
        _check_cycle(cycle)
        _check_tier(tier)
    except ValueError as exc:
        raise MalformedRow(path, line_no, str(exc))
    return sid, arm, pt, onset_day, cycle, serious, severity, tier


def load_episodes(path: str | Path) -> list[AeEpisode]:
    """Read the episodes CSV into validated ``AeEpisode`` rows.

    Each distinct raw value of a column is parsed and checked once, on the
    first row that holds it; later rows reuse the result. As with
    ``csv.DictReader``, blank lines are skipped and not numbered, a short
    row reads as missing values, extra fields are ignored and a repeated
    column name reads its last column.
    """
    episodes = []
    with _csv_rows(path) as reader:
        header = next(reader, None)
        _require_columns(header, path, ["subject_id", "arm", "pt_term"])
        width = len(header)
        index = {name: i for i, name in enumerate(header)}
        # an absent optional column reads the None appended to every row
        pick = itemgetter(*(index.get(c, width) for c in _EPISODE_COLUMNS))
        memos = tuple({} for _ in _EPISODE_COLUMNS)
        sids, arms, pts, onsets, cycles, serious, severities, tiers = memos
        new = tuple.__new__
        line_no = 1
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                del row[width:]
                row += [None] * (width - len(row))
            row.append(None)
            line_no += 1
            s, a, p, o, c, se, sv, t = raw = pick(row)
            try:
                values = (sids[s], arms[a], pts[p], onsets[o], cycles[c], serious[se],
                          severities[sv], tiers[t])
            except KeyError:
                values = _parse_episode(raw, path, line_no)
                for memo, key, value in zip(memos, raw, values):
                    memo[key] = value
            episodes.append(new(AeEpisode, values))
    return episodes


def load_exposure(path: str | Path) -> dict[str, int]:
    """Read an exposure CSV (subject_id,last_cycle) into subject_id -> last cycle."""
    exposure = {}
    with _csv_rows(path, csv.DictReader) as reader:
        _require_columns(reader.fieldnames, path, ["subject_id", "last_cycle"])
        for line_no, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            last = _opt_int(row.get("last_cycle"), path, line_no, "last_cycle")
            if not sid or last is None:
                raise MalformedRow(path, line_no, "empty subject_id or last_cycle")
            exposure[sid] = last
    return exposure


def load_trial(
    episodes_file: str | Path,
    subjects_file: str | Path,
    hierarchy_file: str | Path | None = None,
    unmapped: str = "reject",
) -> TrialDataset:
    """Load and cross-validate the episodes/subjects (and optional hierarchy) CSVs.

    ``unmapped`` controls what happens when a hierarchy file is present but
    an episode's PT is absent from it: ``"reject"`` (default) raises
    UnmappedTerm; ``"synthetic"`` routes the term to an UNMAPPED branch.
    """
    if unmapped not in ("reject", "synthetic"):
        raise ValueError("unmapped must be 'reject' or 'synthetic'")
    subjects = load_subjects(subjects_file)
    episodes = load_episodes(episodes_file)
    hierarchy = None
    if hierarchy_file is not None:
        hierarchy = HierarchyMap.from_csv(hierarchy_file)
        missing = sorted({e.pt_term for e in episodes} - set(hierarchy.entries))
        if missing:
            if unmapped == "reject":
                raise UnmappedTerm(
                    f"{len(missing)} pt term(s) absent from hierarchy, e.g. {missing[:5]}"
                )
            entries = dict(hierarchy.entries)
            for pt in missing:
                entries[pt] = ("unmapped", "unmapped", "unmapped")
            hierarchy = HierarchyMap(entries)
    return TrialDataset(subjects=tuple(subjects), episodes=tuple(episodes), hierarchy=hierarchy)


def dataset_summary(data: TrialDataset) -> list[dict]:
    """Per-arm and pooled counts: subjects, episodes, distinct types,
    subjects with at least one episode.

    The pooled distinct-type count is a set union, so it can be smaller
    than the sum of the per-arm counts.
    """
    def _row(label: str, subjects: list[SubjectRecord], episodes: list[AeEpisode]) -> dict:
        with_ae = {e.subject_id for e in episodes}
        n_subj = len(subjects)
        n_with = sum(1 for s in subjects if s.subject_id in with_ae)
        return {
            "arm": label,
            "subjects": n_subj,
            "episodes": len(episodes),
            "distinct_types": len({e.pt_term for e in episodes}),
            "subjects_with_ae": n_with,
            "pct_subjects_with_ae": 100.0 * n_with / n_subj if n_subj else 0.0,
        }

    rows = [
        _row(arm, [s for s in data.subjects if s.arm == arm], data.episodes_for_arm(arm))
        for arm in data.arms
    ]
    rows.append(_row("Total", list(data.subjects), list(data.episodes)))
    return rows


def write_trial(data: TrialDataset, episodes_file: str | Path, subjects_file: str | Path) -> None:
    """Serialize a dataset back to the two CSV schemas (order-normalized)."""
    with open(subjects_file, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["subject_id", "arm", "sex", "age_years", "background_therapy", "substudy",
             "first_dose_day", "last_observed_day"]
        )
        for s in sorted(data.subjects, key=lambda s: s.subject_id):
            w.writerow(
                [s.subject_id, s.arm, s.sex,
                 "" if s.age_years is None else s.age_years,
                 s.background_therapy or "", s.substudy or "",
                 "" if s.first_dose_day is None else s.first_dose_day,
                 "" if s.last_observed_day is None else s.last_observed_day]
            )
    with open(episodes_file, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"])
        key = lambda e: (e.subject_id, e.pt_term, e.onset_day if e.onset_day is not None else -1,
                         e.cycle if e.cycle is not None else -1)
        for e in sorted(data.episodes, key=key):
            w.writerow(
                [e.subject_id, e.arm, e.pt_term,
                 "" if e.onset_day is None else e.onset_day,
                 "" if e.cycle is None else e.cycle,
                 "" if e.serious is None else str(e.serious).lower(),
                 "" if e.severity is None else e.severity,
                 e.tier]
            )
