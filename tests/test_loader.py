"""The table reader against the row-at-a-time loaders it replaced.

Each reference reads its file with ``csv.DictReader`` and checks one record
at a time, as the five loaders did before they shared ``data.read_table``.
On any file the loader and its reference must return equal records, or
raise the same first error: same type, same line number, same message.
The reader works in chunks, so the generated files are read with chunks of
1, 2 and 3 records as well as the default, and one test puts the fault past
the first default chunk.

The reader codes each column into a table of its distinct values. The list
reader it replaced, which kept a list of parsed values per column, stays
here as the oracle of the coded columns: decoded, they must equal its lists.
"""
import csv
from array import array
from contextlib import contextmanager
from itertools import islice, repeat
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adx import data
from adx.benefit_risk import EfficacyInput, load_efficacy
from adx.data import (
    AeEpisode,
    Coded,
    HierarchyMap,
    SubjectRecord,
    load_episodes,
    load_exposure,
    load_subjects,
    load_trial,
    normalize_term,
)
from adx.errors import InputError, MalformedRow

from conftest import episode_records, write_csv

COLUMNS = ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"]


# --- the references: the loaders as they were, one record at a time ---


@contextmanager
def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield csv.DictReader(fh)


def _require_columns(fieldnames, path, cols):
    missing = [c for c in cols if fieldnames is None or c not in fieldnames]
    if missing:
        raise MalformedRow(path, 1, f"missing required column(s): {', '.join(missing)}")


def _opt_int(value, path, line_no, col):
    if value is None or value.strip() == "":
        return None
    try:
        return int(value)
    except ValueError:
        raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not an integer")


def _opt_float(value, path, line_no, col):
    if value is None or value.strip() == "":
        return None
    try:
        return float(value)
    except ValueError:
        raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not a number")


def _opt_bool(value, path, line_no, col):
    if value is None or value.strip() == "":
        return None
    v = value.strip().lower()
    if v in ("1", "true", "yes", "y"):
        return True
    if v in ("0", "false", "no", "n"):
        return False
    raise MalformedRow(path, line_no, f"column {col!r}: {value!r} is not a boolean")


def reference_load_episodes(path):
    episodes = []
    with _csv_rows(path) as reader:
        _require_columns(reader.fieldnames, path, ["subject_id", "arm", "pt_term"])
        for line_no, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            arm = (row.get("arm") or "").strip()
            pt = row.get("pt_term") or ""
            if not sid or not arm:
                raise MalformedRow(path, line_no, "empty subject_id or arm")
            tier = (row.get("tier") or "").strip().lower() or "untiered"
            try:
                episodes.append(
                    AeEpisode(
                        subject_id=sid,
                        arm=arm,
                        pt_term=pt,
                        onset_day=_opt_int(row.get("onset_day"), path, line_no, "onset_day"),
                        cycle=_opt_int(row.get("cycle"), path, line_no, "cycle"),
                        serious=_opt_bool(row.get("serious"), path, line_no, "serious"),
                        severity=_opt_int(row.get("severity"), path, line_no, "severity"),
                        tier=tier,
                    )
                )
            except ValueError as exc:
                raise MalformedRow(path, line_no, str(exc))
    return episodes


def reference_load_subjects(path):
    subjects, seen = [], set()
    with _csv_rows(path) as reader:
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
                        first_dose_day=_opt_int(row.get("first_dose_day"), path, line_no,
                                                "first_dose_day"),
                        last_observed_day=_opt_int(row.get("last_observed_day"), path, line_no,
                                                   "last_observed_day"),
                    )
                )
            except ValueError as exc:
                raise MalformedRow(path, line_no, str(exc))
            if sid in seen:
                raise MalformedRow(path, line_no, f"duplicate subject_id {sid!r}")
            seen.add(sid)
    return subjects


def reference_hierarchy_from_csv(path):
    entries = {}
    with _csv_rows(path) as reader:
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
                raise MalformedRow(
                    path, line_no, f"pt {pt!r} duplicated with a different hierarchy path"
                )
            entries[pt] = triple
    return reference_hierarchy_map(entries)


def reference_hierarchy_map(entries):
    """The entries of ``HierarchyMap(entries)`` as it was: normalized twice."""
    norm = {}
    hlt_parent = {}
    hlgt_parent = {}
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
    return norm


def reference_load_exposure(path):
    exposure = {}
    with _csv_rows(path) as reader:
        _require_columns(reader.fieldnames, path, ["subject_id", "last_cycle"])
        for line_no, row in enumerate(reader, start=2):
            sid = (row.get("subject_id") or "").strip()
            last = _opt_int(row.get("last_cycle"), path, line_no, "last_cycle")
            if not sid or last is None:
                raise MalformedRow(path, line_no, "empty subject_id or last_cycle")
            if sid in exposure:
                raise MalformedRow(path, line_no, f"second exposure row for subject {sid!r}")
            exposure[sid] = last
    return exposure


def _efficacy_field(row, column):
    """``row[column]``; an absent higher_is_better column reads true, and a
    short row that lacks the field (``None``) is a bad row."""
    raw = row.get(column, "true")
    if raw is None:
        raise ValueError(f"missing {column}")
    return raw


def reference_load_efficacy(path):
    out = {}
    with _csv_rows(path) as reader:
        _require_columns(reader.fieldnames, path, ["arm", "value"])
        for line_no, row in enumerate(reader, start=2):
            try:
                arm = _efficacy_field(row, "arm").strip()
                value = float(_efficacy_field(row, "value"))
                hib = _efficacy_field(row, "higher_is_better").strip().lower() in (
                    "1", "true", "yes", "y")
                entry = EfficacyInput(
                    arm=arm, value=value, higher_is_better=hib,
                    label=(row.get("endpoint_label") or "").strip(),
                )
            except ValueError as exc:
                raise MalformedRow(path, line_no, f"bad efficacy row: {exc}")
            if arm in out:
                raise MalformedRow(path, line_no, f"second efficacy row for arm {arm!r}")
            out[arm] = entry
    if not out:
        raise MalformedRow(path, 1, "efficacy file has no rows")
    return out


# --- generated files ---

# (good values, faulty values) per column of each table; a "note" column is
# one no loader reads. A "clean" file draws only good values; in the others
# each value is faulty with odds of one in ``fault_odds``.
TABLES = {
    "episodes": dict(
        required=COLUMNS[:3],
        values={
            "subject_id": (["S1", " S2 ", "S1\t", "s1"], ["", "   "]),
            "arm": (["A", "B ", "Ärm, 2"], ["", " "]),
            "pt_term": (["nausea", "NAUSEA", "  nausea\t ", "pain in extremity, left",
                         'rash "maculo-papular"', "café au lait", "line\nbreak", "ΣΊΣΥΦΟΣ"],
                        ["", "  \n "]),
            "onset_day": (["", " ", "0", "7", " 12 ", "+3", "1_0", "٣"], ["-1", "x", "1.5"]),
            "cycle": (["", "1", "4", "2 "], ["0", "-2", "c"]),
            "serious": (["", "true", "FALSE", "y", "No ", "1", "0"], ["maybe", "2"]),
            "severity": (["", "1", "3", "-1"], ["x", "3.0"]),
            "tier": (["", "tier1", "TIER23", " untiered "], ["tier9", "t1"]),
        },
    ),
    "subjects": dict(
        required=["subject_id", "arm", "sex"],
        values={
            "subject_id": (["S1", " S2 ", "S3\t", "s1"], ["", "  "]),
            "arm": (["A", "B ", "Ärm, 2"], ["", " "]),
            "sex": (["F", "m", " u ", "", "X", "female"], []),
            "age_years": (["", "45", " 38.5 ", "1e1", "0"], ["x", "-1", "-inf", "nan", "inf"]),
            "background_therapy": (["", "none", " platinum, doublet "], []),
            "substudy": (["", "PK"], []),
            "first_dose_day": (["", "0", "5", " 7 "], ["x", "1.5"]),
            "last_observed_day": (["", "10", "300", "2"], ["y", "3", "-2"]),
        },
    ),
    "hierarchy": dict(
        required=["pt_term", "hlt_term", "hlgt_term", "soc_term"],
        values={
            "pt_term": (["nausea", " Nausea ", "HEADACHE", 'rash, "nos"', "pain"], ["", "  "]),
            "hlt_term": (["h1", "H1 ", "h2"], ["", " "]),
            "hlgt_term": (["g1", "G1", "g2"], ["", "\t"]),
            "soc_term": (["s1", "S1 ", "s2, other"], ["", " "]),
        },
    ),
    "exposure": dict(
        required=["subject_id", "last_cycle"],
        values={
            "subject_id": (["S1", " S2", "S3 ", "s1"], ["", " "]),
            "last_cycle": (["1", " 4 ", "0", "-1", "+2"], ["", "x", "2.5"]),
        },
    ),
    "efficacy": dict(
        required=["arm", "value"],
        values={
            "arm": (["A", " B ", "C", ""], []),
            "value": (["5.3", " 7 ", "-2", "1e3"], ["", "x", "nan", "-inf"]),
            "higher_is_better": (["true", "FALSE", "", "yes", "0", "maybe"], []),
            "endpoint_label": (["", "pfs", "median PFS, months"], []),
        },
    ),
}

LOADERS = {
    "episodes": (lambda path: episode_records(load_episodes(path)), reference_load_episodes),
    "subjects": (load_subjects, reference_load_subjects),
    "hierarchy": (HierarchyMap.from_csv, reference_hierarchy_from_csv),
    "exposure": (load_exposure, reference_load_exposure),
    "efficacy": (load_efficacy, reference_load_efficacy),
}


@st.composite
def table_csvs(draw, table, fault_odds, missing_odds):
    spec = TABLES[table]
    required = spec["required"]
    optional = [c for c in spec["values"] if c not in required] + ["note"]
    values = dict(spec["values"], note=(["", "free, text", '"quoted"'], []))
    # one header in ``missing_odds`` lacks a required column
    kept = draw(st.sampled_from([required] * (missing_odds - 1) + [required[:-1]]))
    header = draw(st.permutations(kept + draw(st.lists(st.sampled_from(optional), unique=True))))
    if header and draw(st.booleans()):
        header = header + [draw(st.sampled_from(header))]  # a repeated column name
    clean = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["full", "full", "full", "blank", "short", "long"]))
        if shape == "blank":
            records.append([])
            continue
        row = [draw(st.sampled_from(bad if bad and not clean
                                    and draw(st.integers(1, fault_odds)) == 1 else good))
               for good, bad in (values[c] for c in header)]
        if shape == "short":
            row = row[:draw(st.integers(0, len(row)))] or [""]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(["", "extra", "x,y"]), min_size=1, max_size=2))
        records.append(row)
    return header, records


def _outcome(load, path):
    """What ``load`` makes of ``path``: its records, or its first error."""
    try:
        result = load(path)
    except InputError as exc:
        return "error", (type(exc), getattr(exc, "line_no", None), str(exc))
    if isinstance(result, HierarchyMap):
        result = result.entries
    return "records", repr(list(result.items()) if isinstance(result, dict) else result)


@contextmanager
def _chunks_of(rows):
    saved = data.CHUNK_ROWS
    data.CHUNK_ROWS = rows
    try:
        yield
    finally:
        data.CHUNK_ROWS = saved


def _same_outcome(table, path, chunk_rows):
    load, reference = LOADERS[table]
    with _chunks_of(chunk_rows):
        got = _outcome(load, path)
    assert got == _outcome(reference, path)


# Every table with faults at one in four and a required column left out one
# time in eight; episodes also as first tested, at one in two and one in four.
@pytest.mark.parametrize("table, fault_odds, missing_odds",
                         [(table, 4, 8) for table in sorted(TABLES)] + [("episodes", 2, 4)])
@settings(max_examples=400, deadline=None)
@given(drawn=st.data(), chunk_rows=st.sampled_from([1, 2, 3, data.CHUNK_ROWS]))
def test_loader_matches_reference(tmp_path_factory, table, fault_odds, missing_odds, drawn,
                                  chunk_rows):
    path = write_csv(tmp_path_factory.getbasetemp() / f"loader_{table}.csv",
                     *drawn.draw(table_csvs(table, fault_odds, missing_odds)))
    _same_outcome(table, path, chunk_rows)


@pytest.mark.parametrize("rows, line_no, reason", [
    # two faults in one row: the parse fault of a later column comes before
    # the range fault of an earlier one, and the empty PT after both parses
    ([["S1", "A", "x", "-1", "c", "", "", ""]], 2, "column 'cycle': 'c' is not an integer"),
    ([["S1", "A", "x", "x", "c", "", "", ""]], 2, "column 'onset_day': 'x' is not an integer"),
    ([["S1", "A", " ", "-1", "1", "", "", ""]], 2, "pt_term is empty after normalization"),
    ([["S1", "A", "x", "-1", "0", "", "", "tier9"]], 2, "onset_day -1 < 0"),
    ([["", "A", "", "x", "", "", "", ""]], 2, "empty subject_id or arm"),
    # a value seen valid earlier and a fault later in the same row
    ([["S1", "A", "x", "3", "", "", "", ""], [], ["S1", "A", "x", "3", "", "", "", "tier9"]], 3,
     "tier must be one of ('tier1', 'tier23', 'untiered'), got 'tier9'"),
])
def test_first_fault_of_a_row(tmp_path, rows, line_no, reason):
    path = write_csv(tmp_path / "episodes.csv", COLUMNS, rows)
    with pytest.raises(MalformedRow) as exc:
        load_episodes(path)
    assert (exc.value.line_no, exc.value.reason) == (line_no, reason)
    assert _outcome(load_episodes, path) == _outcome(reference_load_episodes, path)


@pytest.mark.parametrize("rows, line_no, reason", [
    # a parse fault of a later column before the range fault of age
    ([["S1", "A", "F", "-1", "", "", "x", ""]], 2, "column 'first_dose_day': 'x' is not an integer"),
    ([["S1", "A", "F", "-1", "", "", "5", "2"]], 2, "age_years < 0"),
    ([["S1", "A", "F", "", "", "", "5", "2"]], 2, "last_observed_day < first_dose_day"),
    ([["", "A", "F", "x", "", "", "", ""]], 2, "empty subject_id or arm"),
])
def test_first_fault_of_a_subject_row(tmp_path, rows, line_no, reason):
    header = list(TABLES["subjects"]["values"])
    path = write_csv(tmp_path / "subjects.csv", header, rows)
    with pytest.raises(MalformedRow) as exc:
        load_subjects(path)
    assert (exc.value.line_no, exc.value.reason) == (line_no, reason)
    assert _outcome(load_subjects, path) == _outcome(reference_load_subjects, path)


# Files longer than one default chunk: the fault sits in the second chunk,
# after a row check's fault, or after blank lines that are not numbered.
def _episode_rows(n):
    return [[f"S{i % 7}", "A", f"pt{i % 11}", str(i % 30), "", "", "", ""] for i in range(n)]


@pytest.mark.parametrize("table, make", [
    ("episodes", lambda: (COLUMNS, _episode_rows(1030) + [["S1", "A", "pt1", "-4", "", "", "", ""]])),
    ("episodes", lambda: (COLUMNS, _episode_rows(600) + [[]] * 50 + _episode_rows(500)
                          + [["S1", "A", "pt1", "3", "", "maybe", "", ""]] + _episode_rows(5))),
    ("episodes", lambda: (COLUMNS, _episode_rows(2100))),
    ("subjects", lambda: (["subject_id", "arm", "sex", "first_dose_day", "last_observed_day"],
                          [[f"S{i}", "A", "F", "0", str(i)] for i in range(1100)]
                          + [["S", "A", "F", "9", "2"], ["T", "A", "F", "x", "1"]])),
    ("hierarchy", lambda: (["pt_term", "hlt_term", "hlgt_term", "soc_term"],
                           [[f"p{i}", f"h{i % 9}", f"g{i % 9}", "s"] for i in range(1200)]
                           + [["P1", "h1", "g1", "s"], ["p3", "h3", "g3", "other"]])),
    ("exposure", lambda: (["subject_id", "last_cycle"],
                          [[f"S{i}", str(i % 5)] for i in range(1500)] + [["S2", ""]])),
])
def test_fault_past_the_first_chunk(tmp_path, table, make):
    header, rows = make()
    path = write_csv(tmp_path / f"{table}.csv", header, rows)
    _same_outcome(table, path, data.CHUNK_ROWS)


def test_loaded_rows_are_named_tuples_sharing_parsed_values(tmp_path):
    path = write_csv(tmp_path / "episodes.csv", COLUMNS,
                     [["S1", "A", "Nausea", "3", "", "yes", "", ""],
                      ["S1", "A", "Nausea", "3", "", "yes", "", ""]])
    columns = load_episodes(path)
    first, second = episode_records(columns)
    assert type(first) is AeEpisode
    assert first == AeEpisode("S1", "A", "nausea", onset_day=3, serious=True)
    assert list(columns.pt_term) == [first.pt_term, second.pt_term]
    assert first.pt_term is second.pt_term


# --- the list reader: ``data.read_table`` as it was before it coded columns ---


def reference_read_table(path, cls, columns, check=None):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
            missing = [c.name for c in columns if c.required and c.name not in header]
            if missing:
                raise MalformedRow(path, 1, f"missing required column(s): {', '.join(missing)}")
            width, index = len(header), {name: i for i, name in enumerate(header)}
            picks = [index.get(c.name) for c in columns]
            memos = [{} for _ in columns]
            parsed, failure, last = [[] for _ in columns], None, False
            while not last:
                rows = []
                try:
                    rows.extend(islice(reader, data.CHUNK_ROWS))
                except (csv.Error, UnicodeDecodeError) as exc:
                    failure = exc
                last = failure is not None or len(rows) < data.CHUNK_ROWS
                if set(map(len, rows)) - {width}:
                    rows = [(row + [None] * width)[:width] for row in rows if row]
                if rows:
                    for column, values in zip(parsed, _reference_chunk(
                            rows, path, 2 + len(parsed[0]), cls, columns, picks, memos, check)):
                        column += values
            if failure:
                raise failure
            return parsed if cls is None else list(map(tuple.__new__, repeat(cls), zip(*parsed)))
        except csv.Error as exc:
            reason = f"unreadable CSV: {exc}"
            if "field limit" in reason:
                reason += ", the csv module's default"
            raise MalformedRow(path, reader.line_num, reason) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _reference_chunk(rows, path, line, cls, columns, picks, memos, check):
    n = len(rows)
    raw = list(zip(*rows))
    cols = [raw[pick] if pick is not None else (column.absent,) * n
            for column, pick in zip(columns, picks)]
    parsed, first_fault = [], n
    for column, col, memo in zip(columns, cols, memos):
        for value in set(col).difference(memo):
            try:
                memo[value] = column.parse(value)
            except ValueError as exc:
                memo[value] = exc if isinstance(exc, data.Fault) else data.Fault(str(exc))
                first_fault = min(first_fault, col.index(value))
        parsed.append(itemgetter(*col)(memo) if n > 1 else (memo[col[0]],))
    records = islice(map(tuple.__new__, repeat(cls), zip(*parsed)), first_fault) if check else ()
    for line_no, record in enumerate(records, line):
        try:
            check(record, line_no)
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
    if first_fault < n:
        found = [memo[col[first_fault]] for memo, col in zip(memos, cols)]
        fault = min((f for f in found if isinstance(f, data.Fault)), key=attrgetter("stage"))
        raise MalformedRow(path, line + first_fault, str(fault))
    return parsed


def _columns(read, path):
    """What ``read`` makes of the episodes CSV at ``path``: the repr of its
    columns as lists and of its ``AeEpisode`` records, or its first error."""
    try:
        columns = [list(column) for column in read(path, None, data._EPISODE_COLUMNS)]
    except InputError as exc:
        return "error", (type(exc), getattr(exc, "line_no", None), str(exc))
    return repr(columns), repr(list(map(tuple.__new__, repeat(AeEpisode), zip(*columns))))


_AWKWARD = st.text(st.characters(codec="utf-8")
                   | st.sampled_from([",", '"', " ", "\n", "é", "Ω"]), max_size=5)
_FIELDS = {
    "subject_id": st.sampled_from(["S1", " S1", "Sé", 'S,"2"', ""]) | _AWKWARD,
    "arm": st.sampled_from(["A", "B, ctl", " A ", ""]),
    "pt_term": st.sampled_from(["Nausea", " nausea ", "rash, NOS", '"dry" eye', "Ωmega"])
    | _AWKWARD,
    "onset_day": st.sampled_from(["", " ", "0", "3", " 3", "-1", "x"])
    | st.integers(0, 400).map(str),
    "cycle": st.sampled_from(["", "1", "2", "0", "c"]),
    "serious": st.sampled_from(["", "true", "No", "Y", "maybe"]),
    "severity": st.sampled_from(["", "1", "3", "2.5"]),
    "tier": st.sampled_from(["", "tier1", "TIER23", "untiered", "tier9"]),
}


@st.composite
def awkward_episodes(draw):
    header = draw(st.permutations(COLUMNS[:3] + draw(st.lists(st.sampled_from(COLUMNS[3:]),
                                                                unique=True))))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(_FIELDS[name]) for name in header]
        rows.append(row[:draw(st.integers(1, len(row)))] if draw(st.booleans()) else row)
    return header, rows


@settings(max_examples=300, deadline=None)
@given(drawn=awkward_episodes(), chunk_rows=st.sampled_from([1, 2, 3, data.CHUNK_ROWS]))
def test_coded_columns_decode_to_the_list_readers_columns(tmp_path_factory, drawn, chunk_rows):
    path = write_csv(tmp_path_factory.getbasetemp() / "awkward_episodes.csv", *drawn)
    with _chunks_of(chunk_rows):
        coded = _columns(data.read_table, path)
        expected = _columns(reference_read_table, path)
        assert coded == expected
        if coded[0] != "error":
            assert repr(episode_records(load_episodes(path))) == coded[1]


def test_columns_widen_as_their_tables_grow(tmp_path):
    # subject_id: a new value every row, past 256 in the second chunk and
    # past 65,536 far into the file; pt_term: past 256 after 300 rows
    rows = [[f"S{i}", "A", f"pt {i % 300}", str(i % 7), "", "", "", ""] for i in range(65_700)]
    path = write_csv(tmp_path / "episodes.csv", COLUMNS, rows)
    columns = load_episodes(path)
    assert [columns.subject_id.codes.typecode, columns.pt_term.codes.typecode] == ["I", "H"]
    assert isinstance(columns.arm.codes, bytearray)
    assert _columns(data.read_table, path) == _columns(reference_read_table, path)


def test_the_mask_of_a_two_byte_store():
    coded = Coded(array("H", [0, 300, 0, 300]), [f"v{i}" for i in range(301)])
    assert coded.mask("v300") == bytes([0, 1, 0, 1])
    assert coded.mask("absent") == bytes(4)


@pytest.mark.parametrize("hierarchy_rows", [
    [["nausea", "h1", "g1", "soc1"]],
    # an "unmapped" HLT already under another HLGT: the routed terms break the chain
    [["nausea", "h1", "g1", "soc1"], ["rash", "Unmapped", "g1", "soc1"]],
])
def test_unmapped_synthetic_builds_the_map_as_before(tiny_trial_files, tmp_path, hierarchy_rows):
    hierarchy = write_csv(tmp_path / "partial.csv", ["pt_term", "hlt_term", "hlgt_term", "soc_term"],
                          hierarchy_rows)
    episodes, subjects = tiny_trial_files["episodes"], tiny_trial_files["subjects"]

    def reference():
        loaded = reference_hierarchy_from_csv(hierarchy)
        missing = sorted({e.pt_term for e in reference_load_episodes(episodes)} - set(loaded))
        entries = dict(loaded)
        for pt in missing:
            entries[pt] = ("unmapped", "unmapped", "unmapped")
        return reference_hierarchy_map(entries)

    def new():
        return load_trial(episodes, subjects, hierarchy, unmapped="synthetic").hierarchy

    assert _outcome(lambda _: new(), None) == _outcome(lambda _: reference(), None)
