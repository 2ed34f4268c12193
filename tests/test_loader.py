"""``load_episodes`` against the row-at-a-time loader it replaced.

The reference reads each record with ``csv.DictReader`` and builds it with
the validating ``AeEpisode`` constructor. On any file both loaders must
return equal rows, or raise the same first error: same type, same line
number, same message.
"""
import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adx.data import AeEpisode, _opt_bool, _opt_int, _require_columns, load_episodes
from adx.errors import MalformedRow

COLUMNS = ["subject_id", "arm", "pt_term", "onset_day", "cycle", "serious", "severity", "tier"]


def reference_load_episodes(path):
    episodes = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
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


# (good values, faulty values) per column. A "clean" file draws only good
# values; in the others each value is faulty with even odds.
VALUES = {
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
    "note": (["", "free, text", '"quoted"'], []),
}


@st.composite
def episode_csvs(draw):
    optional = draw(st.lists(st.sampled_from(COLUMNS[3:] + ["note"]), unique=True))
    required = draw(st.sampled_from([COLUMNS[:3], COLUMNS[:3], COLUMNS[:3], COLUMNS[:2]]))
    header = draw(st.permutations(required + optional))
    if header and draw(st.booleans()):
        header = header + [draw(st.sampled_from(header))]  # a repeated column name
    clean = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["full", "full", "full", "blank", "short", "long"]))
        if shape == "blank":
            records.append([])
            continue
        row = [draw(st.sampled_from(bad if bad and not clean and draw(st.booleans()) else good))
               for good, bad in (VALUES[c] for c in header)]
        if shape == "short":
            row = row[:draw(st.integers(0, len(row)))] or [""]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(["", "extra", "x,y"]), min_size=1, max_size=2))
        records.append(row)
    return header, records


def _outcome(load, path):
    try:
        return "rows", [repr(e) for e in load(path)]
    except MalformedRow as exc:
        return "error", (type(exc), exc.line_no, str(exc))


@settings(max_examples=400, deadline=None)
@given(episode_csvs())
def test_loader_matches_reference(tmp_path_factory, case):
    header, records = case
    path = tmp_path_factory.getbasetemp() / "loader_episodes.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(records)
    assert _outcome(load_episodes, path) == _outcome(reference_load_episodes, path)


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
    path = tmp_path / "episodes.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([COLUMNS, *rows])
    with pytest.raises(MalformedRow) as exc:
        load_episodes(path)
    assert (exc.value.line_no, exc.value.reason) == (line_no, reason)
    assert _outcome(load_episodes, path) == _outcome(reference_load_episodes, path)


def test_loaded_rows_are_named_tuples_sharing_parsed_values(tmp_path):
    path = tmp_path / "episodes.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([COLUMNS, ["S1", "A", "Nausea", "3", "", "yes", "", ""],
                                  ["S1", "A", "Nausea", "3", "", "yes", "", ""]])
    first, second = load_episodes(path)
    assert type(first) is AeEpisode
    assert first == AeEpisode("S1", "A", "nausea", onset_day=3, serious=True)
    assert first.pt_term is second.pt_term
