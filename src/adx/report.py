"""Output formatting and atomic file emission.

A command's results are one list of JSON-lines records; its text tables
(``table``) and its CSV (``csv_view``) are column views of that list.

Display rounding: AdX 2 dp, SE 4 dp, EALS nearest integer, SEALS 2 dp,
p-values 3 dp with a "<0.001" floor. Rounding happens here only; every
chained computation upstream uses unrounded values. Structured (JSON
lines / CSV) output always carries full precision.
"""
from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import __version__


def fmt_adx(value: float) -> str:
    return f"{value:.2f}"


def fmt_se(value: float) -> str:
    return f"{value:.4f}"


def fmt_eals(value: float) -> str:
    return f"{round(value):d}"


def fmt_seals(value: float) -> str:
    return f"{value:.2f}"


def fmt_p(value: float) -> str:
    if value < 0.001:
        return "<0.001"
    return f"{value:.3f}"


def select(records: list[dict], kind) -> list[dict]:
    """The records of ``kind``: a record kind, or a predicate on records."""
    if callable(kind):
        return [r for r in records if kind(r)]
    return [r for r in records if r["record"] == kind]


def _view(records: list[dict], kind, columns: list) -> tuple[list[dict], list[tuple]]:
    """The ``kind`` records, and the columns with a bare field name as ``(name, name)``."""
    return select(records, kind), [(c, c) if isinstance(c, str) else c for c in columns]


def _value(record: dict, get):
    return get(record) if callable(get) else record.get(get)


def _cell(record: dict, get, fmt=None) -> str:
    value = _value(record, get)
    if value is None:
        return ""
    return fmt(value) if fmt else str(value)


def table(records: list[dict], kind, columns: list, footnotes: list[str] | None = None) -> str:
    """Plain monospace table with a header rule, one row per ``kind``
    record (see ``select``).

    A column is ``(header, record field or function of the record[, display
    format])``, or a field name that is also its header. A missing value
    shows as an empty cell, a value without a format as ``str(value)``.
    """
    records, columns = _view(records, kind, columns)
    headers = [c[0] for c in columns]
    rows = [[_cell(r, *c[1:]) for c in columns] for r in records]
    widths = [max(map(len, cells)) for cells in zip(headers, *rows)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    out += [f"note: {note}" for note in footnotes or []]
    return "\n".join(out) + "\n"


def csv_view(records: list[dict], kind, columns: list) -> tuple[list[str], list[list]]:
    """The header and rows of ``table`` for ``write_csv``: full precision,
    no display formats, a missing value as an empty cell."""
    rows, columns = _view(records, kind, columns)
    return [c[0] for c in columns], [[_cell(r, c[1]) for c in columns] for r in rows]


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """A new file of mode 0600 in the directory of ``path`` (UTF-8 text, or bytes),
    renamed onto ``path`` when the block ends and removed if the block raises."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:  # after the rename, tmp is gone
        if os.path.exists(tmp):
            os.unlink(tmp)


def header_lines(config: dict) -> list[str]:
    """Run provenance echoed into every output: tool version plus the
    effective configuration (inputs, seed and all)."""
    items = ", ".join(f"{k}={v}" for k, v in sorted(config.items()) if v is not None)
    return [f"# adx-toolkit {__version__}", f"# config: {items}"]


def write_text(path: str | Path, config: dict, body: str) -> None:
    with atomic_write(path) as fh:
        fh.write("\n".join(header_lines(config)) + "\n" + body)


def write_jsonl(path: str | Path, config: dict, records: list[dict]) -> None:
    import json  # here, so that text and CSV runs do not load it

    head = {"record": "header", "tool": "adx-toolkit", "version": __version__,
            "config": {k: v for k, v in sorted(config.items()) if v is not None}}
    # allow_nan=False: a NaN or infinity would make the line invalid JSON
    lines = [json.dumps(head, sort_keys=True, allow_nan=False)]
    lines += [json.dumps(r, sort_keys=True, allow_nan=False) for r in records]
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path: str | Path, config: dict, columns: list[str], rows: list[list]) -> None:
    lines = header_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
