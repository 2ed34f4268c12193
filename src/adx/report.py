"""Output formatting and atomic file emission.

Display rounding: AdX 2 dp, SE 4 dp, EALS nearest integer, SEALS 2 dp,
p-values 3 dp with a "<0.001" floor. Rounding happens here only; every
chained computation upstream uses unrounded values. Structured (JSON
lines / CSV) output always carries full precision.
"""
from __future__ import annotations

import json
import os
import tempfile
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


def render_table(headers: list[str], rows: list[list[str]], footnotes: list[str] | None = None) -> str:
    """Plain monospace table with a header rule."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    for note in footnotes or []:
        out.append(f"note: {note}")
    return "\n".join(out) + "\n"


def atomic_write(path: str | Path, text: str) -> None:
    """Write via temp file + rename so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def header_lines(config: dict) -> list[str]:
    """Run provenance echoed into every output: tool version plus the
    effective configuration (inputs, seed and all)."""
    items = ", ".join(f"{k}={v}" for k, v in sorted(config.items()) if v is not None)
    return [f"# adx-toolkit {__version__}", f"# config: {items}"]


def write_text(path: str | Path, config: dict, body: str) -> None:
    atomic_write(path, "\n".join(header_lines(config)) + "\n" + body)


def write_jsonl(path: str | Path, config: dict, records: list[dict]) -> None:
    head = {"record": "header", "tool": "adx-toolkit", "version": __version__,
            "config": {k: v for k, v in sorted(config.items()) if v is not None}}
    # allow_nan=False: a NaN or infinity would make the line invalid JSON
    lines = [json.dumps(head, sort_keys=True, allow_nan=False)]
    lines += [json.dumps(r, sort_keys=True, allow_nan=False) for r in records]
    atomic_write(path, "\n".join(lines) + "\n")


def write_csv(path: str | Path, config: dict, columns: list[str], rows: list[list]) -> None:
    lines = header_lines(config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    atomic_write(path, "\n".join(lines) + "\n")
