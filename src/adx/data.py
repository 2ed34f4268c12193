"""Episode/subject data model, CSV loading and validation.

The counting unit throughout the toolkit is the AE *episode*: one recorded
occurrence of an adverse-event term in one subject. Repeated identical
(subject, term, onset_day) rows are kept as distinct episodes on purpose.

All five CSV loaders share one table reader, ``read_table``. It reads a file
in chunks of ``CHUNK_ROWS`` records and parses and checks each distinct raw
value of a column once, coding each value as its index in the column's table
of distinct values (``Coded``). A trial's episodes are read only as such columns,
and ``load_episodes`` keeps them in a cache keyed by the file's content.
"""
from __future__ import annotations

import csv
import marshal
import math
import os
import re
import stat
import struct
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from _blake2 import blake2b  # not hashlib, whose import loads OpenSSL

from .errors import (
    ArmMismatch,
    InputError,
    MalformedRow,
    MissingHierarchy,
    UnknownSubject,
    UnmappedTerm,
)
from .report import atomic_write

HIERARCHY_LEVELS = ("pt", "hlt", "hlgt", "soc")

TIER_VALUES = ("tier1", "tier23", "untiered")

_TRIPLE_INDEX = {"hlt": 0, "hlgt": 1, "soc": 2}  # position in a PT's (hlt, hlgt, soc)

_WS = re.compile(r"\s+")

CHUNK_ROWS = 256  # records per chunk: one chunk's raw fields are the loader's transient peak

CACHE_ENTRIES = 16  # episodes files kept in the cache; the oldest beyond are removed on a write
_CACHE_FORMAT = "adx-episodes-1"  # the layout of a cache entry: a checksum, then a marshal dump
_CACHE_SUM = 20  # bytes of an entry's checksum of the rest
_CACHE_SUFFIX = ".episodes"


def normalize_term(text: str) -> str:
    """Case-fold, trim and collapse internal whitespace.

    Term identity everywhere in the toolkit is defined on the normalized
    form, so CSV exports that differ only in casing or spacing match.
    """
    return _WS.sub(" ", text.strip()).casefold()


def _store(size: int, codes=()) -> bytearray | array:
    """A store of codes into a table of ``size`` values, 1, 2 or 4 bytes a code."""
    return bytearray(codes) if size <= 1 << 8 else array("H" if size <= 1 << 16 else "I", codes)


class Coded:
    """A column as ``codes`` into ``values``, its table of distinct values
    (some may have no code), in a ``_store`` as narrow as the table allows.
    ``len()`` is the number of codes, and iterating yields their values."""

    __slots__ = ("codes", "values")

    def __init__(self, codes: bytearray | array, values: list):
        self.codes, self.values = codes, values

    @classmethod
    def encode(cls, values: Iterable) -> Coded:
        """``values`` coded in order of first appearance, ``0`` and ``False`` apart."""
        table: dict = {}
        codes = [table.setdefault((type(value), value), len(table)) for value in values]
        return cls(_store(len(table), codes), [value for _, value in table])

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator:
        if len(self.values) == 1:
            return repeat(self.values[0], len(self.codes))
        return map(self.values.__getitem__, self.codes)

    def extend(self, codes: Sequence[int]) -> None:
        """Append ``codes``, first widening the store if the table outgrew it."""
        if len(self.values) > 1 << 8 * getattr(self.codes, "itemsize", 1):
            self.codes = _store(len(self.values), iter(self.codes))
        if isinstance(self.codes, bytearray):
            self.codes.extend(codes)
        else:  # packed in one call: an array extends by one item at a time
            self.codes.frombytes(struct.pack(f"{len(codes)}{self.codes.typecode}", *codes))

    def count(self, value) -> int:
        """How many codes stand for ``value``."""
        return self.codes.count(self.values.index(value)) if value in self.values else 0

    def mask(self, value) -> bytes | bytearray:
        """Per code, 1 if it stands for ``value``, else 0."""
        code = self.values.index(value) if value in self.values else -1
        if isinstance(self.codes, bytearray):
            return self.codes.translate(bytes(i == code for i in range(256)))
        return bytes(map(eq, self.codes, repeat(code)))

    def select(self, mask: Iterable) -> Coded:
        """The codes that ``mask`` marks true, on the same table."""
        return Coded(_store(len(self.values), compress(self.codes, mask)), self.values)


class Fault(ValueError):
    """A raw value's fault, worded as its ``MalformedRow`` reason. A row's
    checks run in passes over the columns in table order: identifiers
    (``stage`` 0), parsing (1), then checks of the parsed values (2)."""

    def __init__(self, reason: str, stage: int = 2):
        super().__init__(reason)
        self.stage = stage


class Column(NamedTuple):
    """A ``read_table`` column: its header ``name``; ``parse``, from a raw
    value (``None`` in a short row) to the field, raising ``ValueError`` on a
    fault (a plain one at stage 2); whether a file must have it; and the raw
    value every row reads in a file without it."""

    name: str
    parse: Callable
    required: bool = False
    absent: str | None = None


def read_table(path: str | Path, cls: type | None, columns: tuple[Column, ...],
               check: Callable | None = None) -> list:
    """The records of the CSV at ``path``, read as UTF-8: ``cls`` tuples of
    the parsed ``columns``, each passed to ``check`` with its line number;
    with ``cls`` None, the parsed columns themselves, a ``Coded`` each.

    Records are numbered as ``csv.DictReader`` numbers them, blank lines not
    counted; a short row reads ``None`` for what it lacks, extra fields are
    ignored, and a repeated column name reads its last column. The first
    faulty record (a ``ValueError`` of ``check`` faults its record), a
    malformed CSV line (named by its physical line) and bytes that are not
    UTF-8 end the reading with an input error naming the file.
    """
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
            # per column, raw value -> code or Fault, and parsed value -> code
            memos = [({}, {}) for _ in columns]
            parsed, records = [Coded(bytearray(), []) for _ in columns], []
            failure, last = None, False
            while not last:
                rows = []
                try:
                    rows.extend(islice(reader, CHUNK_ROWS))  # keeps the rows read before an error
                except (csv.Error, UnicodeDecodeError) as exc:
                    failure = exc
                last = failure is not None or len(rows) < CHUNK_ROWS
                if set(map(len, rows)) - {width}:  # blank, short or long rows
                    rows = [(row + [None] * width)[:width] for row in rows if row]
                if rows:
                    records += _parse_chunk(rows, path, 2 + len(records) + len(parsed[0]), cls,
                                            columns, picks, memos, parsed, check)
            if failure:
                raise failure
            return parsed if cls is None else records
        except csv.Error as exc:
            reason = f"unreadable CSV: {exc}"
            if "field limit" in reason:
                reason += ", the csv module's default"
            raise MalformedRow(path, reader.line_num, reason) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_chunk(rows, path, line, cls, columns, picks, memos, parsed, check) -> list:
    """``read_table`` on one chunk, its first record on ``line``: parse the
    raw values not met before (coding them, without ``cls``), check the
    records up to the first faulty one before raising its fault; then append
    the codes to the ``parsed`` columns or, with ``cls``, return the records."""
    n = len(rows)
    raw = list(zip(*rows))
    cols = [raw[pick] if pick is not None else (column.absent,) * n
            for column, pick in zip(columns, picks)]
    chunk, first_fault = [], n
    for column, col, (memo, codes), coded in zip(columns, cols, memos, parsed):
        try:
            chunk.append(_lookup(memo, col))
        except KeyError:
            for value in [v for v in dict.fromkeys(col) if v not in memo]:  # in row order
                try:
                    parsed_value = column.parse(value)
                except ValueError as exc:
                    memo[value] = exc if isinstance(exc, Fault) else Fault(str(exc))
                    first_fault = min(first_fault, col.index(value))
                    continue
                if cls is not None:  # records take the values themselves
                    memo[value] = parsed_value
                    continue
                memo[value] = codes.setdefault(parsed_value, len(codes))
                if memo[value] == len(coded.values):
                    coded.values.append(parsed_value)
            chunk.append(_lookup(memo, col))
    records = [] if cls is None else list(map(tuple.__new__, repeat(cls),
                                              zip(*(c[:first_fault] for c in chunk))))
    for line_no, record in enumerate(records if check else (), line):
        try:
            check(record, line_no)
        except ValueError as exc:
            raise MalformedRow(path, line_no, str(exc)) from None
    if first_fault < n:  # its fault of the earliest stage, the first column's on a tie
        found = [memo[col[first_fault]] for (memo, _), col in zip(memos, cols)]
        fault = min((f for f in found if isinstance(f, Fault)), key=attrgetter("stage"))
        raise MalformedRow(path, line + first_fault, str(fault))
    if cls is None:
        for coded, c in zip(parsed, chunk):
            coded.extend(c)
    return records


def _lookup(memo: dict, col: tuple) -> tuple:
    """``memo``'s value of each of ``col``; a KeyError if it lacks one."""
    return itemgetter(*col)(memo) if len(col) > 1 else (memo[col[0]],)


def _nonblank(reason: str, stage: int = 2) -> Callable:
    """Parser of a column that must not be blank: the value stripped."""
    def parse(raw):
        value = (raw or "").strip()
        if not value:
            raise Fault(reason, stage)
        return value
    return parse


_NOUNS = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "y"), True),
          **dict.fromkeys(("0", "false", "no", "n"), False)}


def _optional(kind: type, col: str, check: Callable = lambda value: value) -> Callable:
    """Parser of an optional ``kind`` column: blank reads ``None``, and
    ``check`` sees each other parsed value."""
    def parse(raw):
        if raw is None or not raw.strip():
            return None
        try:
            value = _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise Fault(f"column {col!r}: {raw!r} is not {_NOUNS[kind]}", 1) from None
        return check(value)
    return parse


def _at_least(low: int, name: str) -> Callable:
    def check(value):
        if value is not None and value < low:
            raise ValueError(f"{name} {value} < {low}")
        return value
    return check


def _pt(pt_term: str) -> str:
    pt = normalize_term(pt_term)
    if not pt:
        raise ValueError("pt_term is empty after normalization")
    return pt


def _tier(tier: str) -> str:
    if tier not in TIER_VALUES:
        raise ValueError(f"tier must be one of {TIER_VALUES}, got {tier!r}")
    return tier


_onset_day, _cycle = _at_least(0, "onset_day"), _at_least(1, "cycle")
_ID = _nonblank("empty subject_id or arm", 0)


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
    ``load_episodes`` runs the same checks once per distinct CSV value.
    """

    __slots__ = ()

    def __new__(cls, subject_id: str, arm: str, pt_term: str, onset_day: int | None = None,
                cycle: int | None = None, serious: bool | None = None,
                severity: int | None = None, tier: str = "untiered"):
        return tuple.__new__(cls, (subject_id, arm, _pt(pt_term), _onset_day(onset_day),
                                   _cycle(cycle), serious, severity, _tier(tier)))


class EpisodeColumns:
    """The episodes as a ``Coded`` column per ``AeEpisode`` field, under the
    field's name, checked as ``load_episodes`` checks them and not to be
    changed: the one form in which episodes are read. ``len()`` counts them."""

    __slots__ = _EpisodeFields._fields

    def __init__(self, columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.subject_id)


_EPISODE_COLUMNS = (
    Column("subject_id", _ID, required=True),
    Column("arm", _ID, required=True),
    Column("pt_term", lambda raw: _pt(raw or ""), required=True),
    Column("onset_day", _optional(int, "onset_day", _onset_day)),
    Column("cycle", _optional(int, "cycle", _cycle)),
    Column("serious", _optional(bool, "serious")),
    Column("severity", _optional(int, "severity")),
    Column("tier", lambda raw: _tier((raw or "").strip().lower() or "untiered")),
)


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
        record = tuple.__new__(cls, (subject_id, arm, sex, _age(age_years), background_therapy,
                                     substudy, first_dose_day, last_observed_day))
        _check_observed(record)
        return record


def _age(age_years: float | None) -> float | None:
    if age_years is None or 0 <= age_years < math.inf:  # nan fails it too
        return age_years
    raise ValueError("age_years < 0" if age_years < 0 else "age_years must be finite")


def _check_observed(subject: SubjectRecord) -> None:
    first, last = subject.first_dose_day, subject.last_observed_day
    if first is not None and last is not None and last < first:
        raise ValueError("last_observed_day < first_dose_day")


def _text(raw: str | None) -> str | None:
    return (raw or "").strip() or None


_SUBJECT_COLUMNS = (
    Column("subject_id", _ID, required=True),
    Column("arm", _ID, required=True),
    Column("sex", lambda raw: {"F": "F", "M": "M"}.get((raw or "").strip().upper(), "U"), True),
    Column("age_years", _optional(float, "age_years", _age)),
    Column("background_therapy", _text),
    Column("substudy", _text),
    Column("first_dose_day", _optional(int, "first_dose_day")),
    Column("last_observed_day", _optional(int, "last_observed_day")),
)


def _term(raw: str | None) -> str:
    if raw is None:
        raise Fault("missing hierarchy columns", 1)
    term = normalize_term(raw)
    if not term:
        raise Fault("empty term")
    return term


class HierarchyMap:
    """PT -> (HLT, HLGT, SOC) lookup with a functional chain.

    A given HLT maps to one HLGT, and a given HLGT to one SOC; violations
    are rejected at construction. Terms are kept as given, so a map built in
    code takes ``normalize_term`` terms: an HLT, HLGT or SOC that is not is
    rejected, and a PT that is not misses (``TrialDataset``). ``from_csv``
    normalizes a file's.
    """

    def __init__(self, entries: dict[str, tuple[str, str, str]]):
        hlt_parent: dict[str, str] = {}
        hlgt_parent: dict[str, str] = {}
        for hlt, hlgt, soc in entries.values():
            if hlt_parent.setdefault(hlt, hlgt) != hlgt:
                raise InputError(f"hlt {hlt!r} mapped to more than one hlgt")
            if hlgt_parent.setdefault(hlgt, soc) != soc:
                raise InputError(f"hlgt {hlgt!r} mapped to more than one soc")
        for level, terms in zip(_TRIPLE_INDEX, (hlt_parent, hlgt_parent,
                                                dict.fromkeys(hlgt_parent.values()))):
            for term in terms:  # each distinct term once
                normalized = normalize_term(term)
                if normalized != term:
                    raise InputError(f"{level} {term!r} is not normalized: {normalized!r}")
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def term_at(self, pt_term: str, level: str) -> str:
        """Resolve a PT, as given, to its term at the requested hierarchy level."""
        if level == "pt":
            return pt_term
        triple = self.entries.get(pt_term)
        if triple is None:
            raise UnmappedTerm(f"pt {pt_term!r} not in hierarchy")
        return triple[_TRIPLE_INDEX[level]]

    def socs(self) -> list[str]:
        return sorted({soc for _, _, soc in self.entries.values()})

    @classmethod
    def from_csv(cls, path: str | Path) -> "HierarchyMap":
        entries: dict[str, tuple[str, str, str]] = {}

        def check(record: tuple, line_no: int) -> None:
            pt, *terms = record
            if entries.setdefault(pt, tuple(terms)) != tuple(terms):
                raise ValueError(f"pt {pt!r} duplicated with a different hierarchy path")
        read_table(path, tuple, tuple(Column(f"{level}_term", _term, True)
                                      for level in HIERARCHY_LEVELS), check)
        return cls(entries)


class TrialDataset:
    """Immutable validated container for one trial's safety data, the episodes as ``columns``."""

    __slots__ = ("subjects", "columns", "hierarchy", "arms", "subject_of_code", "_terms")

    def __init__(self, subjects: tuple[SubjectRecord, ...], episodes: EpisodeColumns | tuple,
                 hierarchy: HierarchyMap | None = None, arms: tuple[str, ...] = ()):
        """``episodes`` are columns, or ``AeEpisode`` records to code into columns
        (not kept). ``hierarchy`` must map every PT of ``columns.pt_term.values``."""
        if not isinstance(episodes, EpisodeColumns):
            episodes = EpisodeColumns(map(Coded.encode, list(zip(*episodes))
                                          or [()] * len(_EpisodeFields._fields)))
        pts = episodes.pt_term.values
        terms = {"pt": pts}  # per level, each PT code's term
        if hierarchy is not None:
            missing = sorted(set(pts) - set(hierarchy.entries))
            if missing:
                raise UnmappedTerm(
                    f"{len(missing)} pt term(s) absent from hierarchy, e.g. {missing[:5]}"
                )
            terms.update((level, [hierarchy.term_at(pt, level) for pt in pts])
                         for level in _TRIPLE_INDEX)
        by_id = {}
        for s in subjects:
            if s.subject_id in by_id:
                raise InputError(f"duplicate subject_id {s.subject_id!r}")
            by_id[s.subject_id] = s
        # each distinct (subject, arm) code pair in order of first appearance,
        # so the first faulty episode is the one reported
        ids, arms_of = episodes.subject_id, episodes.arm
        for s, a in dict.fromkeys(zip(ids.codes, arms_of.codes)):
            subject_id, arm = ids.values[s], arms_of.values[a]
            subj = by_id.get(subject_id)
            if subj is None:
                raise UnknownSubject(f"episode references unknown subject {subject_id!r}")
            if subj.arm != arm:
                raise ArmMismatch(
                    f"episode arm {arm!r} != subject arm {subj.arm!r} for {subject_id!r}"
                )
        present = tuple(dict.fromkeys(s.arm for s in subjects))
        if not arms:
            arms = present
        elif set(arms) != set(present):
            raise InputError("declared arms differ from arms present in subjects")
        of_code = [by_id.get(i) for i in ids.values]  # per subject_id code, its SubjectRecord
        for name, value in zip(self.__slots__, (subjects, episodes, hierarchy, arms, of_code,
                                                terms)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TrialDataset is immutable, cannot change {name!r}")

    __delattr__ = __setattr__

    def in_arm(self, arm: str) -> bytes | bytearray:
        """Per episode, 1 if it is one of ``arm``'s, else 0."""
        return self.columns.arm.mask(arm)

    def terms_at(self, level: str) -> list[str]:
        """Per code of ``columns.pt_term``, its term at ``level``."""
        if level not in HIERARCHY_LEVELS:
            raise ValueError(f"level must be one of {HIERARCHY_LEVELS}, got {level!r}")
        if level != "pt" and self.hierarchy is None:
            raise MissingHierarchy("this analysis needs a hierarchy mapping file")
        return self._terms[level]


def load_subjects(path: str | Path) -> list[SubjectRecord]:
    seen: set[str] = set()

    def check(subject: SubjectRecord, line_no: int) -> None:
        _check_observed(subject)
        if subject.subject_id in seen:
            raise ValueError(f"duplicate subject_id {subject.subject_id!r}")
        seen.add(subject.subject_id)
    return read_table(path, SubjectRecord, _SUBJECT_COLUMNS, check)


def load_episodes(path: str | Path) -> EpisodeColumns:
    """Read the episodes CSV into validated columns (see ``read_table``).

    The columns of a regular file are cached by ``_cache_entry``, whose
    name covers the file's bytes and the code that parses them, so a hit
    returns what a parse would. A parse is stored only if it succeeds and
    the file still hashes to the same name; an entry that cannot be read or
    used is a miss, and a cache that cannot be written is skipped.
    """
    entry = _cache_entry(path)
    columns = _cached(entry) if entry else None
    if columns is None:
        columns = EpisodeColumns(read_table(path, None, _EPISODE_COLUMNS))
        if entry and _cache_entry(path) == entry:  # the bytes parsed are the bytes hashed
            _save(entry, columns)
    return columns


def _cache_directory() -> Path | None:
    """``$XDG_CACHE_HOME/adx``, or ``~/.cache/adx``, made with mode 0700 if
    missing, and made 0700 if others may only read it. None if there is no
    absolute base, or the directory cannot be made, or it is not a directory
    of this user's that no one else may write to: another user's entry
    could hold forged columns. Its entries are copies of trial data."""
    base = next((base for base in (os.environ.get("XDG_CACHE_HOME", ""),
                                   os.path.expanduser("~/.cache")) if os.path.isabs(base)), None)
    if base is None:
        return None
    directory = Path(base, "adx")
    try:
        Path(base).mkdir(mode=0o700, parents=True, exist_ok=True)
        directory.mkdir(mode=0o700, exist_ok=True)
        found = os.lstat(directory)  # a symbolic link is not used
        mine = stat.S_ISDIR(found.st_mode) and found.st_uid == os.getuid()
        if not mine or found.st_mode & 0o022:  # others may have written its entries
            return None
        if found.st_mode & 0o077:
            os.chmod(directory, 0o700)
    except OSError:
        return None
    return directory


def _cache_entry(path: str | Path) -> Path | None:
    """Where the columns of the episodes file at ``path`` are cached: in
    ``_cache_directory()``, under a digest of the file and of what parses it
    (the entry layout, the Python version, the csv field limit and this
    module's bytes). None if ``path`` is not a regular file that can be
    read, or there is no cache directory to use."""
    try:
        with open(path, "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return None  # hashing a pipe would use up what the parse is to read
            directory = _cache_directory()
            if directory is None:
                return None
            source = Path(__file__).read_bytes()
            digest = blake2b(repr((_CACHE_FORMAT, sys.version, csv.field_size_limit(),
                                   len(source))).encode(), digest_size=20)
            digest.update(source)
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
    except OSError:
        return None
    return directory / (digest.hexdigest() + _CACHE_SUFFIX)


def _cached(entry: Path) -> EpisodeColumns | None:
    """The columns stored in ``entry``, if its checksum holds and it holds
    its own name and one code store per episode column, all of one length,
    each code inside its table; else None, for a missing, corrupt or
    malformed entry."""
    try:
        blob = memoryview(entry.read_bytes())
        if blake2b(blob[_CACHE_SUM:], digest_size=_CACHE_SUM).digest() != blob[:_CACHE_SUM]:
            return None
        name, stores = marshal.loads(blob[_CACHE_SUM:])
        if name != entry.name or len(stores) != len(_EPISODE_COLUMNS):
            return None
        columns = []
        for typecode, codes, values in stores:
            if typecode not in ("B", "H", "I") or type(values) is not list:
                return None
            if typecode == "B":  # the codes left after deleting those inside the table
                codes = bytearray(codes)
                outside = codes.translate(None, bytes(range(min(len(values), 256))))
            else:
                codes = array(typecode, codes)
                outside = max(codes, default=-1) >= len(values)
            if outside:
                return None
            columns.append(Coded(codes, values))
    except (OSError, EOFError, ValueError, TypeError):
        return None
    return EpisodeColumns(columns) if len(set(map(len, columns))) == 1 else None


def _save(entry: Path, columns: EpisodeColumns) -> None:
    """Write ``columns`` to ``entry`` with ``atomic_write``, then remove the
    oldest entries beyond ``CACHE_ENTRIES``."""
    stores = [(getattr(c.codes, "typecode", "B"), c.codes, c.values)
              for c in map(columns.__getattribute__, columns.__slots__)]
    body = marshal.dumps((entry.name, stores))
    with suppress(OSError):
        with atomic_write(entry, binary=True) as fh:
            fh.write(blake2b(body, digest_size=_CACHE_SUM).digest())
            fh.write(body)
        with os.scandir(entry.parent) as found:
            entries = sorted((e.stat().st_mtime_ns, e.path) for e in found
                             if e.name.endswith(_CACHE_SUFFIX))  # not a temporary file
        for _, old in entries[:-CACHE_ENTRIES]:
            os.remove(old)


def load_exposure(path: str | Path) -> dict[str, int]:
    """Read an exposure CSV (subject_id,last_cycle) into subject_id -> last
    cycle, one row per subject."""
    exposure: dict[str, int] = {}

    def check(record: tuple, line_no: int) -> None:
        subject_id, last_cycle = record
        if last_cycle is None:
            raise ValueError("empty subject_id or last_cycle")
        if subject_id in exposure:
            raise ValueError(f"second exposure row for subject {subject_id!r}")
        exposure[subject_id] = last_cycle
    read_table(path, tuple, (
        Column("subject_id", _nonblank("empty subject_id or last_cycle"), required=True),
        Column("last_cycle", _optional(int, "last_cycle"), required=True)), check)
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
        if unmapped == "synthetic":  # a loaded column's table holds only values that occur
            missing = sorted(set(episodes.pt_term.values) - set(hierarchy.entries))
            routed = dict.fromkeys(missing, ("unmapped",) * 3)
            hierarchy = HierarchyMap({**hierarchy.entries, **routed})
    return TrialDataset(subjects=tuple(subjects), episodes=episodes, hierarchy=hierarchy)


def dataset_summary(data: TrialDataset) -> list[dict]:
    """Per-arm and pooled counts: subjects, episodes, distinct types,
    subjects with at least one episode.

    The pooled distinct-type count is a set union, so it can be smaller
    than the sum of the per-arm counts.
    """
    c, subjects = data.columns, Counter(map(itemgetter(1), data.subjects))
    rows = []
    for arm, n_subj, mask in [*((arm, subjects[arm], c.arm.mask(arm)) for arm in data.arms),
                              ("Total", len(data.subjects), b"\1" * len(c))]:
        # a subject's episodes are all in its arm, as checked
        n_with = len(set(compress(c.subject_id.codes, mask)))
        rows.append({"arm": arm, "subjects": n_subj, "episodes": mask.count(1),
                     "distinct_types": len(set(compress(c.pt_term.codes, mask))),
                     "subjects_with_ae": n_with,
                     "pct_subjects_with_ae": 100.0 * n_with / n_subj if n_subj else 0.0})
    return rows


def write_trial(data: TrialDataset, episodes_file: str | Path, subjects_file: str | Path) -> None:
    """Serialize a dataset back to the two CSV schemas, order-normalized:
    subjects by id, episodes by ``(subject_id, pt_term, onset_day, cycle)``
    with a missing day or cycle first. Each file is one ``writerows`` of its
    records, ``None`` written as an empty field and ``serious`` as
    ``str(value).lower()``."""
    _write_rows(subjects_file, _SubjectFields._fields, sorted(data.subjects, key=itemgetter(0)))
    c = data.columns
    serious = Coded(c.serious.codes, [None if v is None else str(v).lower()
                                      for v in c.serious.values])
    rows = zip(c.subject_id, c.arm, c.pt_term, c.onset_day, c.cycle, serious, c.severity, c.tier)
    _write_rows(episodes_file, _EpisodeFields._fields, sorted(rows, key=lambda r: (
        r[0], r[2], -1 if r[3] is None else r[3], -1 if r[4] is None else r[4])))


def _write_rows(path: str | Path, header: tuple[str, ...], rows) -> None:
    with atomic_write(path) as fh:
        csv.writer(fh).writerows(chain([header], rows))
