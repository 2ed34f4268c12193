"""The episodes cache: ``load_episodes`` keeps a file's coded columns under a
digest of its bytes and of the code that parses them.

A hit must equal a parse: the same codes in the same store type, and equal
value tables whose values have the same types. A parse that fails, an entry
that cannot be used and a cache that cannot be written change nothing that
a command returns or writes.
"""
import csv
import json
import marshal
import os
import stat
import subprocess
import sys
import tempfile
import threading
from itertools import repeat
from pathlib import Path

from _blake2 import blake2b

import pytest
from hypothesis import given, settings

from adx import cli, data
from adx.data import AeEpisode, load_episodes
from adx.errors import InputError

from conftest import tiny_trial, write_csv
from test_loader import COLUMNS, _columns, awkward_episodes, reference_read_table


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty cache directory of the test's own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "adx"


def _entries(directory):
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def _parses(monkeypatch):
    """The paths ``read_table`` parses from now on, as a list."""
    parsed, read = [], data.read_table
    monkeypatch.setattr(data, "read_table", lambda path, *a: parsed.append(path) or read(path, *a))
    return parsed


def _stores(columns):
    """Each column's store type, codes, and values with their types."""
    return [(type(c.codes), getattr(c.codes, "typecode", None), list(c.codes),
             [(type(v), v) for v in c.values])
            for c in map(columns.__getattribute__, columns.__slots__)]


def _episodes(directory, rows, name="episodes.csv"):
    return write_csv(directory / name, COLUMNS, rows)


ROWS = [["S1", "A", "Nausea", "3", "1", "yes", "2", "tier1"],
        ["S2", "B", "rash", "", "", "0", "", ""],
        ["S1", "A", "nausea", "7", "2", "", "1", ""]]


@settings(max_examples=150, deadline=None)
@given(drawn=awkward_episodes())
def test_a_hit_equals_a_parse(tmp_path_factory, drawn):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        path = write_csv(tmp_path_factory.mktemp("hit") / "episodes.csv", *drawn)
        expected = _columns(reference_read_table, path)
        parsed = _parses(patch)
        try:
            first, second = load_episodes(path), load_episodes(path)
        except InputError:
            assert expected[0] == "error" and len(parsed) == 1  # not stored, so parsed again
            with pytest.raises(InputError):
                load_episodes(path)
            assert len(parsed) == 2
            return
    assert parsed == [path]  # the second load is a hit
    assert _stores(second) == _stores(first)
    decoded = [list(getattr(second, name)) for name in second.__slots__]
    assert _columns(lambda *_: decoded, path) == expected


def test_a_hit_keeps_wide_stores_and_value_types(cache, tmp_path, monkeypatch):
    rows = [[f"S{i}", "A", f"pt {i % 300}", str(i % 7), "", "yes" if i % 2 else "1", "", ""]
            for i in range(700)]
    path = _episodes(tmp_path, rows + [["S1", "B", "x", "", "", "0", "", ""]])
    first = load_episodes(path)
    parsed = _parses(monkeypatch)
    second = load_episodes(path)
    assert parsed == [] and _stores(second) == _stores(first)
    assert second.subject_id.codes.typecode == "H" and isinstance(second.arm.codes, bytearray)
    assert [(type(v), v) for v in second.serious.values] == [(bool, True), (bool, False)]
    assert [(type(v), v) for v in second.cycle.values] == [(type(None), None)]


def test_a_loaded_trial_is_the_same_on_a_hit(cache, tiny_trial_files):
    files = [tiny_trial_files[k] for k in ("episodes", "subjects", "hierarchy")]
    cold, warm = data.load_trial(*files), data.load_trial(*files)
    assert _stores(warm.columns) == _stores(cold.columns)
    assert [warm.terms_at(level) for level in data.HIERARCHY_LEVELS] == [
        cold.terms_at(level) for level in data.HIERARCHY_LEVELS]


def test_an_empty_file_is_a_hit_too(cache, tmp_path, monkeypatch):
    path = _episodes(tmp_path, [])
    assert len(load_episodes(path)) == 0
    parsed = _parses(monkeypatch)
    assert len(load_episodes(path)) == 0 and parsed == []


@pytest.mark.parametrize("rows", [
    [["S1", "A", "x", "soon", "", "", "", ""]],
    [["S1", "A", "x", "1", "", "", "", ""]] * 300 + [["S1", "A", " ", "1", "", "", "", ""]],
])
def test_a_failed_parse_is_not_stored(cache, tmp_path, rows):
    path = _episodes(tmp_path, rows)
    errors = []
    for _ in range(2):
        with pytest.raises(InputError) as fault:
            load_episodes(path)
        errors.append((type(fault.value), fault.value.line_no, str(fault.value)))
    assert errors[0] == errors[1] and _entries(cache) == []


def test_the_key_covers_the_bytes_the_parser_and_the_field_limit(cache, tmp_path, monkeypatch):
    path = _episodes(tmp_path, ROWS)
    entry = data._cache_entry(path)
    assert entry.parent == cache and entry.name.endswith(".episodes")
    path.write_bytes(path.read_bytes() + b"\n")  # a blank line: the same episodes
    assert data._cache_entry(path) not in (None, entry)
    path.write_bytes(path.read_bytes()[:-1])
    assert data._cache_entry(path) == entry
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(limit + 1)
        assert data._cache_entry(path) != entry
    finally:
        csv.field_size_limit(limit)
    source = tmp_path / "data.py"  # another checkout's data.py, one byte apart
    source.write_bytes(open(data.__file__, "rb").read() + b"\n")
    monkeypatch.setattr(data, "__file__", str(source))
    assert data._cache_entry(path) != entry


@pytest.mark.parametrize("base, where", [("", "home"), ("relative/dir", "home"),
                                         ("{tmp}/xdg", "xdg")])
def test_the_cache_directory(monkeypatch, tmp_path, base, where):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", base.format(tmp=tmp_path))
    entry = data._cache_entry(_episodes(tmp_path, ROWS))
    assert entry.parent == tmp_path / {"home": "home/.cache", "xdg": "xdg"}[where] / "adx"


def test_without_an_absolute_base_nothing_is_cached(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where a relative base would put its entries
    monkeypatch.setenv("HOME", "relative/home")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/xdg")
    assert data._cache_directory() is None
    parsed = _parses(monkeypatch)
    path = _episodes(tmp_path, ROWS)
    assert len(load_episodes(path)) == len(ROWS)
    assert parsed == [path]
    assert _entries(tmp_path) == ["episodes.csv"]


def test_a_file_changed_while_parsed_is_not_stored(cache, tmp_path, monkeypatch):
    path = _episodes(tmp_path, ROWS)
    read = data.read_table

    def changing(p, *args):  # the file changes after it was hashed, before it is parsed
        _episodes(tmp_path, ROWS[:1])
        return read(p, *args)
    monkeypatch.setattr(data, "read_table", changing)
    assert len(load_episodes(path)) == 1  # what the parse read
    assert _entries(cache) == []
    monkeypatch.setattr(data, "read_table", read)
    assert len(load_episodes(path)) == 1
    assert _entries(cache) == [data._cache_entry(path).name]


def _flip(blob, at):
    return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]


@pytest.mark.parametrize("damage", [
    lambda blob: b"",
    lambda blob: blob[:len(blob) // 2],
    lambda blob: _flip(blob, 0),
    lambda blob: _flip(blob, len(blob) - 3),  # a byte of the body
    lambda blob: blob + b"trailing",
], ids=["empty", "truncated", "checksum", "body", "trailing"])
def test_a_corrupt_entry_is_a_miss(cache, tmp_path, monkeypatch, damage):
    path = _episodes(tmp_path, ROWS)
    expected = _stores(load_episodes(path))
    entry = data._cache_entry(path)
    entry.write_bytes(damage(entry.read_bytes()))
    parsed = _parses(monkeypatch)
    assert _stores(load_episodes(path)) == expected and parsed == [path]
    parsed.clear()
    assert _stores(load_episodes(path)) == expected and parsed == []  # stored again


def _malformed(name, stores):
    """Entries that unpickle but fail the structural check."""
    good = list(stores)
    yield name + "x", good  # another entry's name
    yield name, good[:-1]  # a column short
    yield name, [*good[:-1], ("B", b"\x00" * (len(good[0][1]) + 1), ["untiered"])]  # a longer one
    yield name, [*good[:-1], ("B", b"\x01" * len(good[-1][1]), ["untiered"])]  # outside its table
    yield name, [("H", good[0][1], good[0][2]), *good[1:]]  # an odd number of bytes read as 'H'
    yield name, [("d", good[0][1], good[0][2]), *good[1:]]  # not a code store
    yield name, [(good[0][0], good[0][1], tuple(good[0][2])), *good[1:]]  # not a table
    yield name, None


def test_a_malformed_entry_is_a_miss(cache, tmp_path, monkeypatch):
    path = _episodes(tmp_path, ROWS * 3)
    expected = _stores(load_episodes(path))
    entry = data._cache_entry(path)
    name, stores = marshal.loads(entry.read_bytes()[data._CACHE_SUM:])
    for forged in _malformed(name, stores):
        body = marshal.dumps(forged)  # with a checksum that holds
        entry.write_bytes(blake2b(body, digest_size=data._CACHE_SUM).digest() + body)
        assert data._cached(entry) is None, forged
        assert _stores(load_episodes(path)) == expected
    assert data._cached(entry) is not None  # the last load stored it again


def test_an_unwritable_cache_changes_no_output(monkeypatch, tmp_path, capsys):
    files = tiny_trial(tmp_path)
    argv = ["summary", "--episodes", str(files["episodes"]), "--subjects",
            str(files["subjects"]), "--format", "text,json-lines,csv"]
    outputs = []
    for base in (tmp_path / "xdg", tmp_path / "a-file"):  # a cache home that is a file
        (tmp_path / "a-file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(base))
        out = tmp_path / f"out-{base.name}"
        code = cli.main([*argv, "--out", str(out)])
        outputs.append((code, capsys.readouterr(),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert outputs[1][0] == 0 and outputs[1][1].err == ""
    assert _entries(tmp_path / "xdg" / "adx") != []


def test_an_entry_is_written_through_a_temporary_file(cache, tmp_path, monkeypatch):
    # made new (never through a file or link already there) with mode 0600
    opened, replaced, open_, replace = [], [], os.open, os.replace
    monkeypatch.setattr(os, "open", lambda p, flags, *a, **k: opened.append((Path(p), flags, *a))
                        or open_(p, flags, *a, **k))
    monkeypatch.setattr(os, "replace", lambda a, b: replaced.append((Path(a), b)) or replace(a, b))
    path = _episodes(tmp_path, ROWS)
    load_episodes(path)
    (temporary, entry), = replaced
    assert entry == data._cache_entry(path) and temporary.parent == cache
    assert not temporary.exists() and _entries(cache) == [entry.name]
    new = os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW
    assert [(flags & new, mode) for p, flags, mode in opened if p == temporary] == [(new, 0o600)]


def test_the_cache_keeps_the_newest_entries(cache, tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CACHE_ENTRIES", 3)
    names = []
    for i in range(6):
        path = _episodes(tmp_path, [*ROWS, [f"S{i}", "A", "x", "", "", "", "", ""]],
                         f"episodes{i}.csv")
        load_episodes(path)
        names.append(data._cache_entry(path).name)
        os.utime(cache / names[-1], ns=(i * 10**9, i * 10**9))  # a second apart
        assert _entries(cache) == sorted(names[-3:])


def test_a_pipe_is_read_once_and_not_cached(cache, tmp_path):
    fifo = tmp_path / "episodes.fifo"
    os.mkfifo(fifo)
    text = ",".join(COLUMNS) + "\n" + "\n".join(",".join(r) for r in ROWS) + "\n"
    writer = threading.Thread(target=lambda: fifo.write_text(text))
    writer.start()
    try:
        columns = load_episodes(fifo)
    finally:
        writer.join(timeout=10)
    assert len(columns) == 3 and _entries(cache) == []


def test_decoded_hit_equals_its_records(cache, tmp_path):
    path = _episodes(tmp_path, ROWS)
    load_episodes(path)
    columns = load_episodes(path)
    rows = zip(*(getattr(columns, name) for name in columns.__slots__))
    assert list(map(tuple.__new__, repeat(AeEpisode), rows)) == [
        AeEpisode("S1", "A", "nausea", 3, 1, True, 2, "tier1"),
        AeEpisode("S2", "B", "rash", None, None, False, None, "untiered"),
        AeEpisode("S1", "A", "nausea", 7, 2, None, 1, "untiered")]


@pytest.fixture
def no_umask():
    """A umask of 0, so that only the modes the cache asks for restrict its files."""
    old = os.umask(0)
    yield
    os.umask(old)


def test_only_the_user_can_read_the_cache(cache, tmp_path, no_umask):
    load_episodes(_episodes(tmp_path, ROWS))
    (entry,) = cache.iterdir()
    modes = {p: stat.S_IMODE(p.stat().st_mode) for p in (cache.parent, cache, entry)}
    assert modes == {cache.parent: 0o700, cache: 0o700, entry: 0o600}


@pytest.mark.parametrize("share", ["group", "others", "link"])
def test_a_cache_directory_others_can_write_is_not_used(cache, tmp_path, monkeypatch, share):
    path = _episodes(tmp_path, ROWS)
    entry = data._cache_entry(path)
    if share == "link":  # adx is a symbolic link to a private directory
        cache.rename(tmp_path / "elsewhere")
        cache.symlink_to(tmp_path / "elsewhere")
    else:
        cache.chmod({"group": 0o770, "others": 0o703}[share])
    assert data._cache_entry(path) is None
    parsed = _parses(monkeypatch)
    for _ in range(2):
        assert len(load_episodes(path)) == 3
    assert parsed == [path, path] and not (tmp_path / "elsewhere" / entry.name).exists()
    assert not entry.exists()


def test_a_cache_directory_others_can_read_is_made_private(cache, tmp_path, monkeypatch):
    path = _episodes(tmp_path, ROWS)
    cache.mkdir(mode=0o755, parents=True)
    cache.chmod(0o755)
    load_episodes(path)
    parsed = _parses(monkeypatch)
    load_episodes(path)
    assert parsed == [] and stat.S_IMODE(cache.stat().st_mode) == 0o700


@pytest.mark.parametrize("there", ["file", "link", "dangling link"])
def test_nothing_at_the_temporary_name_is_written_through(cache, tmp_path, monkeypatch, there):
    path = _episodes(tmp_path, ROWS)
    entry = data._cache_entry(path)
    target = tmp_path / "target"
    if there != "dangling link":
        target.write_bytes(b"kept")
    taken = entry.with_name(f"{entry.name}.taken")  # the name the writer tries first
    if there == "file":
        taken.write_bytes(b"kept")
    else:
        taken.symlink_to(target)
    names = iter(["taken", "free"])
    monkeypatch.setattr(tempfile, "_get_candidate_names", lambda: names)
    assert len(load_episodes(path)) == 3
    assert taken.is_symlink() == (there != "file")
    assert target.exists() == (there != "dangling link")  # not made through the link
    assert all(p.read_bytes() == b"kept" for p in (taken, target) if p.exists())
    assert data._cached(entry) is not None and _entries(cache) == sorted([entry.name, taken.name])


# run in a child: the name of the file's cache entry, then the tables of two loads of it
LOAD = """import json, sys
from adx import data
path = sys.argv[1]
columns = [data.load_episodes(path) for _ in range(2)]
print(json.dumps([data._cache_entry(path).name] + [[getattr(c, name).values for name in
                  c.__slots__] for c in columns]))
"""


@pytest.mark.parametrize("seeds", [("0", "1"), ("1", "0")])
def test_the_tables_and_the_entry_do_not_depend_on_the_hash_seed(cache, tmp_path, seeds):
    # a column's table lists its values in the order the rows first hold them
    rows = [[f"S{i * 7 % 50}", "AB"[i % 2], f"PT {i * 11 % 60}", str(i * 3 % 17), "", "", "", ""]
            for i in range(400)]
    path = _episodes(tmp_path, rows)
    src = str(Path(data.__file__).parent.parent)
    found = [json.loads(subprocess.run(
        [sys.executable, "-c", LOAD, str(path)], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed), timeout=60).stdout)
        for seed in seeds]
    (name, parsed, hit), other = found
    assert other == found[0] and parsed == hit and _entries(cache) == [name]
    expected = [list(dict.fromkeys(column)) for column in zip(*rows)]
    expected[2] = [pt.lower() for pt in expected[2]]
    expected[3] = [int(day) for day in expected[3]]
    assert parsed == [*expected[:4], [None], [None], [None], ["untiered"]]
