"""Hygiene of the package source: short lines, no unused imports, no unread
private names, ``AeEpisode`` records and the hierarchy's lookups known
only to the module that builds trials from them, terms normalized only
where they enter, and files written by path only through one writer.

Lines are cut to fit, not joined to save lines, and an import or a private
helper that a deletion leaves behind goes with it. An import kept for its side effect or
as a re-export carries ``# noqa: F401`` on its first line.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "adx").glob("*.py"))
MAX_COLUMNS = 100


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_is_longer_than_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert long == [], f"{path.name}: (line, columns) over {MAX_COLUMNS}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # ``import a.b`` binds ``a``
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    assert unused == [], f"{path.name}: (line, name) imported and never used"


def test_every_private_module_name_is_read():
    # a module-level ``_name`` (one leading underscore) is read somewhere in
    # the package: as a name, or as an attribute of the module that defines it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(name, d) for d in defined
                       if d.startswith("_") and not d.startswith("__") and d not in read]
    assert unread == [], "(module, name) defined at module level and never read"


def test_only_data_names_the_episode_record():
    # a trial is read only as coded columns: AeEpisode records build one in
    # ``data`` (``__init__`` re-exports the class) and are never read back
    naming = [path.name for path in SOURCES if path.name not in ("data.py", "__init__.py")
              and "AeEpisode" in path.read_text(encoding="utf-8")]
    assert naming == [], "modules other than data.py that name AeEpisode"


def test_only_data_resolves_the_hierarchy():
    # a trial maps each PT code to its term at each level once, when built:
    # every other module reads those lists through ``TrialDataset.terms_at``
    resolving = [(path.name, node.lineno, node.attr) for path in SOURCES if path.name != "data.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr in ("term_at", "entries")]
    assert resolving == [], "(module, line, attribute) of a hierarchy lookup outside data.py"


def test_terms_are_normalized_only_where_they_enter():
    # the input parsers normalize each term once: a PT (``data._pt``), a
    # hierarchy file's term (``data._term``) and drilldown's ``--soc`` value;
    # ``HierarchyMap.__init__`` only checks that a map built in code holds
    # normalized HLT, HLGT and SOC terms, and keeps them as given
    uses = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        methods = {function: f"{cls.name}.{function.name}" for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for function in cls.body if isinstance(function, functions)}
        owner = {}  # node -> its innermost function; ast.walk meets outer functions first
        for function in ast.walk(tree):
            if isinstance(function, functions):
                name = methods.get(function, function.name)
                owner.update((node, name) for node in ast.walk(function))
        uses += [(path.stem, owner.get(node, "<module>")) for node in ast.walk(tree)
                 if getattr(node, "id", getattr(node, "attr", None)) == "normalize_term"]
    assert sorted(uses) == [("cohorts", "drilldown"), ("data", "HierarchyMap.__init__"),
                            ("data", "_pt"), ("data", "_term")], \
        "(module, function or Class.method) of each use of normalize_term"


def _name(node) -> str:
    """The dotted name of a called function, ``?`` for a part that is not a name."""
    if isinstance(node, ast.Attribute):
        return f"{_name(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def test_files_are_written_by_path_only_through_the_writer():
    # ``report.atomic_write`` makes a new temporary file beside the target and
    # renames it into place. Nothing else opens a path to write, calls
    # ``os.open``, ``Path.write_*`` or ``tempfile``
    writes, writers = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) == (
                    "report.py", "atomic_write"):
                inside.update(ast.walk(node))
                writers += 1
        for node in ast.walk(tree):
            if node in inside:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "tempfile" or \
                    isinstance(node, ast.Name) and node.id == "tempfile":
                writes.append((path.name, node.lineno, "tempfile"))
            if not isinstance(node, ast.Call):
                continue
            called = _name(node.func)
            method = called.rsplit(".", 1)[-1]
            path_write = method in ("write_text", "write_bytes") and called not in (
                "write_text", "report.write_text")  # not a method of a path: report's own
            if called == "os.open" or path_write:
                writes.append((path.name, node.lineno, called))
            elif method == "open":  # open(file, mode) or a method path.open(mode)
                at = 1 if called in ("open", "io.open") else 0
                mode = node.args[at] if len(node.args) > at else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                text = mode.value if isinstance(mode, ast.Constant) else "w"  # not known: a write
                if set(str(text)) & set("wax+"):
                    writes.append((path.name, node.lineno, called))
    assert writers == 1, "report.atomic_write, the one writer, is missing"
    assert writes == [], "(module, line, call) of a file written outside report.atomic_write"


def test_only_the_malformed_row_writes_a_path_and_a_line():
    # ``errors.MalformedRow(path, line_no, reason)`` is the one writer of a
    # row's ``path:line: ``; every other module hands it the three parts, so
    # no f-string there puts two values around a colon before ``: ``
    shaped = []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "\0"
                               for part in node.values)
                if "\0:\0: " in text:
                    shaped.append((path.name, node.lineno))
    assert shaped == [], "(module, line) of an f-string that formats a row as path:line"
