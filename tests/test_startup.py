"""Start-up budget: the report commands load neither numpy nor scipy, no
command loads ``dataclasses`` or ``inspect``, and scipy is a test oracle
only, never a runtime import."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def test_cli_import_loads_neither_numpy_nor_scipy():
    code = ("import adx.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    version = subprocess.run([sys.executable, "-m", "adx.cli", "--version"], env=_env(),
                             capture_output=True, text=True, timeout=60)
    assert version.returncode == 0
    assert version.stdout.startswith("adx-toolkit ")


def test_report_modules_load_no_numpy():
    # the resampling kernel must stay off the report commands' import path
    code = ("import adx.cli, adx.entropy, adx.cohorts, adx.temporal, adx.report, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # records are named tuples; dataclasses, with the inspect it pulls in,
    # would cost every command several milliseconds of start-up
    code = ("import adx.cli, sys; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _imports_of(module: str) -> list[str]:
    """``file:line`` of every import of ``module`` (or a submodule) under ``src/adx``."""
    found = []
    for path in sorted((SRC / "adx").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == module]
    return found


def test_no_module_imports_scipy():
    assert _imports_of("scipy") == []


def test_no_module_imports_dataclasses():
    assert _imports_of("dataclasses") == []
