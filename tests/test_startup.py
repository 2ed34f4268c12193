"""Start-up budget: the report commands and ``simulate`` load neither numpy
nor scipy, no command loads ``dataclasses`` or ``inspect``, and scipy is a
test oracle only, never a runtime import. ``import adx.cli`` loads only the
modules every command needs, and ``cli.main`` runs with the cyclic
garbage collector off, leaving its caller's setting as it found it and the
heap unfrozen; only ``cli.run``, the entry point, freezes it."""
import ast
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adx import cli

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


def test_cli_import_leaves_the_other_commands_modules_unloaded():
    # the report commands import cohorts, interim and exposure temporal,
    # benefit-risk and validate the rest
    code = ("import adx.cli, sys; print(sorted(m for m in ('adx.cohorts', 'adx.temporal', "
            "'adx.benefit_risk', 'adx.simulate', 'adx.kernel') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("subjects", ["subjects.csv", "missing.csv"])
@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(monkeypatch, tiny_trial_files, tmp_path,
                                                  collecting, subjects):
    seen = []
    summary = cli.COMMANDS["summary"]
    monkeypatch.setitem(cli.COMMANDS, "summary", lambda args: seen.append(gc.isenabled())
                        or summary(args))
    argv = ["summary", "--episodes", str(tiny_trial_files["episodes"]),
            "--subjects", str(tiny_trial_files["dir"] / subjects), "--out", str(tmp_path / "o")]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        code = cli.main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (0 if subjects == "subjects.csv" else 2)
    assert seen == [False] and after is collecting


def test_main_freezes_nothing_and_run_freezes_after_it(monkeypatch, tiny_trial_files, tmp_path):
    argv = ["summary", "--episodes", str(tiny_trial_files["episodes"]),
            "--subjects", str(tiny_trial_files["subjects"]), "--out", str(tmp_path / "o")]
    frozen = gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == frozen
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(gc.isenabled()))
    monkeypatch.setattr(sys, "argv", ["adx", *argv])
    assert cli.run() == 0 and freezes == [gc.isenabled()]  # once, after main restored gc


SCENARIO = ("[scenario]\nseed = 3\n\n[arm A]\nprobs = 0.5 0.3 0.2\nepisodes_per_subject = 2.0\n"
            "subjects = 30\nonset_span = 90\ncycle_dropout = 0.5\n\n"
            "[arm B]\nprobs = 0.4 0.3 0.2 0.1\nsubjects = 30\n")


def _numpy_after(argv: list[str]) -> tuple[int, str]:
    """Exit code of ``adx argv`` run in a child, and the numpy modules it loaded."""
    code = (f"import sys; from adx.cli import main; code = main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    code, numpy = out.stdout.splitlines()[-1].split(" ", 1)
    return int(code), numpy


def test_simulate_loads_no_numpy(tmp_path):
    code = ("import adx.simulate, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO)
    argv = ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "sim"),
            "--format", "text,json-lines"]
    assert _numpy_after(argv) == (0, "[]")
    assert (tmp_path / "sim" / "episodes.csv").stat().st_size > 0


def test_validate_still_runs_on_numpy(tmp_path):
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO)
    code, numpy = _numpy_after(["validate", "--scenario", str(scenario), "--replicates", "50",
                                "--out", str(tmp_path / "val"), "--format", "json-lines"])
    assert code == 0 and "'numpy'" in numpy
    assert (tmp_path / "val" / "validate.jsonl").read_text().count("\n") == 5


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
