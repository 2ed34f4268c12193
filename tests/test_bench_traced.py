"""The benchmark's traced run on both workloads, as a guard.

``bench/run.py --trace 1`` runs every command of a workload once in a
subprocess, then in process through ``adx.cli.main``, plain and under the
span wrappers, and requires every output to equal the first run's byte for
byte. A change that lets output order depend on the process (a set or dict
iterated in hash order) or that leaves state behind after ``main`` fails it.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["trial-report", "resampling"])
def test_traced_run_is_correct(workload):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "7",
                           "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout
