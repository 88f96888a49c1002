"""One short run of each benchmark workload: set-up, checks and exit code.

``perfbench/run.py`` exits 1 when an output check fails and also when
set-up, ``prepare`` or the gradient check raises, so a change that breaks
any of them fails here rather than only in a benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train-lpd-rma", "train-lpgd-none", "eval-mix"])
def test_benchmark_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
