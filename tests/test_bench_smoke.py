"""One pass of each benchmark workload runs and checks out correct.

The benchmark drives the public API and the CLI; a renamed function or a
changed signature shows up here as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fleet_scan", "wave_growth", "design_scan"])
def test_bench_single_pass(workload):
    argv = ["--workload", workload, "--seed", "1", "--single-pass"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-2000:]
    assert result["failed"] == 0
