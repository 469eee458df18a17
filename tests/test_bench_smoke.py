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
    result = _single_pass(workload)
    assert result["correct"], result
    assert result["failed"] == 0


def test_traced_cli_children_see_the_layers_they_load_on_first_use():
    # ``simulate`` imports the simulator when it runs and must still call the wrapped functions
    metrics = _single_pass("wave_growth", "--trace", "1")["metrics"]
    assert metrics["sim.simulate.self_s"]["value"] > 0
    assert metrics["sim.step_us.small"]["value"] > 0


def _single_pass(workload: str, *extra: str) -> dict:
    """The result line of one pass of ``workload`` with seed 1, after a zero exit."""
    argv = ["--workload", workload, "--seed", "1", *extra, "--single-pass"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])
