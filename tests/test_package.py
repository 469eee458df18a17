"""What ``import ringwave`` and each CLI command load, and the names served on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringwave as rw
from conftest import REF_D0, REF_HEADWAY, REF_LV, REF_SLOPE

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter: the analytic layers once each, then a report on the package
PROBE = """
import json, sys
import ringwave as rw

pref = rw.preference_with_slope(1.27, 10.4, 4.5, 2.23)
pops = (rw.PopulationSpec(1, rw.BandoFtl(4.0, 20.0, pref), 8),
        rw.PopulationSpec(2, rw.BandoFtl(0.5, 20.0, pref), 2))
comp = rw.Composition(pops, rw.spread_ordering(pops))
eq = rw.equilibrium_from_length(comp, 104.0)
trios = [rw.linearize(p.model, eq.h_bar[p.class_id], eq.v_bar) for p in pops]
layers = ("ringwave.sim", "ringwave.spectrum", "ringwave.stability")
before = [m for m in layers if m in sys.modules]
rw.multi_phase_margin(trios, [8, 2])
polynomial = "numpy.polynomial" in sys.modules
rw.critical_penetration(trios[0], trios[1])
rw.multi_phase_tau1(trios + [trios[1]], [0.5, 0.5])
loaded = [m for m in layers if m in sys.modules]

listed = set(dir(rw))
modules = {m: getattr(rw, m) for m in set(rw._LAZY.values())}
same = all(module is sys.modules[f"ringwave.{m}"] for m, module in modules.items()) and all(
    name in listed and getattr(rw, name) is (modules[m] if name == m else getattr(modules[m], name))
    for name, m in rw._LAZY.items()
)
try:
    rw.no_such_name
    unknown = "no error"
except AttributeError:
    unknown = "AttributeError"
report = {
    "before": before, "loaded": loaded, "polynomial": polynomial, "same": same,
    "modules": sorted(set(modules) & listed), "unknown": unknown,
}
print(json.dumps(report))
"""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TASKS = "/proc/self/task"
needs_proc = pytest.mark.skipif(not os.path.isdir(TASKS), reason="threads are counted in /proc/self/task")


def _run_fresh(*argv: str, **blas_vars: str) -> dict:
    """The JSON report on the last line printed by a fresh interpreter run with ``argv``.

    The child's environment has none of ``BLAS_VARS`` but those given in ``blas_vars``.
    """
    src = str(ROOT / "src")
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    env.update(blas_vars, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_margins_leave_the_spectral_and_simulation_layers_unloaded():
    # the margin's roots come from np.roots: numpy.polynomial would add about 0.8 MB to the process
    assert _run_fresh("-c", PROBE) == {
        "before": [],
        "loaded": ["ringwave.stability"],
        "polynomial": False,
        "same": True,
        "modules": ["sim", "spectrum", "stability"],
        "unknown": "AttributeError",
    }


# run in a fresh interpreter with a command's CLI arguments: the layers loaded by the import, then by the run
CLI_PROBE = """
import json, os, sys

def loaded():
    return [m for m in ("sim", "spectrum", "stability", "_svg") if f"ringwave.{m}" in sys.modules]

from ringwave.cli import main

at_import = loaded()
code = main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"import": at_import, "code": code, "run": loaded(), "threads": threads}))
"""

PREF = {"calibrate": {"h_ref": REF_HEADWAY, "slope": REF_SLOPE, "l_v": REF_LV, "d0": REF_D0}}
# a stable and an unstable class at the reference headway
MODELS = [{"kind": "bando_ftl", "a": a, "b": 20.0, "preference": PREF} for a in (4.0, 0.5)]
EQ = {"class_headway": {"class_id": 1, "headway": REF_HEADWAY}}
PAIR = [{"class_id": k + 1, "model": m} for k, m in enumerate(MODELS)]
COUNTED = [{**p, "count": c} for p, c in zip(PAIR, (5, 3))]
RING = {"composition": {"populations": COUNTED, "ordering": "spread"}, "equilibrium": EQ}
SWEEP = {"n_totals": [4, 8], "rate_class1": 0.5}
SIM = {"t_end": 1.0, "perturbation": {"amplitude": 0.1, "kind": "sinusoidal_mode"}}
CONFIGS = {
    "equilibrium": (RING, []),
    "simulate": ({**RING, "sim": SIM}, ["sim"]),
    "spectrum": (RING, ["spectrum"]),
    "sweep": ({"populations": PAIR, "equilibrium": EQ, "sweep": SWEEP}, ["spectrum"]),
    "tau0": ({"populations": PAIR, "equilibrium": EQ}, ["stability"]),
    "margin": ({"populations": COUNTED, "equilibrium": EQ}, ["stability"]),
}


@pytest.mark.parametrize("command", list(CONFIGS))
def test_each_command_loads_only_the_layers_it_runs(command, tmp_path):
    payload, layers = CONFIGS[command]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": 1, **payload}), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), "--deterministic"]
    threads = 1 if os.path.isdir(TASKS) else None
    assert _run_fresh("-c", CLI_PROBE, *argv) == {"import": [], "code": 0, "run": layers, "threads": threads}


# run in a fresh interpreter: the native threads after ``import numpy`` (when the first argument
# asks for it) and after ``import ringwave``, whether the import left os.environ as it was, and
# what a child process started after it sees of OPENBLAS_NUM_THREADS
THREAD_PROBE = """
import json, os, subprocess, sys

def threads():
    return len(os.listdir("/proc/self/task"))

before = dict(os.environ)
if sys.argv[1] == "numpy-first":
    import numpy
numpy_threads = threads() if "numpy" in sys.modules else None
import ringwave
child = subprocess.run(
    [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
    capture_output=True, text=True, check=True,
).stdout.strip()
print(json.dumps({"numpy": numpy_threads, "ringwave": threads(), "environ_kept": dict(os.environ) == before, "child": child}))
"""


@needs_proc
def test_import_ringwave_loads_numpy_with_one_blas_thread():
    report = _run_fresh("-c", THREAD_PROBE, "ringwave-first")
    assert report == {"numpy": None, "ringwave": 1, "environ_kept": True, "child": "None"}


@needs_proc
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no worker on one core")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_blas_thread_variable_leaves_the_count_to_openblas(var):
    report = _run_fresh("-c", THREAD_PROBE, "ringwave-first", **{var: "2"})
    child = "2" if var == "OPENBLAS_NUM_THREADS" else "None"
    assert report == {"numpy": None, "ringwave": 2, "environ_kept": True, "child": child}


@needs_proc
def test_numpy_loaded_first_keeps_its_blas_threads():
    report = _run_fresh("-c", THREAD_PROBE, "numpy-first")
    assert report["ringwave"] == report["numpy"] >= 1
    assert report["environ_kept"] and report["child"] == "None"


def test_the_per_vehicle_ring_is_only_what_the_benchmark_calls():
    # bench/workloads.py builds a RingSystem and calls eigenvalues_on_H and transfer_product on it
    stable, unstable = rw.LinearTrio(0.5, 2.0, 1.0), rw.LinearTrio(2.0, 2.0, 1.0)
    ring = rw.RingSystem((stable, unstable, stable, stable))
    assert rw.assemble(ring).shape == (8, 8)
    lam = rw.eigenvalues_on_H(ring).eigenvalues
    assert len(lam) == 7
    top = lam[np.argmax(lam.real)]
    assert abs(rw.transfer_product(ring, top) - 1.0) <= 1e-9
    # the characteristic polynomial and the finite-difference trio are the tests' own oracle
    for name in ("char_poly_eval", "linearize_fd"):
        assert name not in dir(rw) and not hasattr(rw, name)
    assert not hasattr(rw.spectrum, "char_poly_eval") and not hasattr(sys.modules["ringwave.linearize"], "linearize_fd")
    assert not hasattr(rw.Fleet, "from_ring")
