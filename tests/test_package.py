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
report = {"before": before, "loaded": loaded, "same": same, "modules": sorted(set(modules) & listed), "unknown": unknown}
print(json.dumps(report))
"""


def _run_fresh(*argv: str) -> dict:
    """The JSON report on the last line printed by a fresh interpreter run with ``argv``."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_margins_leave_the_spectral_and_simulation_layers_unloaded():
    assert _run_fresh("-c", PROBE) == {
        "before": [],
        "loaded": ["ringwave.stability"],
        "same": True,
        "modules": ["sim", "spectrum", "stability"],
        "unknown": "AttributeError",
    }


# run in a fresh interpreter with a command's CLI arguments: the layers loaded by the import, then by the run
CLI_PROBE = """
import json, sys

def loaded():
    return [m for m in ("sim", "spectrum", "stability", "_svg") if f"ringwave.{m}" in sys.modules]

from ringwave.cli import main

at_import = loaded()
code = main(sys.argv[1:])
print(json.dumps({"import": at_import, "code": code, "run": loaded()}))
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
    assert _run_fresh("-c", CLI_PROBE, *argv) == {"import": [], "code": 0, "run": layers}


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
