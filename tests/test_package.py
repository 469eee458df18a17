"""What ``import ringwave`` loads, and the names it serves on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
rw.multi_phase_margin(trios, [8, 2])
rw.critical_penetration(trios[0], trios[1])
rw.multi_phase_tau1(trios + [trios[1]], [0.5, 0.5])
loaded = [m for m in ("ringwave.spectrum", "ringwave.sim") if m in sys.modules]

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
report = {"loaded": loaded, "same": same, "modules": sorted(set(modules) & listed), "unknown": unknown}
print(json.dumps(report))
"""


def test_margins_leave_the_spectral_and_simulation_layers_unloaded():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"loaded": [], "same": True, "modules": ["sim", "spectrum"], "unknown": "AttributeError"}
