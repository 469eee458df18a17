"""Multi-population car-following traffic on a ring road.

Equilibrium flows, linearized spectra, analytic stability margins with the
critical penetration rate of stable drivers, and nonlinear stop-and-go
simulation.

``import ringwave`` loads the driver law, equilibria and linearization.  The
stability margins (``stability``), the spectral layer (``spectrum``) and the
simulator (``sim``) load on first use of one of their names, so a caller
compiles only the layers it uses: margins and ``tau0`` never load
``spectrum`` or ``sim``.

Where ``import ringwave`` is what first loads NumPy and none of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, NumPy
loads with one OpenBLAS thread, since no ringwave path calls threaded BLAS and an idle
worker only spins; ``os.environ`` is left as it was, so a host that wants threads for
its own BLAS work imports NumPy first or sets one of those variables.
"""

import importlib
import os
import sys

# OpenBLAS reads its thread count once, when NumPy loads it
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .equilibrium import (
    Composition,
    EquilibriumFlow,
    PopulationSpec,
    block_ordering,
    equilibrium_from_length,
    equilibrium_from_velocity,
    spread_ordering,
)
from .errors import (
    CollisionError,
    ConfigError,
    InsufficientDataError,
    ModelInvalidError,
    NoEquilibriumError,
    PoleError,
    TrafficError,
)
from .linearize import (
    LinearTrio,
    StabilityClass,
    classify,
    discriminant,
    linearize,
)
from .model import (
    BandoFtl,
    VelocityPreference,
    accel,
    eval_preference,
    eval_preference_slope,
    preference_with_slope,
    preferred_headway,
)
__version__ = "0.1.0"

# name -> submodule, for the submodules loaded on first use and the names they serve; not
# ``linearize``, whose function shares its name: loading the submodule would rebind it
_LAZY = {
    **dict.fromkeys(
        (
            "stability",
            "MarginReport",
            "MarginVerdict",
            "TwoPhaseReport",
            "critical_penetration",
            "gamma_squared",
            "log_gain",
            "margin_curve",
            "min_unstable_size",
            "multi_phase_margin",
            "multi_phase_tau1",
            "tau0_bounds",
        ),
        "stability",
    ),
    **dict.fromkeys(
        (
            "spectrum",
            "Fleet",
            "RingSystem",
            "SpectrumReport",
            "count_right_of",
            "eigenvalues",
            "eigenvalues_on_H",
            "misfit",
            "rightmost_eigenvalue",
            "rightmost_eigenvalues",
            "transfer_product",
        ),
        "spectrum",
    ),
    **dict.fromkeys(
        (
            "sim",
            "Perturbation",
            "SeededRandomZeroSum",
            "SimConfig",
            "SimState",
            "SimTrace",
            "SingleVehicleKick",
            "SinusoidalMode",
            "growth_rate",
            "initial_state",
            "simulate",
            "step",
        ),
        "sim",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
