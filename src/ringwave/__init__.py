"""Multi-population car-following traffic on a ring road.

Equilibrium flows, linearized spectra, analytic stability margins with the
critical penetration rate of stable drivers, and nonlinear stop-and-go
simulation.
"""

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
    linearize_fd,
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
from .sim import (
    Perturbation,
    SeededRandomZeroSum,
    SimConfig,
    SimState,
    SimTrace,
    SingleVehicleKick,
    SinusoidalMode,
    growth_rate,
    initial_state,
    simulate,
    step,
)
from .spectrum import (
    Fleet,
    RingSystem,
    SpectrumReport,
    assemble,
    char_poly_eval,
    count_right_of,
    eigenvalues,
    eigenvalues_on_H,
    misfit,
    rightmost_eigenvalue,
    rightmost_eigenvalues,
    transfer_product,
)
from .stability import (
    MarginReport,
    MarginVerdict,
    TwoPhaseReport,
    critical_penetration,
    gamma_squared,
    log_gain,
    margin_curve,
    min_unstable_size,
    multi_phase_margin,
    multi_phase_tau1,
    tau0_bounds,
)

__version__ = "0.1.0"
