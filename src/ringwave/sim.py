"""Nonlinear ring-road integration and wave measurement.

The state is advanced in headway-velocity coordinates with classical
fixed-step RK4; the ring constraint (headways summing to the road length) is
linear in this chart and therefore preserved to roundoff.  Traces record the
population variance of the speeds, whose growth or decay is the observable
signature of stop-and-go wave formation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import Composition, EquilibriumFlow
from .errors import CollisionError, InsufficientDataError
from .model import BandoFtl, _speed, accel


@dataclass(frozen=True)
class SingleVehicleKick:
    """Velocity offset applied to vehicle 0 only."""


@dataclass(frozen=True)
class SinusoidalMode:
    """Velocity perturbation along one spatial Fourier mode of the ring."""

    mode: int = 1


@dataclass(frozen=True)
class SeededRandomZeroSum:
    """Reproducible random perturbation of headways (zero-sum) and velocities."""

    seed: int = 0


@dataclass(frozen=True)
class Perturbation:
    amplitude: float
    kind: SingleVehicleKick | SinusoidalMode | SeededRandomZeroSum

    def __post_init__(self):
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    perturbation: Perturbation
    dt: float = 0.05
    record_every: int = 1
    store_snapshots: bool = False

    def __post_init__(self):
        if not (self.dt > 0.0 and self.t_end >= self.dt):
            raise ValueError("require dt > 0 and t_end >= dt")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True, eq=False)
class SimState:
    t: float
    headways: np.ndarray
    velocities: np.ndarray


@dataclass(frozen=True, eq=False)
class SimTrace:
    times: np.ndarray
    speed_variance: np.ndarray
    min_headway: np.ndarray
    max_headway: np.ndarray
    snapshots: tuple[SimState, ...] | None = None


@functools.lru_cache(maxsize=32)
def _compile_rhs(comp: Composition):
    """Right-hand side closure for a composition, vectorized when possible."""
    models = [comp.model_of(a) for a in comp.ordering]
    if all(isinstance(m, BandoFtl) for m in models):
        # a parameter every vehicle shares enters as a scalar: same bits, cheaper
        columns = zip(*((m.a, m.b, m.pref.v_max, m.pref.l_v, m.pref.d0) for m in models))
        a, b, v_max, l_v, d0 = (
            col[0] if len(set(col)) == 1 else np.array(col) for col in columns
        )

        def rhs(h, v):
            hdot = np.roll(v, -1) - v
            vdot = a * (_speed(h, v_max, l_v, d0) - v) + b * hdot / (h * h)
            return hdot, vdot

        return rhs

    def rhs(h, v):
        hdot = np.roll(v, -1) - v
        vdot = np.array(
            [accel(m, h[j], hdot[j], v[j]) for j, m in enumerate(models)]
        )
        return hdot, vdot

    return rhs


def initial_state(
    eq: EquilibriumFlow, comp: Composition, pert: Perturbation
) -> SimState:
    """Equilibrium state plus the requested perturbation.

    Headway perturbations are projected to zero sum (mean subtracted) so the
    state stays on the ring's invariant subspace; a seeded random kind also
    perturbs the velocities and is reproducible from its seed.
    """
    n = comp.n
    h = np.array([eq.h_bar[a] for a in comp.ordering], dtype=float)
    v = np.full(n, eq.v_bar, dtype=float)
    amp = pert.amplitude
    kind = pert.kind
    if isinstance(kind, SingleVehicleKick):
        v[0] += amp
    elif isinstance(kind, SinusoidalMode):
        v += amp * np.sin(2.0 * np.pi * kind.mode * np.arange(n) / n)
    elif isinstance(kind, SeededRandomZeroSum):
        rng = np.random.default_rng(kind.seed)
        dh = amp * rng.uniform(-1.0, 1.0, n)
        dh -= dh.mean()
        h += dh
        v += amp * rng.uniform(-1.0, 1.0, n)
    else:
        raise TypeError(f"unknown perturbation kind {kind!r}")
    if np.any(h <= 0.0):
        raise ValueError(
            f"amplitude {amp} drives headway {h.min()} nonpositive"
        )
    return SimState(t=0.0, headways=h, velocities=v)


def _checked_rhs(rhs, h, v, t):
    if np.any(h <= 0.0):
        j = int(np.argmin(h))
        raise CollisionError(
            f"headway of vehicle {j} reached {h[j]:.3g} m near t={t:.3f} s",
            time=t,
            index=j,
        )
    return rhs(h, v)


def _rk4_step(rhs, h, v, t, dt):
    k1h, k1v = _checked_rhs(rhs, h, v, t)
    k2h, k2v = _checked_rhs(rhs, h + 0.5 * dt * k1h, v + 0.5 * dt * k1v, t)
    k3h, k3v = _checked_rhs(rhs, h + 0.5 * dt * k2h, v + 0.5 * dt * k2v, t)
    k4h, k4v = _checked_rhs(rhs, h + dt * k3h, v + dt * k3v, t)
    h_new = h + (dt / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return h_new, v_new


def step(state: SimState, comp: Composition, dt: float) -> SimState:
    """One classical RK4 step of the 2n-dimensional ring dynamics.

    The headway rate seen by each driver law is the velocity difference to
    the leader re-evaluated at every stage.  Raises :class:`CollisionError`
    (with time and vehicle index) if any stage sees a nonpositive headway.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rhs = _compile_rhs(comp)
    h, v = _rk4_step(rhs, state.headways, state.velocities, state.t, dt)
    return SimState(t=state.t + dt, headways=h, velocities=v)


def simulate(comp: Composition, eq: EquilibriumFlow, cfg: SimConfig) -> SimTrace:
    """Integrate to ``t_end``, recording speed variance and headway extremes.

    Samples are taken at t=0 and then every ``record_every`` steps.  The
    number of steps is ``round(t_end / dt)``, so the final state is recorded
    whenever that count is a multiple of ``record_every``.
    """
    rhs = _compile_rhs(comp)
    init = initial_state(eq, comp, cfg.perturbation)
    state_h, state_v = init.headways.copy(), init.velocities.copy()

    n_steps = int(round(cfg.t_end / cfg.dt))
    times, var, h_min, h_max = [], [], [], []
    snaps: list[SimState] | None = [] if cfg.store_snapshots else None

    def record(t, h, v):
        times.append(t)
        var.append(float(np.var(v)))
        h_min.append(float(h.min()))
        h_max.append(float(h.max()))
        if snaps is not None:
            snaps.append(SimState(t=t, headways=h.copy(), velocities=v.copy()))

    record(0.0, state_h, state_v)
    for i in range(1, n_steps + 1):
        t = (i - 1) * cfg.dt
        state_h, state_v = _rk4_step(rhs, state_h, state_v, t, cfg.dt)
        if i % cfg.record_every == 0:
            record(i * cfg.dt, state_h, state_v)

    return SimTrace(
        times=np.array(times),
        speed_variance=np.array(var),
        min_headway=np.array(h_min),
        max_headway=np.array(h_max),
        snapshots=tuple(snaps) if snaps is not None else None,
    )


def growth_rate(trace: SimTrace, window: tuple[float, float]) -> float:
    """Least-squares slope of ``log(speed variance)`` over a time window (1/s).

    Half of this slope estimates the dominant modal growth rate.  Requires at
    least four samples in the window and strictly positive variance there.
    """
    t_a, t_b = window
    mask = (trace.times >= t_a) & (trace.times <= t_b)
    t = trace.times[mask]
    var = trace.speed_variance[mask]
    if len(t) < 4:
        raise InsufficientDataError(
            f"window [{t_a}, {t_b}] contains {len(t)} samples; need >= 4"
        )
    if np.any(var <= 0.0):
        raise ValueError("speed variance must be positive throughout the window")
    log_v = np.log(var)
    tc = t - t.mean()
    return float(np.dot(tc, log_v - log_v.mean()) / np.dot(tc, tc))
