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
from .model import _speed, model_partials


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
    """Vectorized right-hand side ``rhs(z, k, tmp)`` for a composition.

    ``z`` is the stacked state ``[h, v]`` of shape ``(2, n)``; the rates are
    written into ``k`` of the same shape, and ``tmp`` is an ``(n,)`` scratch.
    """
    models = [comp.model_of(a) for a in comp.ordering]
    # a parameter every vehicle shares enters as a scalar: same bits, cheaper
    columns = zip(*((m.a, m.b, m.pref.v_max, m.pref.l_v, m.pref.d0) for m in models))
    a, b, v_max, l_v, d0 = (
        col[0] if len(set(col)) == 1 else np.array(col) for col in columns
    )

    def rhs(z, k, tmp):
        h, v = z
        hdot, vdot = k
        _headway_rate(v, hdot)
        # a * (V(h) - v) + b * hdot / (h * h), operation by operation
        np.multiply(h, h, out=tmp)
        np.multiply(b, hdot, out=vdot)
        np.divide(vdot, tmp, out=vdot)
        _speed(h, v_max, l_v, d0, out=tmp)
        np.subtract(tmp, v, out=tmp)
        np.multiply(a, tmp, out=tmp)
        np.add(tmp, vdot, out=vdot)

    return rhs


def _headway_rate(v, out):
    """``v[j+1] - v[j]`` around the ring into ``out``."""
    np.subtract(v[1:], v[:-1], out=out[:-1])
    out[-1] = v[0] - v[-1]


def initial_state(
    eq: EquilibriumFlow, comp: Composition, pert: Perturbation
) -> SimState:
    """Equilibrium state plus the requested perturbation.

    Headway perturbations are projected to zero sum (mean subtracted) so the
    state stays on the ring's invariant subspace; a seeded random kind also
    perturbs the velocities and is reproducible from its seed.  Raises
    :class:`CollisionError` at ``t = 0`` if a headway is not positive.
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
        j = int(np.argmin(h))
        raise CollisionError(
            f"amplitude {amp} puts vehicle {j} in collision at t = 0: its headway is {h[j]:.3g} m",
            time=0.0,
            index=j,
        )
    return SimState(t=0.0, headways=h, velocities=v)


# RK4's stability interval on the negative real axis is about [-2.785, 0]
_RK4_REAL_LIMIT = 2.785


def _workspace(n: int):
    """Four stage-rate buffers, one stage state and one scratch row for RK4."""
    return (*np.empty((5, 2, n)), np.empty(n))


def _check_headways(h, t):
    """Raise on a nonpositive (collision) or non-finite (numeric) headway."""
    if h.min() > 0.0:  # False for NaN too, at no extra cost
        return
    j = int(np.argmin(h))
    if not math.isfinite(h[j]):
        raise FloatingPointError(
            f"headway of vehicle {j} became {h[j]} near t={t:.3f} s: "
            "the integration is numerically unstable"
        )
    raise CollisionError(
        f"headway of vehicle {j} reached {h[j]:.3g} m near t={t:.3f} s",
        time=t,
        index=j,
    )


def _rk4_step(rhs, z, t, dt, ws):
    """Advance the stacked state ``z`` in place by one classical RK4 step.

    Every stage input is checked by :func:`_check_headways` first.  The
    arithmetic, and its order, is that of the textbook out-of-place formula,
    so the result is bit-identical to it.
    """
    k1, k2, k3, k4, s, tmp = ws
    _check_headways(z[0], t)
    rhs(z, k1, tmp)
    for k_in, k_out, c in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
        np.multiply(c, k_in, out=s)
        np.add(z, s, out=s)
        _check_headways(s[0], t)
        rhs(s, k_out, tmp)
    # z + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)
    np.multiply(2.0, k2, out=k2)
    np.add(k1, k2, out=k1)
    np.multiply(2.0, k3, out=k3)
    np.add(k1, k3, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6.0, k1, out=k1)
    np.add(z, k1, out=z)


def step(state: SimState, comp: Composition, dt: float) -> SimState:
    """One classical RK4 step of the 2n-dimensional ring dynamics.

    The headway rate seen by each driver law is the velocity difference to
    the leader re-evaluated at every stage.  Raises :class:`CollisionError`
    (with time and vehicle index) if any stage sees a nonpositive headway,
    and ``FloatingPointError`` if it sees a non-finite one.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z = np.array([state.headways, state.velocities], dtype=float)
    _rk4_step(_compile_rhs(comp), z, state.t, dt, _workspace(comp.n))
    return SimState(t=state.t + dt, headways=z[0], velocities=z[1])


def _max_beta(comp: Composition, eq: EquilibriumFlow) -> float:
    """Largest trio damping ``beta = df/dhdot - df/dv`` over the classes at ``eq``."""
    betas = []
    for p in comp.populations:
        if p.count > 0:
            _, fhd, fv = model_partials(p.model, eq.h_bar[p.class_id], 0.0, eq.v_bar)
            betas.append(fhd - fv)
    return max(betas)


def simulate(comp: Composition, eq: EquilibriumFlow, cfg: SimConfig) -> SimTrace:
    """Integrate to ``t_end``, recording speed variance and headway extremes.

    Samples are taken at t=0, then every ``record_every`` steps, and at the
    last of the ``round(t_end / dt)`` steps whether or not it falls on that
    grid.

    A headway that reaches zero raises :class:`CollisionError`, unless
    ``dt * beta_max`` exceeds RK4's real-axis stability limit 2.785 (with
    ``beta_max`` the largest trio damping at the equilibrium): then the
    blow-up is numeric and ``FloatingPointError`` names the safe step size.
    A non-finite headway always raises ``FloatingPointError``.
    """
    rhs = _compile_rhs(comp)
    init = initial_state(eq, comp, cfg.perturbation)
    z = np.array([init.headways, init.velocities])
    ws = _workspace(comp.n)

    n_steps = int(round(cfg.t_end / cfg.dt))
    times, var, h_min, h_max = [], [], [], []
    snaps: list[SimState] | None = [] if cfg.store_snapshots else None

    def record(t):
        h, v = z
        times.append(t)
        var.append(float(np.var(v)))
        h_min.append(float(h.min()))
        h_max.append(float(h.max()))
        if snaps is not None:
            snaps.append(SimState(t=t, headways=h.copy(), velocities=v.copy()))

    record(0.0)
    try:
        for i in range(1, n_steps + 1):
            _rk4_step(rhs, z, (i - 1) * cfg.dt, cfg.dt, ws)
            if i % cfg.record_every == 0 or i == n_steps:
                record(i * cfg.dt)
    except CollisionError as err:
        beta = _max_beta(comp, eq)
        if cfg.dt * beta > _RK4_REAL_LIMIT:
            raise FloatingPointError(
                f"step dt = {cfg.dt} s is numerically unstable, so the state blew up "
                f"({err}): dt * beta_max = {cfg.dt * beta:.3g} exceeds RK4's "
                f"real-axis stability limit {_RK4_REAL_LIMIT}; use "
                f"dt <= {_RK4_REAL_LIMIT}/beta_max = {_RK4_REAL_LIMIT / beta:.3g} s"
            ) from err
        raise

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
