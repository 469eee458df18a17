"""Nonlinear ring-road integration and wave measurement.

The state is advanced in headway-velocity coordinates with classical
fixed-step RK4; the ring constraint (headways summing to the road length) is
linear in this chart and therefore preserved to roundoff.  Traces record the
population variance of the speeds, whose growth or decay is the observable
signature of stop-and-go wave formation.

``step`` and ``simulate`` share one kernel, :class:`_Rk4`, which works in
place on buffers made once per run.  It checks the headways once per step,
over all four stage inputs together, after the last stage.  Each stage input
is computed from the stages before it alone, so on a failed check the stage
inputs are checked again in order and the first bad one raises: the same
error, vehicle, value and time as a check before every stage.
"""

from __future__ import annotations

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
        if not 0.0 < self.dt <= self.t_end < math.inf:
            raise ValueError(f"require finite dt > 0 and t_end >= dt, got dt {self.dt} and t_end {self.t_end}")
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
    h = np.array([eq.h_bar[p.class_id] for p in comp.classes], dtype=float)[comp.index]
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


class _Rk4:
    """Classical RK4 steps of one composition at one step size, in place.

    The four stage inputs are the rows of one ``(4, 2, n)`` array ``X`` and
    their rates the rows of another, ``K``; ``X[0]`` is the live state
    ``[h, v]``, and every view a step uses is made here, once.  The
    arithmetic, and its order, is that of the textbook out-of-place formula,
    so the result is bit-identical to it.
    """

    def __init__(self, comp: Composition, dt: float):
        n, index = comp.n, comp.index
        self.X = X = np.empty((4, 2, n))
        self.K = K = np.empty((4, 2, n))
        tmp = np.empty(n)

        def column(values):
            # a parameter every vehicle shares enters as a scalar: same bits, cheaper
            if len(set(values)) == 1:
                return np.array(values[0], dtype=float)
            return np.array(values, dtype=float)[index]

        models = [p.model for p in comp.classes]
        params = [
            column(col)
            for col in zip(*((m.a, m.b, m.pref.v_max, m.pref.l_v, m.pref.d0) for m in models))
        ]
        # scalar operands are 0-d float64 arrays: a Python float is converted
        # on every ufunc call, about 0.35 us of a call at n = 100
        half_dt, full_dt, self._sixth_dt, self._two = (
            np.array(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0)
        )
        self._operands = [
            (h, v, v[1:], v[:-1], v[:1], v[-1:], hdot, vdot, hdot[:-1], hdot[-1:], tmp, *params)
            for (h, v), (hdot, vdot) in zip(X, K)
        ]
        self._inputs = ((X[1], K[0], half_dt), (X[2], K[1], half_dt), (X[3], K[2], full_dt))
        self._z, self._heads = X[0], X[:, 0]
        self._k, self._k23 = tuple(K), K[1:3]

    def rates(self, s: int) -> None:
        """Rates of the stage input ``X[s]`` into ``K[s]``."""
        (h, v, v_lead, v_own, v_first, v_last, hdot, vdot, hdot_body, hdot_wrap,
         tmp, a, b, v_max, l_v, d0) = self._operands[s]
        # hdot = v[j+1] - v[j] around the ring
        np.subtract(v_lead, v_own, out=hdot_body)
        np.subtract(v_first, v_last, out=hdot_wrap)
        # a * (V(h) - v) + b * hdot / (h * h), operation by operation
        np.multiply(h, h, out=tmp)
        np.multiply(b, hdot, out=vdot)
        np.divide(vdot, tmp, out=vdot)
        _speed(h, v_max, l_v, d0, out=tmp)
        np.subtract(tmp, v, out=tmp)
        np.multiply(a, tmp, out=tmp)
        np.add(tmp, vdot, out=vdot)

    def advance(self, t: float) -> None:
        """Move ``X[0]`` from ``t`` to ``t + dt``.

        The headways of all four stage inputs are checked once, after the
        last stage and before ``X[0]`` is updated.  A stage input depends only
        on the stages before it, so when that check fails,
        :func:`_check_headways` on the stage inputs in order raises what a
        check before every stage would.  Run it under ``_QUIET``: the rates
        of a bad stage input are computed, never used, and must not warn.
        """
        rates, z = self.rates, self._z
        rates(0)
        for s, (x, k_in, c) in enumerate(self._inputs, 1):
            np.multiply(c, k_in, out=x)
            np.add(z, x, out=x)
            rates(s)
        heads = self._heads
        if not np.minimum.reduce(heads, axis=None) > 0.0:  # False for NaN too
            for h in heads:
                _check_headways(h, t)
        # z + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)
        k1, k2, k3, k4 = self._k
        np.multiply(self._two, self._k23, out=self._k23)
        np.add(k1, k2, out=k1)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(self._sixth_dt, k1, out=k1)
        np.add(z, k1, out=z)


# the error state ``_Rk4.advance`` and every ``simulate`` sample run under
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


def step(state: SimState, comp: Composition, dt: float) -> SimState:
    """One classical RK4 step of the 2n-dimensional ring dynamics.

    The headway rate seen by each driver law is the velocity difference to
    the leader re-evaluated at every stage.  Raises :class:`CollisionError`
    (with time and vehicle index) if any stage sees a nonpositive headway,
    and ``FloatingPointError`` if it sees a non-finite one.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rk4 = _Rk4(comp, dt)
    rk4.X[0] = (state.headways, state.velocities)
    with np.errstate(**_QUIET):
        rk4.advance(state.t)
    h, v = rk4.X[0].copy()
    return SimState(t=state.t + dt, headways=h, velocities=v)


def _max_beta(comp: Composition, eq: EquilibriumFlow) -> float:
    """Largest trio damping ``beta = df/dhdot - df/dv`` over the classes at ``eq``."""
    betas = []
    for p in comp.classes:
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
    init = initial_state(eq, comp, cfg.perturbation)
    dt, every = cfg.dt, cfg.record_every
    rk4 = _Rk4(comp, dt)
    rk4.X[0] = (init.headways, init.velocities)
    z, advance = rk4.X[0], rk4.advance

    n_steps = int(round(cfg.t_end / dt))
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

    try:
        with np.errstate(**_QUIET):
            record(0.0)
            for i in range(1, n_steps + 1):
                advance((i - 1) * dt)
                if i % every == 0 or i == n_steps:
                    record(i * dt)
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
