"""Car-following laws: evaluation, derivatives, and velocity-preferred headways.

A driver law is an acceleration function ``f(h, hdot, v)`` of the headway to
the leader, its rate of change, and the vehicle's own speed.  The concrete
law shipped here combines a relaxation toward a preferred speed ``V(h)`` with
a follow-the-leader coupling ``b * hdot / h**2``.  It is the package's one
driver law; another law enters the stability analyses through its linearized
trio (:class:`~ringwave.linearize.LinearTrio`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, NoEquilibriumError

_TANH2 = math.tanh(2.0)
# _speed's constants as 0-d float64 arrays: a Python float operand is converted
# on every ufunc call, which on a row of 100 costs most of what the call does
_TWO, _TANH2_0D, _ONE_PLUS_TANH2, _ZERO = (np.array(x) for x in (2.0, _TANH2, 1.0 + _TANH2, 0.0))


def _sech(x):
    # 1/cosh without overflow for large |x|
    a = np.exp(-np.abs(x))
    return 2.0 * a / (1.0 + a * a)


@dataclass(frozen=True)
class VelocityPreference:
    """Monotone preferred-speed curve, zero at the vehicle length.

    The curve is ``v_max * (tanh((h - l_v)/d0 - 2) + tanh 2) / (1 + tanh 2)``,
    clamped to 0 below ``l_v`` where the raw expression would go negative.

    v_max: asymptotic speed for large headway (m/s), a strict supremum
    l_v:   vehicle length (m); the preferred speed vanishes at this headway
    d0:    transition length scale of the ramp (m)
    """

    v_max: float
    l_v: float
    d0: float

    def __post_init__(self):
        if not (0.0 < self.v_max < math.inf and self.d0 > 0.0 and self.l_v >= 0.0):
            raise ValueError(
                f"require finite v_max > 0, d0 > 0, l_v >= 0; got {self.v_max}, {self.d0}, {self.l_v}"
            )


def _speed(h, v_max, l_v, d0, out=None):
    """Array-capable preferred speed with the below-length clamp.

    The parameters may be scalars or per-vehicle arrays.  With ``out`` (a
    float array shaped like ``h``) every operation runs in place there.
    """
    # v_max * (tanh((h - l_v)/d0 - 2) + tanh 2) / (1 + tanh 2), one ufunc per operation
    x = np.subtract(h, l_v, out=out)
    x = np.divide(x, d0, out=out)
    x = np.subtract(x, _TWO, out=out)
    x = np.tanh(x, out=out)
    x = np.add(x, _TANH2_0D, out=out)
    x = np.multiply(v_max, x, out=out)
    x = np.divide(x, _ONE_PLUS_TANH2, out=out)
    return np.maximum(x, _ZERO, out=out)


def _speed_slope(pref: VelocityPreference, h):
    h = np.asarray(h, dtype=float)
    x = (h - pref.l_v) / pref.d0 - 2.0
    s = pref.v_max * _sech(x) ** 2 / (pref.d0 * (1.0 + _TANH2))
    return np.where(h < pref.l_v, 0.0, s)


def eval_preference(pref: VelocityPreference, h: float) -> float:
    """Preferred speed at headway ``h`` (m/s)."""
    if not math.isfinite(h):
        raise ValueError(f"headway must be finite, got {h!r}")
    return float(_speed(h, pref.v_max, pref.l_v, pref.d0))


def eval_preference_slope(pref: VelocityPreference, h: float) -> float:
    """Exact derivative of the clamped preferred-speed curve (1/s)."""
    if not math.isfinite(h):
        raise ValueError(f"headway must be finite, got {h!r}")
    return float(_speed_slope(pref, h))


def preference_with_slope(
    slope: float, h_ref: float, l_v: float, d0: float
) -> VelocityPreference:
    """Preference whose ramp slope at ``h_ref`` equals ``slope``.

    Solves for ``v_max`` given the two shape parameters; the slope scales
    linearly with ``v_max`` so the solution is closed-form.
    """
    if slope <= 0.0:
        raise ValueError("slope must be positive")
    if h_ref <= l_v:
        raise ValueError("h_ref must exceed the vehicle length")
    x = (h_ref - l_v) / d0 - 2.0
    # the ramp's slope decays like exp(-2x): far enough up it, no finite v_max attains ``slope``
    sech_sq = float(_sech(x) ** 2)
    v_max = slope * d0 * (1.0 + _TANH2) / sech_sq if sech_sq > 0.0 else math.inf
    if v_max == math.inf:
        raise ValueError(
            f"no finite v_max has slope {slope} at h_ref = {h_ref}: "
            f"h_ref is too far above l_v = {l_v} for d0 = {d0}"
        )
    return VelocityPreference(v_max=v_max, l_v=l_v, d0=d0)


@dataclass(frozen=True)
class BandoFtl:
    """Relaxation toward the preferred speed plus follow-the-leader coupling.

    Acceleration is ``a * (V(h) - v) + b * hdot / h**2``.

    a: relaxation gain (1/s)
    b: follow-the-leader gain (m^2/s)
    """

    a: float
    b: float
    pref: VelocityPreference

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"require finite a > 0 and b > 0; got a={self.a}, b={self.b}")


def accel(model: BandoFtl, h: float, hdot: float, v: float) -> float:
    """Acceleration of the driver law at ``(h, hdot, v)`` (m/s^2)."""
    if not (math.isfinite(h) and math.isfinite(hdot) and math.isfinite(v)):
        raise ValueError(f"arguments must be finite, got ({h!r}, {hdot!r}, {v!r})")
    if h <= 0.0:
        raise CollisionError(f"headway {h} <= 0: the law is undefined at contact")
    return model.a * (eval_preference(model.pref, h) - v) + model.b * hdot / (h * h)


def model_partials(
    model: BandoFtl, h: float, hdot: float, v: float
) -> tuple[float, float, float]:
    """Analytic ``(df/dh, df/dhdot, df/dv)`` at a point."""
    fh = model.a * eval_preference_slope(model.pref, h) - 2.0 * model.b * hdot / h**3
    return fh, model.b / (h * h), -model.a


def preferred_headway(model: BandoFtl, v: float) -> float:
    """The unique headway at which the law exerts zero acceleration at speed ``v``.

    This is the closed-form inverse of the preferred-speed curve,
    ``l_v + d0 * (2 + atanh(v (1 + tanh 2) / v_max - tanh 2))``.  Raises
    :class:`NoEquilibriumError` when ``v`` is outside ``[0, v_max)``.
    """
    if not math.isfinite(v):
        raise ValueError(f"speed must be finite, got {v!r}")
    if v < 0.0:
        raise NoEquilibriumError(f"no equilibrium at negative speed {v}")
    pref = model.pref
    if v >= pref.v_max:
        raise NoEquilibriumError(f"speed {v} is not below the supremum {pref.v_max}")
    if v == 0.0:
        return pref.l_v
    t = v * (1.0 + _TANH2) / pref.v_max - _TANH2
    if t >= 1.0:  # v rounds onto the supremum, where the curve has no inverse
        raise NoEquilibriumError(
            f"speed {v} is indistinguishable from the supremum {pref.v_max}"
        )
    return pref.l_v + pref.d0 * (2.0 + math.atanh(t))
