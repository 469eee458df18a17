"""Linearization of a driver law around an equilibrium point.

The linear behavior of a law at ``(h_bar, 0, v_bar)`` is captured by the trio

    alpha = df/dh,   beta = df/dhdot - df/dv,   gamma = df/dhdot,

and the sign of the discriminant ``beta^2 - gamma^2 - 2*alpha`` decides
whether a single-class fleet of such drivers is stable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ModelInvalidError, NoEquilibriumError
from .model import BandoFtl, accel, model_partials

# half-width of the numeric band classified as critical
TOL_ZERO = 1e-10

# largest |f(h_bar, 0, v_bar)| accepted as an equilibrium point, in units of max(1, a v_max) m/s^2
_EQ_RESIDUAL = 1e-6


@dataclass(frozen=True)
class LinearTrio:
    """Coefficients of the linearized driver law at equilibrium.

    alpha: headway gain (1/s^2)
    beta:  self-velocity damping (1/s)
    gamma: leader-velocity coupling (1/s)

    Every trio must satisfy ``alpha > 0`` and ``beta > gamma > 0``; anything
    else means the underlying law violates basic driving sense and none of
    the downstream analysis applies.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        ok = (
            math.isfinite(self.alpha)
            and math.isfinite(self.beta)
            and math.isfinite(self.gamma)
            and self.alpha > 0.0
            and self.beta > self.gamma > 0.0
        )
        if not ok:
            raise ModelInvalidError(
                f"trio ({self.alpha}, {self.beta}, {self.gamma}) violates "
                "alpha > 0, beta > gamma > 0"
            )


class StabilityClass(enum.Enum):
    STABLE = "stable"
    CRITICAL = "critical"
    UNSTABLE = "unstable"


def linearize(model: BandoFtl, h_bar: float, v_bar: float) -> LinearTrio:
    """Trio of the law at the equilibrium point ``(h_bar, 0, v_bar)``.

    From the law's partials at ``hdot = 0``.  Raises :class:`NoEquilibriumError`
    if the point is not an equilibrium and :class:`ModelInvalidError` if the trio is
    outside the admissible set.
    """
    _require_equilibrium(model, h_bar, v_bar)
    fh, fhd, fv = model_partials(model, h_bar, 0.0, v_bar)
    return LinearTrio(alpha=fh, beta=fhd - fv, gamma=fhd)


def linearize_fd(
    model: BandoFtl, h_bar: float, v_bar: float, eps: float
) -> LinearTrio:
    """Trio by central finite differences of the law with step ``eps``.

    Independent of the analytic path in :func:`linearize`; used to
    cross-check it.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    _require_equilibrium(model, h_bar, v_bar)
    fh = (accel(model, h_bar + eps, 0.0, v_bar) - accel(model, h_bar - eps, 0.0, v_bar)) / (2 * eps)
    fhd = (accel(model, h_bar, eps, v_bar) - accel(model, h_bar, -eps, v_bar)) / (2 * eps)
    fv = (accel(model, h_bar, 0.0, v_bar + eps) - accel(model, h_bar, 0.0, v_bar - eps)) / (2 * eps)
    return LinearTrio(alpha=fh, beta=fhd - fv, gamma=fhd)


def discriminant(trio: LinearTrio) -> float:
    """``beta^2 - gamma^2 - 2*alpha`` (1/s^2); its sign classifies the trio."""
    return trio.beta * trio.beta - trio.gamma * trio.gamma - 2.0 * trio.alpha


def classify(trio: LinearTrio) -> StabilityClass:
    """Stable, critical, or unstable by the sign of the discriminant."""
    d = discriminant(trio)
    if d > TOL_ZERO:
        return StabilityClass.STABLE
    if d < -TOL_ZERO:
        return StabilityClass.UNSTABLE
    return StabilityClass.CRITICAL


def _require_equilibrium(model: BandoFtl, h_bar: float, v_bar: float) -> None:
    # V(h) and v each round off by about eps v_max, which the gain a scales up
    residual = accel(model, h_bar, 0.0, v_bar)
    if abs(residual) > _EQ_RESIDUAL * max(1.0, model.a * model.pref.v_max):
        raise NoEquilibriumError(
            f"({h_bar}, 0, {v_bar}) is not an equilibrium: residual {residual}"
        )
