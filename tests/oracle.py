"""Per-vehicle references that the tests check the package against.

The package answers from class counts and the analytic partials; these
evaluate the same quantities another way, vehicle by vehicle or by finite
differences, and no library function calls them.
"""

from __future__ import annotations

import math

from ringwave import BandoFtl, LinearTrio, RingSystem, accel
from ringwave.linearize import _require_equilibrium


def linearize_fd(
    model: BandoFtl, h_bar: float, v_bar: float, eps: float
) -> LinearTrio:
    """Trio by central finite differences of the law with step ``eps``.

    Independent of the analytic path in :func:`ringwave.linearize`; used to
    cross-check it.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    _require_equilibrium(model, h_bar, v_bar)
    fh = (accel(model, h_bar + eps, 0.0, v_bar) - accel(model, h_bar - eps, 0.0, v_bar)) / (2 * eps)
    fhd = (accel(model, h_bar, eps, v_bar) - accel(model, h_bar, -eps, v_bar)) / (2 * eps)
    fv = (accel(model, h_bar, 0.0, v_bar + eps) - accel(model, h_bar, 0.0, v_bar - eps)) / (2 * eps)
    return LinearTrio(alpha=fh, beta=fhd - fv, gamma=fhd)


def _renorm(p: complex, e: int) -> tuple[complex, int]:
    m = abs(p)
    if m > 2.0**512:
        return p * 2.0**-512, e + 512
    if 0.0 < m < 2.0**-512:
        return p * 2.0**512, e - 512
    return p, e


def _ldexp_sat(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def char_poly_eval(sys: RingSystem, lam: complex) -> complex:
    """Characteristic polynomial of the ring matrix in product form.

    Evaluates ``prod(lam^2 + beta_j lam + alpha_j) - prod(gamma_j lam + alpha_j)``
    with power-of-two rescaling so intermediate products cannot overflow.
    The value vanishes at every eigenvalue, including the structural zero.
    """
    lam = complex(lam)
    p_quad, e_quad = 1.0 + 0.0j, 0
    p_lin, e_lin = 1.0 + 0.0j, 0
    for t in sys.trios:
        p_quad *= lam * lam + t.beta * lam + t.alpha
        p_lin *= t.gamma * lam + t.alpha
        p_quad, e_quad = _renorm(p_quad, e_quad)
        p_lin, e_lin = _renorm(p_lin, e_lin)
    e = max(e_quad, e_lin)
    diff = p_quad * 2.0 ** (e_quad - e) - p_lin * 2.0 ** (e_lin - e)
    return complex(_ldexp_sat(diff.real, e), _ldexp_sat(diff.imag, e))
