"""Per-vehicle references that the tests check the package against.

The package answers from class counts and the analytic partials; these
evaluate the same quantities another way, vehicle by vehicle, by finite
differences or on a grid, and no library function calls them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from ringwave import (
    BandoFtl,
    Composition,
    LinearTrio,
    RingSystem,
    accel,
    discriminant,
    gamma_squared,
    log_gain,
    preferred_headway,
)
from ringwave.equilibrium import LENGTH_TOL
from ringwave.linearize import _require_equilibrium
from ringwave.stability import _gain_classes, _gain_ratio


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


def vehicle_length(comp: Composition, v: float) -> float:
    """The ring length at speed ``v``, summed vehicle by vehicle in ring order."""
    h = {p.class_id: preferred_headway(p.model, v) for p in comp.classes}
    return math.fsum(map(h.__getitem__, comp.ordering))


def bisection_speed(comp: Composition, length: float) -> float:
    """``equilibrium_from_length``'s bisection on the per-vehicle sum, every midpoint evaluated."""
    lo, hi = 0.0, min(p.model.pref.v_max for p in comp.classes) * (1.0 - 1e-12)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        excess = vehicle_length(comp, mid) - length
        if abs(excess) <= LENGTH_TOL:
            break
        if excess < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def spread_by_max(counts: Sequence[int]) -> list[int]:
    """``_numerics.spread`` as one ``max`` over a key tuple per class and place."""
    total = sum(counts)
    placed = [0] * len(counts)
    out = []
    for j in range(1, total + 1):
        best = max(range(len(counts)), key=lambda i: (counts[i] * j / total - placed[i], counts[i], -i))
        placed[best] += 1
        out.append(best)
    return out


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


# the log grid that the ratio behind tau0 and tau1 was once maximised on, kept as a check
GRID_POINTS = 4096

# Newton steps per grid peak: from the middle of a grid step (under 0.7 % wide)
# three reach the rounding floor of the derivative
_PEAK_STEPS = 5


def _polished_max(fn, ys: np.ndarray) -> tuple[float, float]:
    """``(y, value)`` of the largest ``fn`` on the grid ``ys`` or at a polished grid peak.

    ``fn(y, curvature)`` returns the value, the slope and, if ``curvature``, the curvature,
    for an array or a float ``y``.  Each grid step where the slope turns from positive to
    nonpositive brackets a peak, which gets ``_PEAK_STEPS`` Newton steps on the slope, each
    kept inside its step by falling back to bisection.
    """
    vals, slope = fn(ys, False)
    peaks = []
    for i in np.flatnonzero((slope[:-1] > 0.0) & (slope[1:] <= 0.0)).tolist():
        lo, hi = float(ys[i]), float(ys[i + 1])
        y = 0.5 * (lo + hi)
        for _ in range(_PEAK_STEPS):
            _, d1, d2 = fn(y, True)
            if d1 > 0.0:
                lo = y
            else:
                hi = y
            y = step if d2 < 0.0 and lo <= (step := y - d1 / d2) <= hi else 0.5 * (lo + hi)
        peaks.append(y)
    cand_y = np.concatenate((ys, peaks))
    cand_v = np.concatenate((vals, [fn(y, False)[0] for y in peaks]))
    best = int(np.argmax(cand_v))
    return float(cand_y[best]), float(cand_v[best])


def _log_sizes(t: LinearTrio, y: float) -> float:
    """``|log p| + |log q|`` of one trio at ``y``: the size of the two logs its ``H`` is the difference of."""
    a2 = t.alpha * t.alpha
    return abs(math.log1p(t.gamma**2 * y / a2)) + abs(math.log1p(((t.beta**2 - 2.0 * t.alpha) * y + y * y) / a2))


def grid_ratio(
    stable: LinearTrio, others: Sequence[LinearTrio], weights: Sequence[float]
) -> tuple[float, float]:
    """``(N, tol)``: ``N = sup R / -H1`` as the polished grid takes it, and at least its ``y -> 0`` limit.

    ``R = sum_k weights[k] * H_k(others[k])``.  The grid spans ``[G * 1e-12, G]`` for the
    largest unstable ``G = Gamma^2``.  ``tol`` is ``4 eps`` times the ratio's rounding scale at
    the grid's maximum: ``|log p| + |log q|`` summed over the classes, ``others`` at ``weights``
    and ``stable`` at ``N``, over ``-H1``.  Each ``H = log p - log q`` may cancel, so its
    rounding error is a few ``eps`` of its two logs, not of ``H``.
    """
    top = max(gamma_squared(t) for t, w in zip(others, weights) if w and discriminant(t) < 0.0)
    d1 = discriminant(stable)
    limit0 = math.fsum(
        w * ((-discriminant(t) * stable.alpha**2) / (d1 * t.alpha**2)) for t, w in zip(others, weights)
    )
    ratio = partial(_gain_ratio, _gain_classes(others, weights), _gain_classes([stable], [-1.0]))
    y, value = _polished_max(ratio, np.geomspace(top * 1e-12, top, GRID_POINTS))
    n = max(value, limit0)
    sizes = math.fsum(w * _log_sizes(t, y) for t, w in zip(others, weights)) + abs(n) * _log_sizes(stable, y)
    return n, 4.0 * np.finfo(float).eps * sizes / -log_gain(stable, y)
