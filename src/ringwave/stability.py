"""Analytic stability criteria for mixed fleets on a ring road.

The frequency-response magnitude of one vehicle class along the imaginary
axis, written in the squared variable ``y = x^2``, is

    h(y) = (alpha^2 + gamma^2 y) / (alpha^2 + (beta^2 - 2 alpha) y + y^2),

and its logarithm ``H(y)`` adds across vehicles.  A composition is stable for
its exact counts (any ordering) when the count-weighted sum of the ``H_k``
stays negative for all ``y > 0``, and unstable once the counts are replicated
enough times when the sum is positive somewhere.  For one stable and one
unstable class this yields a closed-form critical penetration rate: the
minimal fraction of stable vehicles above which the fleet is stable at any
size.

The margin's maximum comes from its critical points: ``S'`` times the
positive ``prod_k p_k q_k`` is a polynomial of degree ``3K - 1`` in ``y`` for
``K`` classes, and each of its positive real roots gets two Newton steps on
``S'`` in plain floats.  The ratio behind ``tau0`` and ``tau1`` is not
polynomial, so it is found through the margin by Dinkelbach's iteration: the
margin at the share ``rho / (rho + 1)`` is ``<= 0`` everywhere exactly when
the ratio is at most ``rho``.  The first ``rho`` is the ratio's closed-form
``y -> 0`` limit, which that first margin certifies as the maximum for most
mixes; otherwise the ratio at the margin's argmax, raised by a few Newton
steps in plain floats, is the next ``rho``.  No maximum is taken on a grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import ABSCISSA_TOL, check_rates, checked_counts, whole_number
from .errors import ModelInvalidError
from .linearize import LinearTrio, discriminant

# Newton steps on the ratio's slope from the margin's argmax at each share; a
# step is kept only while the ratio does not fall
_NEWTON_STEPS = 5

# Newton steps per root of the margin's slope polynomial: np.roots gives them to
# about 1e-13 relative or better, and S is flat to second order at a critical point
_ROOT_STEPS = 2

# a root of the slope polynomial whose imaginary part is within this share of its
# size is taken as real: two real roots closer than about sqrt(eps) may come back
# as a complex pair
_REAL_ROOT_TOL = 1e-6

# |sup margin| below this is reported as sitting on the critical boundary
MARGIN_TOL = 1e-12

_POLE = "a trio leaves the admissible set: its gain has a pole on the axis"


@dataclass(frozen=True)
class TwoPhaseReport:
    """Critical penetration rate of the stable class, with closed-form bounds."""

    delta1: float
    delta2: float
    gamma_sq: float
    n0: float
    tau0: float
    bound_lower: float
    bound_upper: float


class MarginVerdict(enum.Enum):
    STABLE_ALL_N = "stable_all_n"
    UNSTABLE_FOR_LARGE_N = "unstable_for_large_n"
    CRITICAL_BOUNDARY = "critical_boundary"


@dataclass(frozen=True)
class MarginReport:
    """Sign and location of the worst-case count-weighted log gain.

    sup_margin < 0: the composition is exponentially stable for these exact
    counts and every ordering.  sup_margin > 0: replicating the counts enough
    times produces an unstable fleet.
    """

    sup_margin: float
    argmax_y: float
    verdict: MarginVerdict


def log_gain(trio: LinearTrio, y):
    """Log of the squared per-vehicle gain at ``y = x^2`` (dimensionless).

    Zero at ``y = 0`` exactly; negative for all ``y > 0`` iff the trio's
    discriminant is nonnegative.  Accepts scalars or arrays.
    """
    arr = np.asarray(y, dtype=float)
    # ndarray methods, not np.all/np.any: the wrappers cost more than the math
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError("y must be finite and nonnegative")
    out = _weighted_gain(_gain_classes([trio], [1.0]), arr, curvature=False)[0]
    return float(out) if arr.ndim == 0 else out


def _gain_classes(trios: Sequence[LinearTrio], weights: Sequence[float]) -> list[tuple[float, ...]]:
    """Per class of nonzero weight: ``alpha^2``, ``gamma^2``, ``beta^2 - 2 alpha`` and the weight.

    ``ModelInvalidError`` when a class's ``q = alpha^2 + (beta^2 - 2 alpha) y + y^2`` has a
    positive real root: in exact arithmetic only at ``beta = 0``, which no trio has, but in
    floats once ``beta^2 - 2 alpha`` rounds to ``-2 alpha``.  Its gain then has a pole on the
    axis wherever that root lies.
    """
    classes = []
    for t, w in zip(trios, weights):
        if w == 0.0:
            continue
        a2, c = float(t.alpha * t.alpha), float(t.beta * t.beta - 2.0 * t.alpha)
        if c < 0.0 and c * c >= 4.0 * a2:
            raise ModelInvalidError(_POLE)
        classes.append((a2, float(t.gamma * t.gamma), c, float(w)))
    return classes


def _class_gain(a2, g2, c, y, curvature: bool):
    """``H = log p - log q`` of one class, its slope and, if ``curvature``, its curvature in ``y``.

    ``p = 1 + gamma^2 y / alpha^2`` and ``q = 1 + ((beta^2 - 2 alpha) y + y^2) / alpha^2``.  The
    numerator of ``H'``, ``-discriminant - y (2 + gamma^2 y / alpha^2)``, is free of cancellation.
    ``y`` is an array or one point (a float), and the same lines serve both, so the arrays of
    :func:`log_gain` and :func:`margin_curve` have the bits the margin's floats give at their points.
    The logs are ``np.log1p`` for floats too: ``math.log1p`` differs from NumPy's vectorised
    ``log1p`` in the last bit on about 1 % of inputs.
    """
    num = g2 * y / a2
    den = (c * y + y * y) / a2
    # np.count_nonzero takes a float's bool as cheaply as an array; .any() would need an array
    if np.count_nonzero(den <= -1.0):
        raise ModelInvalidError(_POLE)
    p, q = 1.0 + num, 1.0 + den
    h = np.log1p(num) - np.log1p(den)
    apq = a2 * p * q
    dh = ((g2 - c) - y * (2.0 + num)) / apq
    if not curvature:
        return h, dh
    return h, dh, -(2.0 * p + dh * (g2 * q + p * (c + 2.0 * y))) / apq


def _weighted_gain(classes: Sequence[tuple[float, ...]], y, curvature: bool = True):
    """``S = sum_k w_k H_k(y)``, its exact slope and, if ``curvature``, its curvature in ``y``.

    ``classes`` is a nonempty :func:`_gain_classes`; ``y`` is an array or a float.  The classes
    are added one after the other in their order, which is how NumPy sums a ``(classes x y)``
    array down its first axis, and a loop over the classes costs less than broadcasting them.
    """
    sums = None
    for a2, g2, c, w in classes:
        terms = [w * t for t in _class_gain(a2, g2, c, y, curvature)]
        sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
    return sums


def gamma_squared(trio2: LinearTrio) -> float:
    """Location of the maximum of :func:`log_gain` for an unstable trio.

    The positive root of the gain's derivative numerator; always lies in
    ``(0, -discriminant)``.  Evaluated in a conjugate form that is exact and
    remains stable as gamma -> 0, where the value tends to -discriminant/2.
    """
    d = discriminant(trio2)
    if d >= 0.0:
        raise ValueError(f"trio must be unstable (discriminant < 0), got {d}")
    a2 = trio2.alpha * trio2.alpha
    g2 = trio2.gamma * trio2.gamma
    return -a2 * d / (a2 + math.sqrt(a2 * a2 - a2 * g2 * d))


def _gain_ratio(
    num: Sequence[tuple[float, ...]], den: Sequence[tuple[float, ...]], y, curvature: bool = True
):
    """``f = R / S`` of two weighted gains, its exact slope and, if ``curvature``, its curvature in ``y``."""
    r, s = _weighted_gain(num, y, curvature), _weighted_gain(den, y, curvature)
    f = r[0] / s[0]
    f1 = (r[1] - f * s[1]) / s[0]
    if not curvature:
        return f, f1
    return f, f1, (r[2] - f * s[2] - 2.0 * f1 * s[1]) / s[0]


def _critical_ratio(
    stable: LinearTrio, others: Sequence[LinearTrio], weights: Sequence[float]
) -> float:
    """``N = sup_y R(y) / -H1(y)`` with ``R = sum_k weights[k] * H_k(others[k])``.

    ``H1 < 0`` for all ``y > 0``, so ``frac * H1 + (1 - frac) * R < 0`` everywhere
    exactly when ``frac / (1 - frac) > N``.  Dinkelbach's iteration finds ``N``
    from the margin: start at ``rho = max(limit0, 0)``, with ``limit0`` the
    ratio's analytic ``y -> 0`` limit, and take the margin's sup (see
    :func:`_margin_sup`) at the share ``f = rho / (rho + 1)`` over ``y0 = max
    Gamma^2 * 1e-12`` and the critical points past it; below ``y0`` the margin is
    rounding noise.  A sup ``<= 0`` means ``R + rho H1 <= 0`` on ``[y0, inf)``,
    so ``N <= rho``, and ``rho``, a value the ratio takes or tends to, is ``N``.
    Otherwise the ratio at the sup's ``y``, raised by up to ``_NEWTON_STEPS``
    Newton steps on its slope, becomes the next ``rho``; if rounding leaves it
    no larger than ``rho``, ``rho`` is ``N``.  The first pass certifies
    ``limit0`` for most mixes.  ``-inf`` when no remainder class is unstable.
    When the margin at ``rho = 0`` is already ``<= 0``, ``N <= 0`` and
    ``limit0``, a lower bound, is returned.
    """
    unstable = [gamma_squared(t) for t, w in zip(others, weights) if w and discriminant(t) < 0.0]
    if not unstable:
        return -math.inf
    y0 = max(unstable) * 1e-12
    d1, a1sq = discriminant(stable), stable.alpha**2
    limit0 = math.fsum(
        w * ((-discriminant(t) * a1sq) / (d1 * t.alpha**2)) for t, w in zip(others, weights)
    )
    num, den, rho = _gain_classes(others, weights), _gain_classes([stable], [-1.0]), max(limit0, 0.0)
    while True:
        f = rho / (rho + 1.0)
        y, sup = _margin_sup(_gain_classes([stable, *others], [f] + [(1.0 - f) * w for w in weights]), y0)
        if sup <= 0.0:
            return rho if rho > 0.0 else limit0
        value = float(_gain_ratio(num, den, y, False)[0])
        for _ in range(_NEWTON_STEPS):
            _, slope, curv = _gain_ratio(num, den, y)
            step = y - slope / curv if curv < 0.0 else math.nan
            if not 0.0 < step < math.inf or not (new := float(_gain_ratio(num, den, step, False)[0])) >= value:
                break
            y, value = step, new
        if not value > rho:
            return rho
        rho = value


def critical_penetration(trio1: LinearTrio, trio2: LinearTrio) -> TwoPhaseReport:
    """Critical stable-class penetration rate for a stable/unstable pair.

    The rate is ``N0/(N0+1)`` where ``N0`` is the supremum of ``-H2/H1`` over
    ``y > 0`` (see :func:`_critical_ratio`), and the closed-form bounds from
    :func:`tau0_bounds` are attached.
    """
    d1 = discriminant(trio1)
    d2 = discriminant(trio2)
    if d1 <= 0.0:
        raise ValueError(f"first trio must be strictly stable, discriminant {d1}")
    if d2 >= 0.0:
        raise ValueError(f"second trio must be unstable, discriminant {d2}")
    n0 = _critical_ratio(trio1, [trio2], [1.0])
    b_l, b_u = tau0_bounds(trio1, trio2)
    return TwoPhaseReport(
        delta1=d1,
        delta2=d2,
        gamma_sq=gamma_squared(trio2),
        n0=n0,
        tau0=n0 / (n0 + 1.0),
        bound_lower=b_l,
        bound_upper=b_u,
    )


def tau0_bounds(trio1: LinearTrio, trio2: LinearTrio) -> tuple[float, float]:
    """Closed-form lower and upper bounds on the critical penetration rate.

    The lower bound is the ``y -> 0`` limit of the ratio being maximized.
    The upper bound applies the mean-value estimate to the derivative ratio,
    bounding each factor on ``[0, Gamma^2]`` separately; the denominator of
    the unstable class's gain is bounded below by its parabola minimum
    ``m2 = alpha2^2 - max(0, alpha2 - beta2^2/2)^2 > 0``.
    """
    d1 = discriminant(trio1)
    d2 = discriminant(trio2)
    if d1 <= 0.0 or d2 >= 0.0:
        raise ValueError("bounds need a strictly stable and an unstable trio")
    a1sq = trio1.alpha**2
    a2sq = trio2.alpha**2
    b_l = (-d2 * a1sq) / (d1 * a2sq - d2 * a1sq)

    g_sq = gamma_squared(trio2)
    e1 = a1sq + trio1.gamma**2 * g_sq
    e2 = a1sq + (trio1.beta**2 - 2.0 * trio1.alpha) * g_sq + g_sq * g_sq
    m2 = a2sq - max(0.0, trio2.alpha - trio2.beta**2 / 2.0) ** 2
    n_up = (-d2) * e1 * e2 / (m2 * a1sq * d1)
    b_u = n_up / (n_up + 1.0)
    return b_l, b_u


def margin_curve(
    trios: Sequence[LinearTrio], counts: Sequence[float], points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted log gain ``sum_k counts[k] * H_k(y)`` on a log-spaced grid.

    The grid has ``points`` values of ``y`` spanning nine decades up to the margin window
    (see :func:`_margin_window`).  Returns ``(ys, margin)``, and zeros when every count is 0.
    ``ValueError`` when ``counts`` does not match ``trios`` one to one or holds a negative or
    non-finite count, as in :func:`multi_phase_margin`.
    """
    window = _margin_window(trios, counts)
    ys, classes = np.geomspace(window * 1e-9, window, points), _gain_classes(trios, counts)
    return ys, _weighted_gain(classes, ys, curvature=False)[0] if classes else np.zeros_like(ys)


def _margin_window(trios: Sequence[LinearTrio], counts: Sequence[float]) -> float:
    """Ten times the widest feature of any unstable class with a nonzero count, and at least 10.

    A feature is the class's ``-discriminant`` or ``Gamma^2``.  Refuses ``counts`` that
    :func:`checked_counts` refuses.
    """
    checked_counts(trios, counts)
    unstable = [t for t, c in zip(trios, counts) if c != 0 and discriminant(t) < 0.0]
    spans = [1.0] + [-discriminant(t) for t in unstable] + [gamma_squared(t) for t in unstable]
    return 10.0 * max(spans)


def _poly_mul(u: list[float], v: list[float]) -> list[float]:
    """Product of two polynomials given by their coefficients, highest power first.

    Plain floats: ``np.convolve`` costs more on lists of three or four coefficients.
    """
    out = [0.0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _slope_polynomial(classes: Sequence[tuple[float, ...]]) -> list[float]:
    """Coefficients, highest power first, of ``S'(y) * prod_k p_k q_k`` (degree ``3K - 1``).

    ``H_k' = N_k / (alpha_k^2 p_k q_k)`` with ``N_k = (gamma^2 - c) - 2 y - (gamma^2 / alpha^2) y^2``,
    :func:`_class_gain`'s slope numerator, so the product is ``sum_k (w_k / alpha_k^2) N_k
    prod_{j != k} p_j q_j``.  ``p`` and ``q`` keep their constant term 1, so a large ``alpha``
    scales no coefficient out of range.  Every ``p_j q_j`` is positive for ``y > 0``, so the
    positive roots are exactly the critical points of ``S``.
    """
    nums = [[-w * g2 / a2 / a2, -2.0 * w / a2, w * (g2 - c) / a2] for a2, g2, c, w in classes]
    dens = [_poly_mul([g2 / a2, 1.0], [1.0 / a2, c / a2, 1.0]) for a2, g2, c, _ in classes]
    total = [0.0] * (3 * len(classes))
    for k, term in enumerate(nums):
        for den in dens[:k] + dens[k + 1:]:
            term = _poly_mul(term, den)
        for i, a in enumerate(term):
            total[i] += a
    return total


def _critical_points(classes: Sequence[tuple[float, ...]]) -> list[float]:
    """The positive critical points of ``S = sum_k w_k H_k``, each polished by Newton steps on ``S'``.

    They are the positive real roots of :func:`_slope_polynomial`; ``np.roots`` drops its zero
    leading coefficients, as when ``gamma^2`` underflows.  A class with a nonnegative
    discriminant has ``N_k < 0`` for every ``y > 0``, so a fleet without an unstable class
    has none.  A Newton step that would leave ``y > 0``, or divide by a zero curvature, is
    not taken.
    """
    if all(g2 <= c for _, g2, c, _ in classes):
        return []
    points = []
    for root in np.roots(_slope_polynomial(classes)).tolist():
        y = root.real
        if not (y > 0.0 and abs(root.imag) <= _REAL_ROOT_TOL * y):
            continue
        for _ in range(_ROOT_STEPS):
            _, d1, d2 = _weighted_gain(classes, y)
            if d2 == 0.0 or not 0.0 < (step := y - d1 / d2) < math.inf:
                break
            y = step
        points.append(y)
    return sorted(points)


def _margin_sup(classes: Sequence[tuple[float, ...]], y0: float) -> tuple[float, float]:
    """``(y, S)`` of the largest ``S = sum_k w_k H_k`` over ``y0`` and every critical point at or past ``y0``.

    ``S`` falls to ``-inf`` as ``y`` grows, so that is the largest ``S`` on ``[y0, inf)``.  On a
    tie the first candidate wins.
    """
    candidates = [y0] + [y for y in _critical_points(classes) if y >= y0]
    return max(
        ((y, float(_weighted_gain(classes, y, curvature=False)[0])) for y in candidates), key=lambda c: c[1]
    )


def multi_phase_margin(
    trios: Sequence[LinearTrio], counts: Sequence[float]
) -> MarginReport:
    """Stability margin of a fleet with any number of classes.

    ``counts`` may be integers or real weights; only ratios matter for the
    verdict.  sup < 0 means exponential stability for these exact counts and
    every ordering; sup > 0 means instability once the composition is
    replicated enough times.  The reported sup is the largest ``S`` over
    ``y0 = window * 1e-9`` (the first point of :func:`margin_curve`'s grid) and
    every critical point at or past ``y0``, since ``S`` falls to ``-inf`` as
    ``y`` grows.
    """
    y0 = _margin_window(trios, counts) * 1e-9
    if sum(counts) <= 0:
        raise ValueError("counts must have a positive total")
    y_best, sup = _margin_sup(_gain_classes(trios, counts), y0)
    if sup > MARGIN_TOL:
        verdict = MarginVerdict.UNSTABLE_FOR_LARGE_N
    elif sup < -MARGIN_TOL:
        verdict = MarginVerdict.STABLE_ALL_N
    else:
        verdict = MarginVerdict.CRITICAL_BOUNDARY
    return MarginReport(sup_margin=sup, argmax_y=y_best, verdict=verdict)


def multi_phase_tau1(
    trios: Sequence[LinearTrio], rates: Sequence[float]
) -> float:
    """Minimal fraction of class 1 that stabilizes a multi-class fleet.

    The remaining mass is split among classes 2..m in the fixed relative
    shares ``rates``.  Class 1 must be strictly stable; the threshold is then
    ``N/(N+1)`` from the same ratio maximization as
    :func:`critical_penetration`.  Returns 0.0 when the remainder is already
    stable on its own.
    """
    if len(rates) != len(trios) - 1 or len(trios) < 2:
        raise ValueError("rates must cover classes 2..m")
    check_rates(rates)
    if discriminant(trios[0]) <= 0.0:
        raise ValueError("class 1 must be strictly stable")
    n = _critical_ratio(trios[0], trios[1:], rates)
    return n / (n + 1.0) if n > 0.0 else 0.0


def _first_unstable(trios: Sequence[LinearTrio], rates: Sequence[float], sizes: Sequence[int]) -> int | None:
    """The first of ``sizes`` with an eigenvalue right of ``ABSCISSA_TOL``, all counted in one call.

    A size whose count fails raises, unless an earlier size is unstable.  The spectral layer
    is imported here, so the margins and ``tau0`` never load it.
    """
    from .spectrum import Fleet, _line_counts, _unwrap

    lines = [(Fleet.from_rates(trios, rates, n), ABSCISSA_TOL) for n in sizes]
    return next((n for n, count in zip(sizes, _line_counts(lines)) if _unwrap(count) >= 1), None)


def min_unstable_size(
    trios: Sequence[LinearTrio],
    rates: Sequence[float],
    n_max: int,
) -> int | None:
    """Smallest total vehicle count with an eigenvalue right of ``ABSCISSA_TOL``.

    Counts at each candidate total are the rates rounded by largest
    remainder.  The totals 2, 4, 8, ..., ``n_max`` are probed in one batched
    winding count, then every unprobed total below the first unstable one
    in another: instability is not monotone in the total (rounding changes
    the mix), so the result is the true minimum.  ``None`` when no probe is
    unstable, which is no proof of stability: a total between two probes may be.
    ``n_max`` may be an integral float such as 12.0; ``ValueError`` when it is
    not a finite whole number.
    """
    check_rates(rates)
    n_max = whole_number(n_max, "n_max")
    if n_max < 2:
        return None
    probes = [2]
    while probes[-1] < n_max:
        probes.append(min(2 * probes[-1], n_max))
    hit = _first_unstable(trios, rates, probes)
    if hit is None:
        return None
    return _first_unstable(trios, rates, [n for n in range(2, hit) if n not in probes]) or hit
