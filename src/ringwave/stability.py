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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import check_rates, golden_max
from .linearize import LinearTrio, discriminant
from .spectrum import Fleet, count_right_of

GRID_POINTS = 4096

# a grid maximum rising less than this fraction of its value above its lower
# neighbour is rounding noise (the flat y -> 0 end of a ratio), not a peak
_PEAK_RTOL = 1e-13

# |sup margin| below this is reported as sitting on the critical boundary
MARGIN_TOL = 1e-12

# spectral abscissa above this counts as unstable in sweeps
ABSCISSA_TOL = 1e-9


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
    a2 = trio.alpha * trio.alpha
    num = (trio.gamma * trio.gamma) * arr / a2
    den = ((trio.beta * trio.beta - 2.0 * trio.alpha) * arr + arr * arr) / a2
    if (den <= -1.0).any():
        raise ValueError(
            f"trio ({trio.alpha}, {trio.beta}, {trio.gamma}) leaves the admissible set"
        )
    out = np.log1p(num) - np.log1p(den)
    return float(out) if arr.ndim == 0 else out


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


def _grid_with_refinement(fn, ys: np.ndarray, vals: np.ndarray):
    """Best grid point after a golden-section polish of every grid peak.

    The argmax and each interior local maximum are polished between their
    grid neighbours, so an undersampled narrow peak is not lost to a flatter
    one.  Refinement never descends below the first grid point: the caller
    handles the y -> 0 limit analytically.
    """
    i_best = int(np.argmax(vals))
    best_y, best_v = float(ys[i_best]), float(vals[i_best])
    mid = vals[1:-1]
    rise = mid - np.minimum(vals[:-2], vals[2:])
    is_peak = (mid > vals[:-2]) & (mid >= vals[2:]) & (rise > _PEAK_RTOL * np.abs(mid))
    for i in sorted(set((np.flatnonzero(is_peak) + 1).tolist()) | {i_best}):
        lo = float(ys[max(i - 1, 0)])
        hi = float(ys[min(i + 1, len(ys) - 1)])
        if hi > lo:
            y_ref, v_ref = golden_max(fn, lo, hi)
            if v_ref > best_v:
                best_y, best_v = y_ref, v_ref
    return best_y, best_v


def _weighted_log_gain(trios: Sequence[LinearTrio], weights: Sequence[float]):
    """``y -> sum_k weights[k] * H_k(y)``: an ``fsum`` at a float, class by class on an array."""
    live = [(t, w) for t, w in zip(trios, weights) if w != 0.0]

    def at(y):
        if isinstance(y, float):
            return math.fsum(w * log_gain(t, y) for t, w in live)
        total = np.zeros_like(y)
        for t, w in live:
            total += w * log_gain(t, y)
        return total

    return at


def _critical_ratio(
    stable: LinearTrio, others: Sequence[LinearTrio], weights: Sequence[float]
) -> float:
    """``N = sup_y R(y) / -H1(y)`` with ``R = sum_k weights[k] * H_k(others[k])``.

    ``H1 < 0`` for all ``y > 0``, so ``frac * H1 + (1 - frac) * R < 0`` everywhere
    exactly when ``frac / (1 - frac) > N``.  Past the largest unstable ``Gamma^2``
    every ``H_k`` falls and ``-H1`` rises, so the grid stops there; ``y -> 0``
    enters by its analytic limit.  ``-inf`` when no remainder class is unstable.
    """
    unstable = [gamma_squared(t) for t, w in zip(others, weights) if w and discriminant(t) < 0.0]
    if not unstable:
        return -math.inf
    ys = np.geomspace(max(unstable) * 1e-12, max(unstable), GRID_POINTS)
    rest = _weighted_log_gain(others, weights)

    def ratio_at(y):
        return rest(y) / -log_gain(stable, y)

    d1, a1sq = discriminant(stable), stable.alpha**2
    limit0 = math.fsum(
        w * ((-discriminant(t) * a1sq) / (d1 * t.alpha**2)) for t, w in zip(others, weights)
    )
    return max(_grid_with_refinement(ratio_at, ys, ratio_at(ys))[1], limit0)


def critical_penetration(trio1: LinearTrio, trio2: LinearTrio) -> TwoPhaseReport:
    """Critical stable-class penetration rate for a stable/unstable pair.

    The rate is ``N0/(N0+1)`` where ``N0`` is the maximum of ``-H2/H1`` over
    ``(0, Gamma^2]`` (see :func:`_critical_ratio`), and the closed-form bounds
    from :func:`tau0_bounds` are attached.
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

    The grid has ``points`` values of ``y`` spanning nine decades up to ten
    times the widest feature of any unstable class (its ``-discriminant`` or
    ``Gamma^2``), and at least up to 10.  Returns ``(ys, margin)``.
    """
    spans = [1.0]
    for t in trios:
        d = discriminant(t)
        if d < 0.0:
            spans.append(-d)
            spans.append(gamma_squared(t))
    window = 10.0 * max(spans)
    ys = np.geomspace(window * 1e-9, window, points)
    return ys, _weighted_log_gain(trios, counts)(ys)


def multi_phase_margin(
    trios: Sequence[LinearTrio], counts: Sequence[float]
) -> MarginReport:
    """Stability margin of a fleet with any number of classes.

    ``counts`` may be integers or real weights; only ratios matter for the
    verdict.  sup < 0 means exponential stability for these exact counts and
    every ordering; sup > 0 means instability once the composition is
    replicated enough times.
    """
    if len(trios) != len(counts) or len(trios) < 1:
        raise ValueError("need matching, nonempty trio and count lists")
    if any(c < 0 for c in counts) or sum(counts) <= 0:
        raise ValueError("counts must be nonnegative with a positive total")
    ys, total = margin_curve(trios, counts, GRID_POINTS)
    y_best, sup = _grid_with_refinement(_weighted_log_gain(trios, counts), ys, total)
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


def min_unstable_size(
    trios: Sequence[LinearTrio],
    rates: Sequence[float],
    n_max: int,
) -> int | None:
    """Smallest total vehicle count with an eigenvalue right of ``ABSCISSA_TOL``.

    Counts at each candidate total are the rates rounded by largest
    remainder.  The totals 2, 4, 8, ..., ``n_max`` are probed until one is
    unstable; then every total from 2 up is tested, because instability is
    not monotone in the total (rounding changes the mix), so the result is
    the true minimum.  Each verdict is one winding count, not an abscissa.
    Returns ``None`` when no probe is unstable, which is not a proof of
    stability: a total between two probes may still be unstable, and with
    ``n_max < 2`` no fleet is built, so the rates are not checked.
    """
    if n_max < 2:
        return None

    def unstable(n: int) -> bool:
        return count_right_of(Fleet.from_rates(trios, rates, n), ABSCISSA_TOL) >= 1

    probes = [2]
    while probes[-1] < n_max:
        probes.append(min(2 * probes[-1], n_max))
    hit = next((n for n in probes if unstable(n)), None)
    if hit is None:
        return None
    return next(n for n in range(2, hit + 1) if n == hit or (n not in probes and unstable(n)))
