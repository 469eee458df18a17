"""Per-vehicle references that the tests check the package against.

The package answers from class counts and the analytic partials; these
evaluate the same quantities another way, vehicle by vehicle, by finite
differences, on a grid, or by dense eigensolves of the ring matrix and of a
companion matrix, and no library function calls them.  The CLI configs'
JSON Schemas are here too, for a JSON Schema validator to check the config
reader against.
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
    SpectrumReport,
    accel,
    discriminant,
    gamma_squared,
    log_gain,
    preferred_headway,
)
from ringwave.equilibrium import LENGTH_TOL
from ringwave.linearize import _require_equilibrium
from ringwave.stability import _gain_classes, _gain_ratio, _polished, _slope_polynomial


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


def assemble(sys: RingSystem) -> np.ndarray:
    """The 2n x 2n ring matrix; requires n >= 2.  :func:`dense_spectrum` builds on it."""
    n = sys.n
    if n < 2:
        raise ValueError(f"ring matrix needs n >= 2 vehicles, got {n}")
    alpha = np.array([t.alpha for t in sys.trios])
    beta = np.array([t.beta for t in sys.trios])
    gamma = np.array([t.gamma for t in sys.trios])

    a_blk = -np.eye(n)
    b_blk = np.diag(-beta)
    rows = np.arange(n)
    lead = (rows + 1) % n
    a_blk[rows, lead] = 1.0
    b_blk[rows, lead] = gamma

    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = a_blk
    m[n:, :n] = np.diag(alpha)
    m[n:, n:] = b_blk
    return m


def dense_spectrum(sys: RingSystem) -> SpectrumReport:
    """Spectrum restricted to the invariant zero-sum-headway subspace H, by dense ``eigvals``.

    In the coordinates ``(y_1 .. y_{n-1}, u)`` of H, ``y_n = -(y_1 + ... +
    y_{n-1})``, M keeps its other rows and columns, less the ``y_n`` column in
    each headway column: a ``(2n-1) x (2n-1)`` matrix with the spectrum of M
    but its structural zero, so no eigenvalue is searched for or dropped.
    M is non-normal: on block or shuffled orderings ``eigvals`` returns values
    that are no eigenvalues.
    """
    n = sys.n
    keep = np.r_[0 : n - 1, n : 2 * n]
    m = assemble(sys)
    m_h = m[np.ix_(keep, keep)]
    m_h[:, : n - 1] -= m[keep, n - 1 : n]
    del m  # M would otherwise stay alive next to LAPACK's copy of m_h
    lam = np.sort_complex(np.linalg.eigvals(m_h))
    return SpectrumReport(eigenvalues=lam, abscissa=float(lam.real.max()))


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


def critical_points_by_roots(classes: Sequence[tuple[float, ...]]) -> list[float]:
    """``stability._critical_points`` from every root of the slope polynomial, by ``np.roots``.

    ``np.roots`` solves the companion matrix's eigenvalues with LAPACK and drops zero leading
    coefficients.  A root whose imaginary part is within 1e-6 of its size is taken as real, since
    two real roots closer than about ``sqrt(eps)`` may come back as a complex pair.  Each
    positive one gets the package's polish.
    """
    if all(g2 <= c for _, g2, c, _ in classes):
        return []
    roots = np.roots(_slope_polynomial(classes, 1.0)).tolist()
    return sorted(_polished(classes, r.real) for r in roots if r.real > 0.0 and abs(r.imag) <= 1e-6 * r.real)


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


# The CLI configs as JSON Schema (Draft 2020-12) documents: ``config_schema(command)``
# is the structure that ``ringwave._config.validate`` must refuse the violations of.
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_INT = {"type": "integer"}


def _obj(properties: dict, optional: Sequence[str] = ()) -> dict:
    """A closed JSON object whose properties are all required except ``optional``."""
    return {
        "type": "object",
        "properties": properties,
        "required": [k for k in properties if k not in optional],
        "additionalProperties": False,
    }


_PREFERENCE = {
    "oneOf": [
        _obj({"v_max": _POS, "l_v": _NONNEG, "d0": _POS}),
        _obj({"calibrate": _obj({"h_ref": _POS, "slope": _POS, "l_v": _NONNEG, "d0": _POS})}),
    ]
}
_MODEL = _obj({"kind": {"const": "bando_ftl"}, "a": _POS, "b": _POS, "preference": _PREFERENCE})
_POPULATIONS = {
    "type": "array",
    "items": _obj({"class_id": _INT, "count": {"type": "integer", "minimum": 0}, "model": _MODEL}),
    "minItems": 1,
}
# tau0 and sweep take exactly two classes and no counts
_PAIR = {
    "type": "array",
    "items": _obj({"class_id": _INT, "model": _MODEL}),
    "minItems": 2,
    "maxItems": 2,
}
_ORDERING = {"oneOf": [{"enum": ["blocks", "spread"]}, {"type": "array", "items": _INT}]}
_EQ_V = {
    "oneOf": [
        _obj({"v_bar": _POS}),
        _obj({"class_headway": _obj({"class_id": _INT, "headway": _POS})}),
    ]
}
_EQ_FULL = {"oneOf": _EQ_V["oneOf"] + [_obj({"length": _POS})]}
# every perturbation kind's integer parameters, all optional; which kind takes which is a rule past the schema
_PERT_PARAMS = {"mode": _INT, "seed": _INT}
_SIM = _obj(
    {
        "dt": _POS,
        "t_end": _POS,
        "record_every": {"type": "integer", "minimum": 1},
        "perturbation": _obj(
            {
                "amplitude": _NONNEG,
                "kind": {"enum": ["single_vehicle_kick", "sinusoidal_mode", "seeded_random_zero_sum"]},
                **_PERT_PARAMS,
            },
            optional=list(_PERT_PARAMS),
        ),
    },
    optional=("dt", "record_every"),
)
_SWEEP = _obj(
    {
        "n_totals": {"type": "array", "items": {"type": "integer", "minimum": 2, "maximum": 10**6}, "minItems": 1},
        "rate_class1": {"type": "number", "minimum": 0, "maximum": 1},
    }
)

_RING = {"composition": _obj({"populations": _POPULATIONS, "ordering": _ORDERING}), "equilibrium": _EQ_FULL}
_SVG = {"svg": {"type": "boolean"}}
# each command's required sections after schema_version, then its optional ones
_SECTIONS = {
    "equilibrium": (_RING, {}),
    "linearize": (_RING, {}),
    "spectrum": (_RING, {}),
    "simulate": ({**_RING, "sim": _SIM}, _SVG),
    "tau0": ({"populations": _PAIR, "equilibrium": _EQ_V}, {}),
    "margin": ({"populations": _POPULATIONS, "equilibrium": _EQ_V}, _SVG),
    "sweep": ({"populations": _PAIR, "equilibrium": _EQ_V, "sweep": _SWEEP}, _SVG),
}


def config_schema(command: str) -> dict:
    required, optional = _SECTIONS[command]
    return _obj({"schema_version": {"const": 1}, **required, **optional}, optional=optional)
