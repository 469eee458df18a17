"""Spectrum of the linearized ring system.

Stacking headway perturbations ``y`` over velocity perturbations ``u`` turns
the linearized dynamics into ``z' = M z`` with the 2n x 2n block matrix

    M = [[0, A], [C, B]]

where A is the circulant forward difference, C = diag(alpha_j), and B couples
each vehicle to itself (-beta_j) and its leader (+gamma_j).  Perturbations
live on the subspace where the headway components sum to zero; there the
spectrum of M is its full spectrum minus the structural simple eigenvalue at
zero.  Two independent reformulations are provided for cross-checking: the
characteristic polynomial in product form and the transfer product whose
unit level set characterizes the eigenvalues.

Because the transfer product depends only on the multiset of trios, a
:class:`Fleet` of classes ``(trios, counts)`` has its eigenvalues at the zeros
of ``1 - F`` with ``F = prod_k T_k^{n_k}``.  :func:`count_right_of` counts
them right of a vertical line by the argument principle and
:func:`rightmost_eigenvalue` locates the rightmost one by Newton's method,
certified by that count; both cost O(K) per sample point and never form the
ring matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import check_rates, largest_remainder
from .errors import PoleError
from .linearize import LinearTrio


@dataclass(frozen=True)
class RingSystem:
    """Trios of the n vehicles, ordered as they follow each other on the ring."""

    trios: tuple[LinearTrio, ...]

    def __post_init__(self):
        if len(self.trios) < 1:
            raise ValueError("a ring system needs at least one vehicle")

    @property
    def n(self) -> int:
        return len(self.trios)


@dataclass(frozen=True, eq=False)
class Fleet:
    """The vehicles of a ring as classes: ``counts[k]`` vehicles share ``trios[k]``.

    The spectrum depends on this multiset and never on the ordering.  Classes
    with count zero are dropped.  The K remaining classes are also held as
    read-only ``(K, 1)`` columns ``alpha``, ``beta``, ``gamma`` and ``count``,
    and ``roots`` holds the two roots of each ``q_k = lam^2 + beta_k lam + alpha_k``.
    """

    trios: tuple[LinearTrio, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.trios) != len(self.counts) or len(self.trios) < 1:
            raise ValueError("need matching, nonempty trio and count lists")
        if any(c < 0 or not float(c).is_integer() for c in self.counts):
            raise ValueError(f"counts must be nonnegative integers, got {list(self.counts)}")
        kept = [(t, int(c)) for t, c in zip(self.trios, self.counts) if c > 0]
        if not kept:
            raise ValueError("a ring system needs at least one vehicle")
        rows = [(t.alpha, t.beta, t.gamma, float(c)) for t, c in kept]
        alpha, beta, gamma, count = (np.array(col)[:, None] for col in zip(*rows))
        disc = np.sqrt((beta * beta - 4.0 * alpha).astype(complex))
        roots = np.hstack([(-beta + disc) / 2.0, (-beta - disc) / 2.0])
        for col in (alpha, beta, gamma, count, roots):
            col.flags.writeable = False
        trios, counts = zip(*kept)
        # set once, past the frozen __setattr__
        vars(self).update(
            trios=trios, counts=counts, alpha=alpha, beta=beta, gamma=gamma, count=count, roots=roots
        )

    @classmethod
    def from_rates(cls, trios: Sequence[LinearTrio], rates: Sequence[float], n: int) -> Fleet:
        """``n`` vehicles split over ``trios`` by ``rates``, rounded by largest remainder."""
        check_rates(rates)
        return cls(trios, largest_remainder(rates, n))

    @classmethod
    def from_ring(cls, ring: RingSystem) -> Fleet:
        """The classes of ``ring``: how many of its vehicles share each trio."""
        counts = Counter(ring.trios)
        return cls(tuple(counts), tuple(counts.values()))

    def transfer(self, z) -> np.ndarray:
        """``F(z) = exp(sum_k n_k (log p_k(z) - log q_k(z)))`` at each of the points ``z``.

        ``p_k = gamma_k z + alpha_k`` and ``q_k`` are the numerator and
        denominator of class k's transfer factor; the sum of logs cannot
        overflow or underflow as a product of n factors would, and is exactly
        zero at ``z = 0``.  Raises :class:`PoleError` at a pole.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        q = z * z + self.beta * z + self.alpha
        if not q.all():
            raise PoleError(f"transfer product evaluated at pole z={z[(q == 0).any(axis=0)][0]}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_f = (self.count * (np.log(self.gamma * z + self.alpha) - np.log(q))).sum(axis=0)
            return np.exp(log_f)

    def root_error(self, lam) -> np.ndarray:
        """First-order distance from each of the points ``lam`` to the nearest eigenvalue.

        This is the length of the Newton step on ``log F - 2 pi i m``, however
        steep F is there; ``inf`` where the step reaches beyond a tenth of the
        distance to the nearest zero or pole of F, where it measures nothing.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        sites = np.vstack((-self.alpha / self.gamma, self.roots[:, :1], self.roots[:, 1:]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.abs(_newton_step(self, lam))
            reach = 0.1 * np.abs(lam - sites).min(axis=0)
        return np.where(step <= reach, step, np.inf)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues on the zero-sum-headway subspace (2n-1 values, sorted)."""

    eigenvalues: np.ndarray
    abscissa: float


def assemble(sys: RingSystem) -> np.ndarray:
    """The 2n x 2n ring matrix; requires n >= 2."""
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


def eigenvalues_on_H(sys: RingSystem) -> SpectrumReport:
    """Spectrum restricted to the invariant zero-sum-headway subspace H.

    In the coordinates ``(y_1 .. y_{n-1}, u)`` of H, ``y_n = -(y_1 + ... +
    y_{n-1})``, M keeps its other rows and columns, less the ``y_n`` column in
    each headway column: a ``(2n-1) x (2n-1)`` matrix with the spectrum of M
    but its structural zero, so no eigenvalue is searched for or dropped.
    """
    n = sys.n
    keep = np.r_[0 : n - 1, n : 2 * n]
    m = assemble(sys)
    m_h = m[np.ix_(keep, keep)]
    m_h[:, : n - 1] -= m[keep, n - 1 : n]
    del m  # M would otherwise stay alive next to LAPACK's copy of m_h
    lam = np.sort_complex(np.linalg.eigvals(m_h))
    return SpectrumReport(eigenvalues=lam, abscissa=float(lam.real.max()))


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


def transfer_product(sys: RingSystem, z: complex) -> complex:
    """Product of the per-vehicle transfer factors at ``z``, one class at a time.

    Each factor is ``(gamma_j z + alpha_j) / (z^2 + beta_j z + alpha_j)``;
    eigenvalues of the ring system are exactly the points where the product
    equals one.  See :meth:`Fleet.transfer`.
    """
    return complex(Fleet.from_ring(sys).transfer(z)[0])


# Fleets as class multisets: winding counts and a certified abscissa.
#
# Along a vertical line Re(lam) = s the phase of 1 - F is sampled on a grid
# that is refined until no step between neighbours exceeds _MAX_PHASE_STEP,
# neither in arg(1 - F) nor in the continuous phase Im(log F), nor (where |F|
# is near one) in log|F|.  The continuous phase is summed from the angles of
# F's linear factors, whose change between two samples is always below pi,
# so it is exact on any grid.

_MAX_PHASE_STEP = math.pi / 4
# |log|F|| below this marks the band where log|F| is resolved as well
_NEAR_UNIT_LOG = 3.0
# log|F| below this is negligible: the phase of F needs no resolving there
_NEGLIGIBLE_LOG = -30.0
# each refinement round cuts every unresolved interval into _SPLIT pieces
_SPLIT = 4
_SPLIT_AT = np.arange(1, _SPLIT)[:, None] / _SPLIT
_MAX_ROUNDS = 60
# a winding total further than this from a multiple of pi is not trusted
_TURN_SLACK = 0.25
# half-width of the abscissa certificate, relative to max(1, |abscissa|)
_CERT_RTOL = 1e-10
# relative width at which the fallback bisection on the count stops
_BISECT_RTOL = 1e-12
# Newton seeds sit where the phase of F crosses a multiple of this; eigenvalues
# near the axis sit at multiples of 2 pi, the extra seeds serve small fleets
_SEED_PHASE = math.pi / 2
_NEWTON_ITERS = 60
_NEWTON_RESIDUAL = 1e-9


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _log_product(fleet: Fleet, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log|F|`` and ``Im log F`` (modulo 2 pi) at the points ``lam``.

    Each factor is written ``T_k = 1 + u_k`` with ``u_k = lam (gamma_k -
    beta_k - lam) / q_k(lam)``, so the logs stay accurate next to the
    structural zero, where every ``T_k`` is close to one.
    """
    q = lam * (lam + fleet.beta) + fleet.alpha
    u = lam * (fleet.gamma - fleet.beta - lam) / q
    log_abs = 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag * u.imag)
    arg = np.arctan2(u.imag, 1.0 + u.real)
    return (fleet.count * log_abs).sum(axis=0), (fleet.count * arg).sum(axis=0)


def _arg_one_minus_exp(g_re: np.ndarray, g_im: np.ndarray) -> np.ndarray:
    """Principal ``arg(1 - e^g)``; taken via ``-e^g (1 - e^-g)`` where ``|e^g| > 1``."""
    big = g_re > 0.0
    a = np.where(big, -g_re, g_re)
    b = np.where(big, -g_im, g_im)
    # 1 - e^(a+ib) = -(expm1(a) cos b - 2 sin^2(b/2)) - i e^a sin b, exact near a = b = 0
    half = np.sin(0.5 * b)
    re = 2.0 * half * half - np.expm1(a) * np.cos(b)
    im = -np.exp(a) * np.sin(b)
    phi = np.arctan2(im, re)
    return np.where(big, _wrap(phi + g_im + math.pi), phi)


def _tail_start(fleet: Fleet) -> float:
    """Height beyond which ``|F(s + ix)| < 1`` on every vertical line.

    With ``R_k`` the largest root modulus of ``q_k``,
    ``|q_k| >= (|lam| - R_k)^2 > gamma_k |lam| + alpha_k >= |p_k|`` once
    ``|lam| >= R_k + gamma_k + sqrt(alpha_k) + sqrt(gamma_k R_k) + 1``, and
    ``|lam| >= x``; so each factor, and the product, has modulus below one.
    """
    r = np.abs(fleet.roots).max(axis=1, keepdims=True)
    bound = r + fleet.gamma + np.sqrt(fleet.alpha) + np.sqrt(fleet.gamma * r) + 1.0
    return float(bound.max())


def _sample_line(fleet: Fleet, s: float, x: np.ndarray) -> np.ndarray:
    """Rows ``log|F|``, ``arg(1 - F)`` and the angles of F's linear factors at ``s + ix``."""
    g_re, g_im = _log_product(fleet, s + 1j * x)
    centers = (-fleet.alpha / fleet.gamma, fleet.roots[:, :1], fleet.roots[:, 1:])
    angles = [np.arctan2(x - c.imag, s - c.real) for c in centers]
    return np.vstack([g_re, _arg_one_minus_exp(g_re, g_im)] + angles)


def _resolve_line(fleet: Fleet, s: float, *, winding: bool):
    """Intervals covering the half line ``s + ix``, ``0 <= x <= x_tail``, fine enough to count on.

    Unresolved intervals are cut into ``_SPLIT`` pieces, round after round,
    until none is left; each round evaluates only the new points.  Returns,
    per interval in no particular order, its ends, the exact increment of
    ``Im log F`` and the increment of ``arg(1 - F)``, followed by
    ``arg(1 - F)`` at ``x_tail``.  With ``winding=False`` only the continuous
    phase of F is resolved.
    """
    x_tail = _tail_start(fleet)
    x = np.unique(
        np.concatenate(
            (
                [0.0],
                np.geomspace(x_tail * 1e-6, x_tail, 64),
                np.linspace(0.0, x_tail, 4 * int(fleet.count.sum()) + 64),
            )
        )
    )
    # +1 for each zero of F (at -alpha/gamma), -1 for each pole (roots of q)
    weight = np.concatenate((fleet.count, -fleet.count, -fleet.count)).ravel()
    done = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        data = _sample_line(fleet, s, x)
        arg_tail = float(data[1, -1])
        xa, xb, da, db = x[:-1], x[1:], data[:, :-1], data[:, 1:]
        for _ in range(_MAX_ROUNDS):
            d_phase = weight @ _wrap(db[2:] - da[2:])
            d_arg = _wrap(db[1] - da[1])
            # where |F| is negligible at both ends, 1 - F stays next to 1 whatever
            # the phase of F does (F vanishes at -alpha/gamma, which a line may cross)
            bad = ~(np.abs(d_phase) <= _MAX_PHASE_STEP)
            bad &= np.maximum(da[0], db[0]) > _NEGLIGIBLE_LOG
            if winding:
                near_unit = np.minimum(np.abs(da[0]), np.abs(db[0])) < _NEAR_UNIT_LOG
                bad |= ~(np.abs(d_arg) <= _MAX_PHASE_STEP)
                bad |= near_unit & ~(np.abs(db[0] - da[0]) <= _MAX_PHASE_STEP)
            ok = ~bad
            done.append((xa[ok], xb[ok], d_phase[ok], d_arg[ok]))
            if not bad.any():
                parts = [np.concatenate(col) for col in zip(*done)]
                return (*parts, arg_tail)
            lo, hi = xa[bad], xb[bad]
            cut = lo + np.outer(_SPLIT_AT, hi - lo)  # (_SPLIT - 1, m) inner points
            if np.any(cut[0] <= lo) or np.any(cut[-1] >= hi) or np.any(cut[1:] <= cut[:-1]):
                break
            xs = np.vstack((lo, cut, hi))
            inner = _sample_line(fleet, s, cut.ravel()).reshape(-1, *cut.shape)
            ds = np.concatenate((da[:, None, bad], inner, db[:, None, bad]), axis=1)
            rows = len(ds)
            xa, xb = xs[:-1].ravel(), xs[1:].ravel()
            da, db = ds[:, :-1].reshape(rows, -1), ds[:, 1:].reshape(rows, -1)
    raise FloatingPointError(f"phase of 1 - F along Re(lambda) = {s} could not be resolved")


def count_right_of(fleet: Fleet, s: float) -> int:
    """Number of eigenvalues with ``Re(lambda) > s``, the structural zero excluded.

    The answer holds for every ordering of the ring.  Eigenvalues are the
    zeros of ``1 - F``; the argument principle on the half plane right of the
    line gives their number as the winding of ``1 - F`` along the line (taken
    on ``x >= 0`` and doubled by conjugate symmetry) plus the poles of F right
    of the line, ``n_k`` at each root of ``q_k`` there.  The zero at the
    origin is subtracted when ``s < 0``; ``s = 0`` is refused, since the line
    passes through it.  Raises :class:`PoleError` if the line passes through a
    pole and ``FloatingPointError`` if the phase cannot be resolved.
    """
    s = float(s)
    if s == 0.0:
        raise ValueError("the line Re(lambda) = 0 passes through the structural zero")
    if np.any(fleet.roots.real == s):
        raise PoleError(f"the line Re(lambda) = {s} passes through a pole")
    *_, d_arg, arg_tail = _resolve_line(fleet, s, winding=True)
    # arg(1 - F) tends to 0 beyond the tail start, where Re(1 - F) > 0
    half_turns = (math.fsum(d_arg) - arg_tail) / math.pi
    k = round(half_turns)
    if abs(half_turns - k) > _TURN_SLACK:
        raise FloatingPointError(f"winding along Re(lambda) = {s} is not a whole count")
    poles = int((fleet.count * (fleet.roots.real > s)).sum())
    return poles - k - (1 if s < 0.0 else 0)


def _newton_step(fleet: Fleet, lam: np.ndarray) -> np.ndarray:
    """Newton step on ``log F - 2 pi i m`` at ``lam``, ``m`` the nearest branch."""
    g_re, g_im = _log_product(fleet, lam)
    q = lam * (lam + fleet.beta) + fleet.alpha
    d_log = fleet.gamma / (fleet.gamma * lam + fleet.alpha) - (2.0 * lam + fleet.beta) / q
    dg = (fleet.count * d_log).sum(axis=0)
    return (g_re + 1j * _wrap(g_im)) / dg


def _newton_roots(fleet: Fleet, lam: np.ndarray) -> np.ndarray:
    """Roots of ``F = 1`` reached by Newton on ``log F - 2 pi i m`` from each seed.

    The branch ``m`` is whichever is nearest at each step, so every converged
    iterate is an eigenvalue; seeds that diverge or stall are dropped.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ITERS):
            step = _newton_step(fleet, lam)
            lam = lam - step
            if not np.any(np.abs(step) > 4e-16 * (1.0 + np.abs(lam))):
                break
        g_re, g_im = _log_product(fleet, lam)
        residual = np.abs(g_re + 1j * _wrap(g_im))
    return lam[residual <= _NEWTON_RESIDUAL]


def _axis_seeds(fleet: Fleet) -> np.ndarray:
    """Points ``ix``, ``x > 0``, where ``Im log F(ix)`` crosses a multiple of pi/2."""
    xa, xb, d_phase, _, _ = _resolve_line(fleet, 0.0, winding=False)
    order = np.argsort(xa)
    x = np.append(xa[order], xb[order[-1]])
    phase = np.concatenate(([0.0], np.cumsum(d_phase[order])))  # F(0) = 1
    turns = np.floor(phase / _SEED_PHASE)
    i = np.flatnonzero(turns[1:] != turns[:-1])
    level = _SEED_PHASE * np.maximum(turns[i], turns[i + 1])
    x_cross = x[i] + (level - phase[i]) / (phase[i + 1] - phase[i]) * (x[i + 1] - x[i])
    return 1j * x_cross[x_cross > 0.0]


def _seeds(fleet: Fleet) -> np.ndarray:
    """Newton seeds for :func:`rightmost_eigenvalue`.

    One class of n vehicles has as eigenvalues the roots of ``w lam^2 + (w
    beta - gamma) lam + alpha (w - 1) = 0``, ``w = e^(2 pi i m / n)``, where
    ``m <= n/2`` gives one of each conjugate pair.  A real eigenvalue has no
    axis crossing, so several classes add each one's real root ``gamma_k - beta_k``.
    """
    if len(fleet.counts) > 1:
        return np.concatenate((_axis_seeds(fleet), (fleet.gamma - fleet.beta).ravel()))
    (n,) = fleet.counts
    w = np.exp(2j * math.pi * np.arange(n // 2 + 1) / n)
    b = w * fleet.beta[0] - fleet.gamma[0]
    root = np.sqrt(b * b - 4.0 * w * fleet.alpha[0] * (w - 1.0))
    return np.concatenate(((-b + root) / (2.0 * w), (-b - root) / (2.0 * w)))


def rightmost_eigenvalue(fleet: Fleet) -> complex:
    """Eigenvalue of largest real part of the ring of ``fleet``.

    The structural zero is excluded; the real part, the spectral abscissa, is
    the same for every ordering, and the imaginary part is the angular
    frequency of the fastest-growing (or slowest-decaying) wave.  Newton on
    ``log F = 2 pi i m`` starts from all seeds at once: for one class its
    eigenvalues in closed form, otherwise every crossing of a multiple of
    pi/2 by the phase of F along the imaginary axis.  The
    rightmost converged root ``a`` is certified by :func:`count_right_of`:
    no eigenvalue right of ``Re a + d`` and at least one right of
    ``Re a - d``, with ``d = 1e-10 max(1, |Re a|)``.  If the certificate
    fails, the abscissa is bracketed by bisection on the count and the root
    polished by Newton.
    """
    # F(lam) - 1 ~ F'(0) lam: a root this close to the origin is the structural zero
    slope0 = abs(float((fleet.count * (fleet.gamma - fleet.beta) / fleet.alpha).sum()))
    zero_gap = 1e-6 * 2.0 * math.pi / slope0
    roots = _newton_roots(fleet, _seeds(fleet).astype(complex))
    roots = roots[np.abs(roots) > zero_gap]
    # every eigenvalue lies in a Gershgorin disc of the ring matrix
    hi = 2.0 + float(fleet.alpha.max())
    lo = -3.0 - float((fleet.alpha + fleet.beta + fleet.gamma).max())
    if roots.size:
        top = complex(roots[np.argmax(roots.real)])
        d = _CERT_RTOL * max(1.0, abs(top.real))
        # (neither line may be the one through the structural zero)
        above, below = top.real + d or 0.5 * d, top.real - d or -0.5 * d
        if count_right_of(fleet, above) == 0:
            if count_right_of(fleet, below) >= 1:
                return top
            hi = below
        else:
            lo = above
    while hi - lo > _BISECT_RTOL * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi) or 0.5 * hi  # lo < 0 < hi: step off the zero line
        if count_right_of(fleet, mid) == 0:
            hi = mid
        else:
            lo = mid
    # polish from where the phase of 1 - F turns fastest along Re(lambda) = lo
    xa, xb, _, d_arg, _ = _resolve_line(fleet, lo, winding=True)
    pick = np.argsort(np.abs(d_arg) / (xb - xa))[-8:]
    roots = _newton_roots(fleet, lo + 0.5j * (xa[pick] + xb[pick]))
    tol = _BISECT_RTOL * max(1.0, abs(lo), abs(hi))
    roots = roots[(roots.real >= lo - tol) & (roots.real <= hi + tol)]
    if not roots.size:
        raise FloatingPointError(f"no eigenvalue found in the certified strip [{lo}, {hi}]")
    return complex(roots[np.argmax(roots.real)])
