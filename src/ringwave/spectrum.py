"""Spectrum of the linearized ring system.

Stacking headway perturbations ``y`` over velocity perturbations ``u`` turns
the linearized dynamics into ``z' = M z`` with the 2n x 2n block matrix

    M = [[0, A], [C, B]]

where A is the circulant forward difference, C = diag(alpha_j), and B couples
each vehicle to itself (-beta_j) and its leader (+gamma_j).  Perturbations
live on the subspace where the headway components sum to zero; there the
spectrum of M is its full spectrum minus the structural simple eigenvalue at
zero.  No function here forms M; ``tests/oracle.py`` assembles it as the
tests' dense reference.

Because the transfer product depends only on the multiset of trios, a
:class:`Fleet` of classes ``(trios, counts)`` has its eigenvalues at the zeros
of ``1 - F`` with ``F = prod_k T_k^{n_k}``.  :func:`count_right_of` counts
them right of a vertical line by the argument principle and
:func:`rightmost_eigenvalues` locates the rightmost one of each of many fleets
by Newton's method, certified by that count; neither forms the ring matrix.
Fleets that share their trios share their array passes, in blocks of at
most ``_BLOCK_POINTS`` points, every point weighted by its own fleet's
counts.  :func:`eigenvalues` finds all 2n - 1 of them at once by
Aberth-Ehrlich iteration on ``Q (1 - F)``, ``Q = prod_k q_k^(n_k)``, in
O(n) memory, and returns only a spectrum that :func:`misfit` certifies by
the same counts.

The ring of n vehicles in order, :class:`RingSystem`, with its spectrum
:func:`eigenvalues_on_H` and its :func:`transfer_product`, stays only because
``bench/workloads.py`` calls it; no library function does.  Both answer from
the ring's class counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numerics import ABSCISSA_TOL, check_rates, checked_counts, largest_remainder, whole_number
from .errors import PoleError
from .linearize import LinearTrio


def _site_order(count: np.ndarray) -> np.ndarray:
    """The orders ``n_k``, ``-n_k``, ``-n_k`` of F at each class's zero and poles, for the weights ``count``."""
    return np.vstack((count, -count, -count))


@dataclass(frozen=True, eq=False)
class Fleet:
    """The vehicles of a ring as classes: ``counts[k]`` vehicles share ``trios[k]``.

    The spectrum depends on this multiset and never on the ordering.  Classes
    with count zero are dropped.  The K remaining classes are also held as
    read-only ``(K, 1)`` columns ``alpha``, ``beta``, ``gamma`` and ``count``;
    ``roots`` holds the two roots of each ``q_k = lam^2 + beta_k lam + alpha_k``,
    and the ``(3K, 1)`` columns ``sites`` and ``order`` hold each class's zero
    ``-alpha_k/gamma_k`` of F and then its two poles, of order ``+n_k`` and ``-n_k``.
    """

    trios: tuple[LinearTrio, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        whole = [whole_number(c, f"counts[{k}]", least=0) for k, c in enumerate(self.counts)]
        kept = [(t, c) for t, c in zip(self.trios, checked_counts(self.trios, whole)) if c > 0]
        if not kept:
            raise ValueError("a ring system needs at least one vehicle")
        rows = [(t.alpha, t.beta, t.gamma, float(c)) for t, c in kept]
        alpha, beta, gamma, count = (np.array(col)[:, None] for col in zip(*rows))
        disc = np.sqrt((beta * beta - 4.0 * alpha).astype(complex))
        big = (-beta - disc) / 2.0
        # a real pair's small root is alpha / big: -beta + disc cancels where beta^2 >> alpha
        roots = np.hstack([np.where(disc.imag == 0.0, alpha / big.real, (-beta + disc) / 2.0), big])
        sites = np.vstack((-alpha / gamma, roots[:, :1], roots[:, 1:]))
        order = _site_order(count)
        cols = dict(alpha=alpha, beta=beta, gamma=gamma, count=count, roots=roots, sites=sites, order=order)
        for col in cols.values():
            col.flags.writeable = False
        trios, counts = zip(*kept)
        # set once, past the frozen __setattr__
        vars(self).update(trios=trios, counts=counts, **cols)

    @classmethod
    def from_rates(cls, trios: Sequence[LinearTrio], rates: Sequence[float], n: int) -> Fleet:
        """``n`` vehicles (a :func:`whole_number`) split over ``trios`` by ``rates``, rounded by largest remainder."""
        check_rates(rates)
        return cls(trios, largest_remainder(rates, whole_number(n, "n")))

    def transfer(self, z) -> np.ndarray:
        """``F(z) = prod_k T_k(z)^(n_k)`` at each of the points ``z``, as ``exp`` of :func:`_log_product`.

        The sum of logs cannot overflow or underflow as a product of n factors
        would, and is exactly zero at ``z = 0``.  Raises :class:`PoleError` at a pole.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        q = z * z + self.beta * z + self.alpha
        if not q.all():
            raise PoleError(f"transfer product evaluated at pole z={z[(q == 0).any(axis=0)][0]}")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g_re, g_im = _log_product(self, z)
            return np.exp(g_re + 1j * g_im)

    def root_error(self, lam) -> np.ndarray:
        """First-order distance from each of the points ``lam`` to the nearest eigenvalue.

        This is the length of the Newton step on ``log F - 2 pi i m``, however
        steep F is there; ``inf`` where the step reaches beyond a tenth of the
        distance to the nearest zero or pole of F, where it measures nothing.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.abs(_newton_step(self, lam))
            reach = 0.1 * np.abs(lam - self.sites).min(axis=0)
        return np.where(step <= reach, step, np.inf)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues on the zero-sum-headway subspace (2n-1 values, sorted)."""

    eigenvalues: np.ndarray
    abscissa: float


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
# Newton seeds sit where the phase of F crosses a multiple of this; eigenvalues
# near the axis sit at multiples of 2 pi, the extra seeds serve small fleets
_SEED_PHASE = math.pi / 2
# |T_k| below this: 1 + u_k cancels next to the zero of p_k, log p_k - log q_k does not
_DIRECT_BELOW = 0.5
_NEWTON_ITERS = 60
_NEWTON_RESIDUAL = 1e-9
# most points in one array pass of the line sampling, and most initial grid points (or Newton
# seeds) in one block of fleets; a sweep peaks 1.7 MB above one size at a time, 4 MB at 8192
_BLOCK_POINTS = 4096
# a line with more unresolved intervals than this per initial grid point is given up; resolved
# lines stay below 0.3, and one whose phase no grid resolves grows fourfold a round
_REFINE_BUDGET = 4


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _log_factors(fleet: Fleet, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log|T_k|`` and the principal ``arg T_k`` of each class's factor at the points ``lam``.

    Each factor is written ``T_k = 1 + u_k`` with ``u_k = lam (gamma_k -
    beta_k - lam) / q_k(lam)``, so the logs stay accurate next to the
    structural zero, where every ``T_k`` is close to one; where ``|T_k| <
    _DIRECT_BELOW`` they are ``log p_k - log q_k``, ``p_k = gamma_k lam + alpha_k``.
    """
    q = lam * (lam + fleet.beta) + fleet.alpha
    u = lam * (fleet.gamma - fleet.beta - lam) / q
    near = np.abs(1.0 + u) < _DIRECT_BELOW
    with np.errstate(divide="ignore", invalid="ignore"):  # replaced where near
        log_abs = 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag * u.imag)
    arg = np.arctan2(u.imag, 1.0 + u.real)
    log_t = np.log((fleet.gamma * lam + fleet.alpha)[near]) - np.log(q[near])
    log_abs[near], arg[near] = log_t.real, log_t.imag
    return log_abs, arg


def _log_product(fleet: Fleet, lam: np.ndarray, count=None) -> tuple[np.ndarray, np.ndarray]:
    """``log|F|`` and ``Im log F`` (modulo 2 pi) at ``lam``; see :func:`_log_factors`.

    The classes are weighted by ``fleet.count``, or by ``count``, one column per point.
    """
    log_abs, arg = _log_factors(fleet, lam)
    count = fleet.count if count is None else count
    return (count * log_abs).sum(axis=0), (count * arg).sum(axis=0)


def _one_minus_exp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``1 - e^(a+ib) = -(expm1(a) cos b - 2 sin^2(b/2)) - i e^a sin b``, exact near ``a = b = 0``."""
    half = np.sin(0.5 * b)
    return (2.0 * half * half - np.expm1(a) * np.cos(b)) - 1j * (np.exp(a) * np.sin(b))


def _arg_one_minus_exp(g_re: np.ndarray, g_im: np.ndarray) -> np.ndarray:
    """Principal ``arg(1 - e^g)``; taken via ``-e^g (1 - e^-g)`` where ``|e^g| > 1``."""
    big = g_re > 0.0
    phi = np.angle(_one_minus_exp(np.where(big, -g_re, g_re), np.where(big, -g_im, g_im)))
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


def _zero_cluster(d: float, x_tail: float) -> np.ndarray:
    """Heights from ``d / _SPLIT`` up to ``x_tail``, each at most ``_SPLIT`` times the one before.

    A line ``Re(lambda) = s`` passes ``d = |s|`` from the structural zero, and the phase of
    ``1 - F`` along it turns by about pi/2 within ``x ~ d``.  These points resolve that turn in
    the initial grid; refinement alone comes only ``_SPLIT`` times closer to it a round.  Empty
    for ``d = 0`` and for ``d / _SPLIT >= x_tail``.
    """
    if not 0.0 < d < _SPLIT * x_tail:
        return np.zeros(0)
    return np.geomspace(d / _SPLIT, x_tail, math.ceil(math.log(_SPLIT * x_tail / d, _SPLIT)) + 1)


def _blocks(fleets: Sequence[Fleet], sizes: Sequence[int]) -> list[list[int]]:
    """Runs of indices into ``fleets`` that share their trios, ``sizes`` summing to at most ``_BLOCK_POINTS``.

    An item larger than that runs alone.
    """
    runs: dict = {}
    for i, fleet in enumerate(fleets):
        run = runs.setdefault(fleet.trios, [[]])
        if run[-1] and sum(sizes[j] for j in run[-1]) + sizes[i] > _BLOCK_POINTS:
            run.append([])
        run[-1].append(i)
    return [blk for run in runs.values() for blk in run]


def _unwrap(result):
    if isinstance(result, Exception):
        raise result
    return result


def _resolve_lines(lines: Sequence[tuple[Fleet, float]]) -> list:
    """Per line ``(fleet, s)``, intervals covering ``s + ix``, ``0 <= x <= x_tail``, fine enough to count on.

    A line's initial grid is uniform, log-spaced from ``x_tail * 1e-6`` and
    clustered toward the structural zero (see :func:`_zero_cluster`).
    Unresolved intervals are cut into ``_SPLIT`` pieces, round after round,
    until none is left or a line has more than ``_REFINE_BUDGET`` per initial
    grid point; each round evaluates only the new points, one array pass for a
    block of lines (see :func:`_blocks`).  Returns per line, per interval in no
    particular order, its ends, the exact increment of ``Im log F`` and the
    increment of ``arg(1 - F)``, followed by ``arg(1 - F)`` at ``x_tail``; or a
    ``FloatingPointError``.  A line at ``s = 0`` passes through the structural
    zero, where ``arg(1 - F)`` cannot be resolved: there only the continuous
    phase of F is, on every other line ``arg(1 - F)`` too.
    """
    fleets = [fleet for fleet, _ in lines]
    out: list = [None] * len(lines)
    for blk in _blocks(fleets, [4 * int(f.count.sum()) + 129 for f in fleets]):
        fleet, counts = fleets[blk[0]], np.hstack([fleets[i].count for i in blk])
        s, order = np.array([lines[i][1] for i in blk], dtype=float), _site_order(counts)

        def sample(ln, x):
            rows = []
            for i in range(0, x.size, _BLOCK_POINTS):
                j, xi = ln[i : i + _BLOCK_POINTS], x[i : i + _BLOCK_POINTS]
                g_re, g_im = _log_product(fleet, s[j] + 1j * xi, counts[:, j])
                angles = np.arctan2(xi - fleet.sites.imag, s[j] - fleet.sites.real)
                rows.append(np.vstack((g_re, _arg_one_minus_exp(g_re, g_im), angles)))
            return np.hstack(rows)

        x_tail = _tail_start(fleet)
        fixed = np.concatenate(([0.0], np.geomspace(x_tail * 1e-6, x_tail, 64)))
        grids = [np.linspace(0.0, x_tail, 4 * int(fleets[i].count.sum()) + 64) for i in blk]
        grids = [np.sort(np.concatenate((fixed, _zero_cluster(abs(d), x_tail), x))) for d, x in zip(s, grids)]
        # np.unique would import numpy.ma
        grids = [x[np.concatenate(([True], x[1:] != x[:-1]))] for x in grids]
        ln = np.repeat(np.arange(len(blk)), [x.size for x in grids])
        budget, x = _REFINE_BUDGET * np.bincount(ln), np.concatenate(grids)
        failed, done = np.zeros(len(blk), dtype=bool), []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            data = sample(ln, x)
            arg_tail = data[1, np.append(np.flatnonzero(ln[1:] != ln[:-1]), -1)]
            a = np.flatnonzero(ln[1:] == ln[:-1])  # left end of each interval
            xa, xb, da, db, ln = x[a], x[a + 1], data[:, a], data[:, a + 1], ln[a]
            for rnd in range(_MAX_ROUNDS):
                d_phase = (order[:, ln] * _wrap(db[2:] - da[2:])).sum(axis=0)
                d_arg = _wrap(db[1] - da[1])
                # where |F| is negligible at both ends, 1 - F stays next to 1 whatever
                # the phase of F does (F vanishes at -alpha/gamma, which a line may cross)
                bad = ~(np.abs(d_phase) <= _MAX_PHASE_STEP)
                bad &= np.maximum(da[0], db[0]) > _NEGLIGIBLE_LOG
                near_unit = np.minimum(np.abs(da[0]), np.abs(db[0])) < _NEAR_UNIT_LOG
                winding = ~(np.abs(d_arg) <= _MAX_PHASE_STEP)
                winding |= near_unit & ~(np.abs(db[0] - da[0]) <= _MAX_PHASE_STEP)
                bad |= winding & (s[ln] != 0.0)
                ok = ~bad
                done.append((ln[ok], xa[ok], xb[ok], d_phase[ok], d_arg[ok]))
                lo, hi = xa[bad], xb[bad]
                cut = lo + np.outer(_SPLIT_AT, hi - lo)  # (_SPLIT - 1, m) inner points
                stuck = (cut[0] <= lo) | (cut[-1] >= hi) | (cut[1:] <= cut[:-1]).any(axis=0)
                failed[ln[bad][stuck]] = True
                failed |= np.bincount(ln[bad], minlength=len(blk)) > (budget if rnd < _MAX_ROUNDS - 1 else 0)
                live = ~failed[ln[bad]]
                if not live.any():
                    break
                idx = np.flatnonzero(bad)[live]
                lo, hi, cut, line = lo[live], hi[live], cut[:, live], ln[idx]
                xs = np.vstack((lo, cut, hi))
                inner = sample(np.tile(line, _SPLIT - 1), cut.ravel()).reshape(-1, *cut.shape)
                ds = np.concatenate((da[:, None, idx], inner, db[:, None, idx]), axis=1)
                xa, xb, ln = xs[:-1].ravel(), xs[1:].ravel(), np.tile(line, _SPLIT)
                da, db = ds[:, :-1].reshape(len(ds), -1), ds[:, 1:].reshape(len(ds), -1)
        ln, *cols = (np.concatenate(col) for col in zip(*done))
        for j, i in enumerate(blk):
            out[i] = (*(col[ln == j] for col in cols), float(arg_tail[j]))
            if failed[j]:
                message = f"phase of 1 - F along Re(lambda) = {lines[i][1]} could not be resolved"
                out[i] = FloatingPointError(message)
    return out


def _line_counts(lines: Sequence[tuple[Fleet, float]]) -> list:
    """:func:`count_right_of` for each ``(fleet, s)`` of ``lines``, all resolved at once.

    A line that fails holds its exception in place of its count.
    """
    out = []
    for (fleet, s), res in zip(lines, _resolve_lines(lines)):
        if np.any(fleet.roots.real == s):
            res = PoleError(f"the line Re(lambda) = {s} passes through a pole")
        elif not isinstance(res, Exception):
            # arg(1 - F) tends to 0 beyond the tail start, where Re(1 - F) > 0
            half_turns = (math.fsum(res[3]) - res[4]) / math.pi
            k = round(half_turns)
            poles_right = int((fleet.count * (fleet.roots.real > s)).sum())
            res = poles_right - k - int(s < 0.0) if abs(half_turns - k) <= _TURN_SLACK else FloatingPointError(
                f"winding along Re(lambda) = {s} is not a whole count"
            )
        out.append(res)
    return out


def count_right_of(fleet: Fleet, s: float) -> int:
    """Number of eigenvalues with ``Re(lambda) > s``, the structural zero excluded.

    The answer holds for every ordering of the ring.  Eigenvalues are the
    zeros of ``1 - F``; the argument principle on the half plane right of the
    line gives their number as the winding of ``1 - F`` along the line (taken
    on ``x >= 0`` and doubled by conjugate symmetry) plus the poles of F right
    of the line, ``n_k`` at each root of ``q_k`` there.  The zero at the
    origin is subtracted when ``s < 0``; ``s = 0`` is refused, since the line
    passes through it, and so is a non-finite ``s``.  Raises :class:`PoleError`
    if the line passes through a pole and ``FloatingPointError`` if the phase
    cannot be resolved.
    """
    s = float(s)
    if s == 0.0:
        raise ValueError("the line Re(lambda) = 0 passes through the structural zero")
    if not math.isfinite(s):
        raise ValueError(f"the line Re(lambda) = {s} is not finite")
    return _unwrap(_line_counts([(fleet, s)])[0])


def _newton_step(fleet: Fleet, lam: np.ndarray, count=None) -> np.ndarray:
    """Newton step on ``log F - 2 pi i m`` at ``lam``, ``m`` the nearest branch; see :func:`_log_product`."""
    count = fleet.count if count is None else count
    g_re, g_im = _log_product(fleet, lam, count)
    dg = (_site_order(count) / (lam - fleet.sites)).sum(axis=0)
    return (g_re + 1j * _wrap(g_im)) / dg


def _newton(fleet: Fleet, lam: np.ndarray, counts: np.ndarray, ln: np.ndarray, iters: int) -> np.ndarray:
    """Up to ``iters`` Newton steps on ``log F - 2 pi i m`` from each of ``lam``, of fleet ``counts[:, ln]``.

    A fleet's iterates stop once none of its steps is above rounding;
    iterates that meet a zero or pole of F turn NaN.
    """
    lam, live = lam.copy(), np.ones(lam.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iters):
            if not live.any():
                break
            i = np.flatnonzero(live)
            step = _newton_step(fleet, lam[i], counts[:, ln[i]])
            lam[i] -= step
            moving = np.bincount(ln[i], np.abs(step) > 4e-16 * (1.0 + np.abs(lam[i])), counts.shape[1])
            live[i] = moving[ln[i]] > 0
    return lam


def _newton_roots(fleet: Fleet, lam: np.ndarray, counts: np.ndarray, ln: np.ndarray) -> tuple:
    """Roots of ``F = 1`` reached by :func:`_newton` from each seed, with their ``ln``.

    The branch ``m`` is whichever is nearest at each step, so every converged
    iterate is an eigenvalue; seeds that diverge or stall are dropped.
    """
    lam = _newton(fleet, lam, counts, ln, _NEWTON_ITERS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g_re, g_im = _log_product(fleet, lam, counts[:, ln])
        keep = np.abs(g_re + 1j * _wrap(g_im)) <= _NEWTON_RESIDUAL
    return lam[keep], ln[keep]


def _axis_seeds(axis: tuple) -> np.ndarray:
    """Points ``ix``, ``x > 0``, where ``Im log F(ix)`` crosses a multiple of pi/2 on the resolved ``axis``."""
    xa, xb, d_phase, _, _ = axis
    order = np.argsort(xa)
    x = np.append(xa[order], xb[order[-1]])
    phase = np.concatenate(([0.0], np.cumsum(d_phase[order])))  # F(0) = 1
    turns = np.floor(phase / _SEED_PHASE)
    i = np.flatnonzero(turns[1:] != turns[:-1])
    level = _SEED_PHASE * np.maximum(turns[i], turns[i + 1])
    x_cross = x[i] + (level - phase[i]) / (phase[i + 1] - phase[i]) * (x[i + 1] - x[i])
    return 1j * x_cross[x_cross > 0.0]


def _one_class_roots(alpha, beta, gamma, n: int, m: np.ndarray) -> np.ndarray:
    """The eigenvalues of a ring of ``n`` vehicles of one trio on the branches ``m``.

    They are the roots of ``w lam^2 + (w beta - gamma) lam + alpha (w - 1) =
    0``, ``w = e^(2 pi i m / n)``: first the ``+`` root of each branch, then the
    ``-`` root.  Branch 0 holds the structural zero and ``gamma - beta``.
    """
    w = np.exp(2j * math.pi * m / n)
    b = w * beta - gamma
    root = np.sqrt(b * b - 4.0 * w * alpha * (w - 1.0))
    return np.concatenate(((-b + root) / (2.0 * w), (-b - root) / (2.0 * w)))


def _zero_gap(fleet: Fleet) -> float:
    """Distance from the origin within which a root of ``F = 1`` is the structural zero.

    Next to the origin ``F(lam) - 1 ~ F'(0) lam``, and the nearest other root
    is about ``2 pi / |F'(0)|`` away.
    """
    slope0 = abs(float((fleet.count * (fleet.gamma - fleet.beta) / fleet.alpha).sum()))
    return 1e-6 * 2.0 * math.pi / slope0


def _cert_lines(abscissa: float) -> tuple[float, float]:
    """The lines ``Re(lambda) = abscissa +- d``, ``d = _CERT_RTOL max(1, |abscissa|)``, that certify it.

    See :func:`_certifies`; a line through the structural zero moves to ``+-d/2``.
    """
    d = _CERT_RTOL * max(1.0, abs(abscissa))
    return abscissa + d or 0.5 * d, abscissa - d or -0.5 * d


def _certifies(n_above, n_below) -> bool:
    """Whether the counts right of the two lines of :func:`_cert_lines` fix the abscissa to within ``d``.

    They do when none lies right of the upper line and some right of the
    lower.  A failed count raises; the lower one only once the upper is zero.
    """
    return _unwrap(n_above) == 0 and _unwrap(n_below) >= 1


def rightmost_eigenvalues(fleets: Sequence[Fleet]) -> list[complex]:
    """The eigenvalue of largest real part of the ring of each of ``fleets``, but the structural zero.

    The real part, the spectral abscissa, is the same for every ordering; the
    imaginary part, taken ``>= 0``, is the angular frequency of the
    fastest-growing (or slowest-decaying) wave.  Newton on ``log F = 2 pi i
    m`` starts from all fleets' seeds at once: for one class its eigenvalues
    in closed form, else every crossing of a multiple of pi/2 by the phase of
    F along the imaginary axis.  The rightmost root ``a`` is certified by two
    counts, all fleets' taken at once: none right of ``Re a + d``, some right
    of ``Re a - d``, ``d = 1e-10 max(1, |Re a|)``.  Failing that, or with no
    root found, the top of the class-count spectrum is taken once
    :func:`_certified` certifies it alone.  Of fleets that fail, the first raises.
    """
    fleets = list(fleets)
    multi = [i for i, f in enumerate(fleets) if len(f.counts) > 1]
    axes = dict(zip(multi, _resolve_lines([(fleets[i], 0.0) for i in multi])))
    seeds = []
    for i, f in enumerate(fleets):
        if i not in axes:
            (n,) = f.counts
            seeds.append(_one_class_roots(f.alpha[0], f.beta[0], f.gamma[0], n, np.arange(n // 2 + 1)))
        elif isinstance(axes[i], Exception):
            seeds.append(np.zeros(0))
        else:  # a real eigenvalue has no axis crossing: each class adds its real root
            seeds.append(np.concatenate((_axis_seeds(axes[i]), (f.gamma - f.beta).ravel())))
    tops = {}
    for blk in _blocks(fleets, [seed.size for seed in seeds]):
        ln = np.repeat(np.arange(len(blk)), [seeds[i].size for i in blk])
        lam = np.concatenate([seeds[i] for i in blk]).astype(complex)
        roots, ln = _newton_roots(fleets[blk[0]], lam, np.hstack([fleets[i].count for i in blk]), ln)
        for j, i in enumerate(blk):
            r = roots[(ln == j) & (np.abs(roots) > _zero_gap(fleets[i]))]
            if r.size:
                tops[i] = complex(r[np.argmax(r.real)])
    counts = _line_counts([(fleets[i], s) for i in tops for s in _cert_lines(tops[i].real)])
    cert = dict(zip(tops, zip(counts[::2], counts[1::2])))
    out = []
    for i, fleet in enumerate(fleets):  # in order, so that the first failure is raised
        if i in cert and _certifies(*cert[i]):
            top = tops[i]
        else:
            report = _certified(fleet, top=True)
            top = report.eigenvalues[report.eigenvalues.real == report.abscissa][0]
        # F is real, so the conjugate of an eigenvalue is one too
        out.append(complex(top.real, abs(top.imag)))
    return out


def rightmost_eigenvalue(fleet: Fleet) -> complex:
    """Eigenvalue of largest real part of the ring of ``fleet``; see :func:`rightmost_eigenvalues`."""
    return rightmost_eigenvalues([fleet])[0]


# The whole spectrum: Aberth-Ehrlich iteration on P = Q (1 - F), Q = prod_k q_k^(n_k),
# a polynomial of degree 2n whose roots are the structural zero and the 2n - 1 eigenvalues.

# Newton steps that polish the closed-form seeds before the iteration
_POLISH_ITERS = 8
# a polished seed whose root_error is below this, relative to |lambda|, holds its root
_HELD_RTOL = 1e-10
# an m-fold zero or pole of F gets its leading-order root circle as seeds when the
# circle's radius is below this share of the distance to the nearest other site
_CIRCLE_GAP = 0.5
# the iteration stops after the work of this many sweeps over all 2n - 1 iterates; on 3,600
# random 1-3-class fleets of up to 384 vehicles the most a certified fleet used was 168, and 39
# used more than 100, each of them certified by dense eigvals too
_ABERTH_SWEEPS = 300
# seeds that hold no root restart on a circle this many times the radius of all the others
_RESEED_REACH = 1.2
# an iterate settles once its Newton ratio and its Aberth step are both below this, relative to |lambda|
_ABERTH_RTOL = 1e-12
# complex entries in one block of pairwise differences (1 MiB)
_ABERTH_BLOCK = 1 << 16
# a value whose root_error is not below this, relative to |lambda|, is no eigenvalue
_MISFIT_RTOL = 1e-6


def coincident(lam: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Mask of the values within ``radius_i + radius_j`` of another value ``lam_j`` before them.

    "Before" is in order of real part; of a coinciding pair or group, all but
    one are marked.  Only values whose real parts lie within
    ``radius_i + max(radius)`` of each other are compared, so no ``n x n``
    array is formed.
    """
    order = np.argsort(lam.real)
    x, r = lam[order], radius[order]
    pos = np.arange(x.size)
    reach = np.searchsorted(x.real, x.real + r + r.max(initial=0.0), side="right")
    marked = np.zeros(x.size, dtype=bool)
    for k in range(1, int((reach - pos).max(initial=1))):
        i = np.flatnonzero(pos + k < reach)
        marked[i[np.abs(x[i] - x[i + k]) <= r[i] + r[i + k]] + k] = True
    out = np.empty_like(marked)
    out[order] = marked
    return out


def _newton_ratio(fleet: Fleet, lam: np.ndarray) -> np.ndarray:
    """``P / P'`` at ``lam``, written ``(1 - F) / ((1 - F)(log Q)' - F (log F)')``.

    Where ``|F| > 1`` numerator and denominator are divided by F.  ``1 - F``
    is exact next to a root, so the ratio is exactly zero at one and finite
    next to a pole.
    """
    g_re, g_im = _log_product(fleet, lam)
    flip = g_re > 0.0
    a, b = np.where(flip, -g_re, g_re), _wrap(np.where(flip, -g_im, g_im))
    one_minus = _one_minus_exp(a, b)
    terms = fleet.order / (lam - fleet.sites)
    d_log_f = terms.sum(axis=0)
    d_log_q = -terms[len(fleet.counts) :].sum(axis=0)
    f = np.where(flip, -1.0, np.exp(a + 1j * b))
    return one_minus / (one_minus * d_log_q - f * d_log_f)


def _root_circles(fleet: Fleet) -> list[tuple[complex, float, np.ndarray]]:
    """Leading-order seeds for the roots next to each zero or pole of F of order ``m >= 2``.

    Next to a site s of order ``o = +-m``, ``F ~ C (lam - s)^o``, so its m
    roots lie near the circle ``s + C^(-1/o)``.  Returns ``(s, radius,
    points)`` for each site whose radius is below ``_CIRCLE_GAP`` times its
    distance to the nearest other site, where the leading order holds.
    """
    k = len(fleet.counts)
    sites = fleet.sites[:, 0]
    z, r1, r2 = sites[:k, None], fleet.roots[:, :1], fleet.roots[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_abs, arg = _log_factors(fleet, sites)  # (K, 3K)
        own = np.arange(3 * k) % k == np.arange(k)[:, None]
        rest = np.where(own, 0.0, fleet.count * (log_abs + 1j * arg)).sum(axis=0)
        # each class's own factor less its vanishing or diverging part
        own_log = np.vstack(
            (
                np.log(fleet.gamma) - np.log(z * (z + fleet.beta) + fleet.alpha),
                np.log(fleet.gamma * r1 + fleet.alpha) - np.log(r1 - r2),
                np.log(fleet.gamma * r2 + fleet.alpha) - np.log(r2 - r1),
            )
        )[:, 0]
        order = fleet.order[:, 0]
        log_c = rest + np.abs(order) * own_log
        radius = np.exp(-log_c.real / order)
        gap = np.abs(sites[:, None] - sites)
        np.fill_diagonal(gap, np.inf)
        circles = []
        for i in np.flatnonzero((np.abs(order) >= 2) & (radius < _CIRCLE_GAP * gap.min(axis=1))):
            m = int(abs(order[i]))
            points = sites[i] + np.exp(-(log_c[i] + 2j * math.pi * np.arange(m)) / order[i])
            circles.append((complex(sites[i]), float(radius[i]), points))
    return circles


def _seed_spectrum(fleet: Fleet) -> np.ndarray:
    """2n - 1 starting points for :func:`_aberth`, as many as possible already roots.

    The closed-form roots of one class with the count-weighted mean trio are
    polished by Newton on ``log F - 2 pi i m``.  A polished seed holds its
    root unless it is the structural zero or a root another seed holds
    already.  Around an m-fold zero or pole whose circle holds fewer than m
    roots, the circle's points take over.  The other seeds restart, evenly
    spread, on a circle around all the points so far: from there Aberth's
    steps are long, where among held roots they would be short.
    """
    n = int(fleet.count.sum())
    share = fleet.count / n
    mean = [float((share * col).sum()) for col in (fleet.alpha, fleet.beta, fleet.gamma)]
    # branch 0's first root is the structural zero
    seeds = _one_class_roots(*mean, n, np.arange(n))[1:]
    lam = _newton(fleet, seeds, fleet.count, np.zeros(seeds.size, dtype=int), _POLISH_ITERS)
    held = (fleet.root_error(lam) <= _HELD_RTOL * np.abs(lam)) & (np.abs(lam) > _zero_gap(fleet))
    held[held] = ~coincident(lam[held], _HELD_RTOL * np.abs(lam[held]))
    circles = []
    for site, radius, points in _root_circles(fleet):
        near = held & (np.abs(lam - site) <= 2.0 * radius)
        if near.sum() < points.size:
            held &= ~near
            circles.append(points)
    lam = np.concatenate((lam[held], *circles))[: seeds.size]
    free = seeds.size - lam.size
    centre = lam.real.mean() if lam.size else 0.0
    radius = _RESEED_REACH * np.abs(np.concatenate((lam, seeds)) - centre).max()
    # a quarter-step turn keeps the circle off the real axis
    return np.concatenate((lam, centre + radius * np.exp(2j * math.pi * (np.arange(free) + 0.25) / free)))


def _aberth(fleet: Fleet, lam: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich iteration on the roots of ``P = Q (1 - F)`` from the points ``lam``.

    Each unsettled iterate moves by ``N / (1 - N S)``, with ``N = P/P'`` and
    ``S`` the sum of ``1 / (lam_i - lam_j)`` over the other iterates and the
    structural zero, held as a known root.  Rows run in blocks of
    ``_ABERTH_BLOCK`` differences, each block updated before the next is
    formed.
    """
    lam = lam.copy()
    active = np.ones(lam.size, dtype=bool)
    rows = max(1, _ABERTH_BLOCK // lam.size)
    budget = _ABERTH_SWEEPS * lam.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while budget > 0:
            idx = np.flatnonzero(active)
            if not idx.size:
                break
            budget -= idx.size
            for start in range(0, idx.size, rows):
                blk = idx[start : start + rows]
                z = lam[blk]
                ratio = _newton_ratio(fleet, z)
                diff = z[:, None] - lam
                diff[np.arange(blk.size), blk] = np.inf
                np.reciprocal(diff, out=diff)
                step = ratio / (1.0 - ratio * (1.0 / z + diff.sum(axis=1)))
                # on a zero or pole of F the step is lost: the iterate stays there, for the certificate to judge
                lost = ~np.isfinite(step)
                lam[blk] = np.where(lost, z, z - step)
                settled = np.maximum(np.abs(step), np.abs(ratio)) <= _ABERTH_RTOL * np.abs(z)
                active[blk[settled | lost]] = False
    return lam


def _class_count_spectrum(fleet: Fleet) -> SpectrumReport:
    """All 2n - 1 eigenvalues of the ring of ``fleet``, from its class counts alone.

    They are the roots of ``P = Q (1 - F)`` but its structural zero, found by
    Aberth-Ehrlich iteration (:func:`_aberth`) from the seeds of
    :func:`_seed_spectrum`, in O(n) memory.  P is real, so the values within
    their root error of the real axis are put on it and the rest are taken
    from the upper half plane with their mirror images: the result is
    exactly closed under conjugation.  Nothing here certifies the values.
    """
    lam = _aberth(fleet, _seed_spectrum(fleet))
    slack = np.maximum(fleet.root_error(lam), 4.0 * np.finfo(float).eps * np.abs(lam))
    real = ~(np.abs(lam.imag) > slack)
    upper = lam[~real & (lam.imag > 0.0)]
    lam = np.sort_complex(np.concatenate((upper, upper.conj(), lam.real[real])))
    return SpectrumReport(eigenvalues=lam, abscissa=float(lam.real.max(initial=-np.inf)))


def misfit(fleet: Fleet, report: SpectrumReport) -> str:
    """Why ``report`` is not the spectrum of ``fleet``; empty when it is.

    It is when it holds 2n - 1 values, each with a root_error below
    ``_MISFIT_RTOL |lambda|``, no two within their root errors together
    (:func:`coincident`, so no root is counted twice), and when the two
    counts of :func:`_cert_lines` fix its abscissa: no eigenvalue right of
    the upper line, some right of the lower.  Only a report that passes the
    other checks is counted; a count that fails raises.
    """
    return _misfit(fleet, report, top=False)


def _misfit(fleet: Fleet, report: SpectrumReport, top: bool) -> str:
    """:func:`misfit`; with ``top``, of the rightmost value alone, so that a value no double resolves is no obstacle."""
    lam = report.eigenvalues[report.eigenvalues.real == report.abscissa][:1] if top else report.eigenvalues
    due = 1 if top else 2 * int(fleet.count.sum()) - 1
    err = fleet.root_error(lam)
    # strictly below: the structural zero, where root_error is 0, is no eigenvalue
    off = int((~(err < _MISFIT_RTOL * np.abs(lam))).sum())
    problems = []
    if lam.size != due:
        problems.append(f"{lam.size} values where there are {due}")
    if off:
        problems.append(f"{off} of {lam.size} miss F(lambda) = 1")
    elif shared := int(coincident(lam, err).sum()):
        problems.append(f"{shared} repeat another value's root")
    if problems:
        return ", ".join(problems)
    above, below = _cert_lines(report.abscissa)
    n_above, n_below = (_unwrap(c) for c in _line_counts([(fleet, above), (fleet, below)]))
    if not _certifies(n_above, n_below):
        return f"abscissa {report.abscissa}, with {n_above} eigenvalues right of {above} and {n_below} right of {below}"
    return ""


def _certified(fleet: Fleet, top: bool) -> SpectrumReport:
    """The class-count spectrum once it passes :func:`_misfit`; else ``FloatingPointError`` names the misfit."""
    report = _class_count_spectrum(fleet)
    if reason := _misfit(fleet, report, top):
        raise FloatingPointError(f"the class-count solver does not give the spectrum: {reason}")
    return report


def eigenvalues(fleet: Fleet) -> SpectrumReport:
    """All 2n - 1 eigenvalues of the ring of ``fleet``, certified by :func:`misfit`; see :func:`_certified`."""
    return _certified(fleet, top=False)


# The ring vehicle by vehicle, as bench/workloads.py builds it.


@dataclass(frozen=True)
class RingSystem:
    """Trios of the n vehicles in ring order, as ``bench/workloads.py`` builds them."""

    trios: tuple[LinearTrio, ...]

    def __post_init__(self):
        if len(self.trios) < 1:
            raise ValueError("a ring system needs at least one vehicle")

    @property
    def n(self) -> int:
        return len(self.trios)


def _fleet_of(ring: RingSystem) -> Fleet:
    """The ring's classes, in the order the ring meets them, with their counts."""
    counts = Counter(ring.trios)
    return Fleet(tuple(counts), tuple(counts.values()))


def eigenvalues_on_H(ring: RingSystem) -> SpectrumReport:
    """The 2n - 1 eigenvalues of ``ring`` on the zero-sum-headway subspace H; requires n >= 2.

    They are :func:`eigenvalues` of the ring's class multiset, certified by
    :func:`misfit`, so ``FloatingPointError`` where it refuses.  Kept for
    ``bench/workloads.py``, which calls it; no library function does.
    """
    if ring.n < 2:
        raise ValueError(f"ring matrix needs n >= 2 vehicles, got {ring.n}")
    return eigenvalues(_fleet_of(ring))


def transfer_product(ring: RingSystem, z: complex) -> complex:
    """Product of the per-vehicle transfer factors at ``z``: :meth:`Fleet.transfer` of the ring's classes.

    Each factor is ``(gamma_j z + alpha_j) / (z^2 + beta_j z + alpha_j)``;
    eigenvalues of the ring are exactly the points where the product equals
    one.  Kept for ``bench/workloads.py``, which calls it; no library function does.
    """
    return complex(_fleet_of(ring).transfer(z)[0])
