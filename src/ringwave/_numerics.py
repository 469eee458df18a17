"""Small scalar-search and rounding helpers used across modules."""

from __future__ import annotations

import math
from typing import Callable, Sequence

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

# cap on halvings; a bracket spanning a few binades reaches machine precision in about 60
_BISECT_MAX_ITER = 200

# golden-section search stops once the bracket is this fraction of its larger end
_GOLDEN_RTOL = 1e-10


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_lo: float | None = None,
    f_hi: float | None = None,
    ftol: float = 0.0,
) -> float:
    """Bisection root of ``fn`` on [lo, hi]; the endpoint values must straddle zero.

    Stops when ``|fn(mid)| <= ftol`` or when the midpoint can no longer be
    distinguished from an endpoint (machine precision).
    """
    flo = fn(lo) if f_lo is None else f_lo
    if flo == 0.0:
        return lo
    fhi = fn(hi) if f_hi is None else f_hi
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = fn(mid)
        if fm == 0.0 or (ftol and abs(fm) <= ftol):
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def golden_max(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section maximization of ``fn`` on [a, b]; returns (x, fn(x))."""
    if not b > a:
        raise ValueError("empty bracket")
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = fn(c)
    fd = fn(d)
    while h > _GOLDEN_RTOL * max(abs(a), abs(b), 1e-300):
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = fn(d)
        if c >= d:  # bracket exhausted at float resolution
            break
    return (c, fc) if fc > fd else (d, fd)


def check_rates(rates: Sequence[float]) -> None:
    """Refuse shares that are negative or do not sum to 1."""
    if any(r < 0 for r in rates) or not math.isclose(sum(rates), 1.0, abs_tol=1e-9):
        raise ValueError("rates must be nonnegative and sum to 1")


def largest_remainder(rates: Sequence[float], total: int) -> list[int]:
    """Round ``rates * total`` to integers that sum exactly to ``total``."""
    raw = [r * total for r in rates]
    base = [math.floor(x) for x in raw]
    short = total - sum(base)
    # ties broken by lower index for determinism
    order = sorted(range(len(rates)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base
