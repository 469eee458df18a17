"""Small scalar-search and rounding helpers used across modules."""

from __future__ import annotations

import math
from typing import Callable, Sequence

# cap on halvings; a bracket spanning a few binades reaches machine precision in about 60
_BISECT_MAX_ITER = 200


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
