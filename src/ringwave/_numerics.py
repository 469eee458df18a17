"""Share checks, rounding and interleaving helpers used across modules."""

from __future__ import annotations

import math
from typing import Sequence

# spectral abscissa above this counts as unstable in sweeps; served as
# ``spectrum.ABSCISSA_TOL`` and ``stability.ABSCISSA_TOL``, so neither loads the other
ABSCISSA_TOL = 1e-9


def check_rates(rates: Sequence[float]) -> None:
    """Refuse shares that are negative or do not sum to 1."""
    if any(r < 0 for r in rates) or not math.isclose(sum(rates), 1.0, abs_tol=1e-9):
        raise ValueError("rates must be nonnegative and sum to 1")


def _finite(x) -> bool:
    """``math.isfinite(x)``, and False for an int too large for a double."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def checked_counts(classes: Sequence, counts: Sequence[float], whole: bool = False) -> list:
    """``counts``, one per class, each finite and >= 0; with ``whole``, whole numbers returned as ints.

    A margin weighs real counts; vehicles are counted in whole numbers, so an
    integral float such as 2.0 reads as 2.  ``ValueError`` for lists that do
    not match one to one, are empty, or hold any other count, an int beyond
    the largest double included.
    """
    if len(classes) != len(counts) or len(counts) == 0:
        raise ValueError("need matching, nonempty class and count lists")
    if not all(c >= 0 and _finite(c) and (not whole or float(c).is_integer()) for c in counts):
        what = "whole numbers" if whole else "numbers"
        raise ValueError(f"counts must be finite, nonnegative {what}, got {list(counts)}")
    return [int(c) for c in counts] if whole else list(counts)


def whole_number(n, name: str) -> int:
    """``n`` as an int: a whole number such as 12.0 reads as 12.  ``ValueError`` for any other value,
    an int beyond the largest double included."""
    if not (_finite(n) and float(n).is_integer()):
        raise ValueError(f"{name} must be a finite whole number, got {n!r}")
    return int(n)


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


def spread(counts: Sequence[int]) -> list[int]:
    """Each index ``i`` of ``counts`` ``counts[i]`` times, interleaved as evenly as the counts allow.

    Place ``j`` goes to the index furthest behind its share ``counts[i] j / total``; the leads
    sum to 1, so a count of 0 is never ahead.  Ties go to the larger count, then the lower index:
    the indices are visited in that order and only a strictly larger lead takes the place.
    """
    total = sum(counts)
    order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
    placed = [0] * len(counts)
    out = []
    for j in range(1, total + 1):
        best, lead = -1, -math.inf
        for i in order:
            if (d := counts[i] * j / total - placed[i]) > lead:
                best, lead = i, d
        placed[best] += 1
        out.append(best)
    return out
