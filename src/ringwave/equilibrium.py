"""Equilibrium flows on a ring road.

At equilibrium every vehicle moves at a common speed ``v_bar`` and each class
keeps its zero-acceleration headway ``g(v_bar)``; the road length is the sum
of the headways around the ring.  Fixing the speed determines the length and
vice versa, so both directions are provided.  Both work from the class counts:
the length is ``sum_k n_k g_k(v_bar)``, rounded once, in O(K) for K classes
whatever the number of vehicles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._numerics import spread, whole_number
from .errors import NoEquilibriumError
from .model import _TANH2, BandoFtl, preferred_headway

# |sum of headways - L| accepted when solving for the equilibrium speed (m)
LENGTH_TOL = 1e-8


@dataclass(frozen=True)
class PopulationSpec:
    """One vehicle class: an id, its driver law, and how many are on the road (an ``int``)."""

    class_id: int
    model: BandoFtl
    count: int

    def __post_init__(self):
        # set once, past the frozen __setattr__
        vars(self)["count"] = whole_number(self.count, "count", least=0)


@dataclass(frozen=True)
class Composition:
    """Vehicle classes plus the (time-invariant) order they appear on the ring.

    ``classes`` holds the populations with at least one vehicle, in declaration
    order, and the read-only ``index`` the position in ``classes`` of each
    vehicle, in ring order.  Neither is a field: equality, hash and repr see
    only ``populations`` and ``ordering``.
    """

    populations: tuple[PopulationSpec, ...]
    ordering: tuple[int, ...]

    def __post_init__(self):
        ids = [p.class_id for p in self.populations]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate class ids: {ids}")
        classes = tuple(p for p in self.populations if p.count > 0)
        declared = {p.class_id: p.count for p in classes}
        total = sum(declared.values())
        if total < 1:
            raise ValueError("composition must contain at least one vehicle")
        if len(self.ordering) != total or Counter(self.ordering) != declared:
            raise ValueError(
                "ordering must contain each class exactly as many times as declared"
            )
        position = {p.class_id: i for i, p in enumerate(classes)}
        index = np.array([position[c] for c in self.ordering])
        index.flags.writeable = False
        # set once, past the frozen __setattr__
        vars(self).update(classes=classes, index=index)

    @property
    def n(self) -> int:
        return len(self.ordering)


def block_ordering(populations: Sequence[PopulationSpec]) -> tuple[int, ...]:
    """All vehicles of each class in one contiguous block."""
    out: list[int] = []
    for p in populations:
        out.extend([p.class_id] * p.count)
    return tuple(out)


def spread_ordering(populations: Sequence[PopulationSpec]) -> tuple[int, ...]:
    """Classes interleaved as evenly as the counts allow, ties to the lower ``class_id``; see :func:`spread`."""
    pops = sorted(populations, key=lambda p: p.class_id)
    return tuple(pops[i].class_id for i in spread([p.count for p in pops]))


@dataclass(frozen=True, eq=False)
class EquilibriumFlow:
    """Common speed, per-class headway, and the ring length they imply."""

    v_bar: float
    h_bar: Mapping[int, float]
    length: float


def _ring_length(headways: Sequence[float], counts: Sequence[int]) -> float:
    """``sum_k counts[k] * headways[k]`` rounded once: the bits ``math.fsum`` gives over the vehicles.

    Each headway is an integer over a power of two, so the sum is one integer over
    the largest denominator, and CPython rounds an int / int division correctly.
    """
    if not all(map(math.isfinite, headways)):
        return math.fsum(headways)  # an infinite or NaN headway is the sum whatever the counts
    ratios = [float(h).as_integer_ratio() for h in headways]
    den = max(d for _, d in ratios)
    return sum(n * m * (den // d) for (m, d), n in zip(ratios, counts)) / den


def equilibrium_from_velocity(comp: Composition, v_bar: float) -> EquilibriumFlow:
    """Equilibrium flow at a prescribed common speed.

    Raises :class:`NoEquilibriumError` if any class has no zero-acceleration
    headway at ``v_bar``.
    """
    h_bar = {p.class_id: preferred_headway(p.model, v_bar) for p in comp.classes}
    # the exact sum of each class's headway times its count, rounded once: the same
    # bits as the sum over the vehicles in ring order, with no per-vehicle work
    length = _ring_length(list(h_bar.values()), [p.count for p in comp.classes])
    return EquilibriumFlow(v_bar=v_bar, h_bar=h_bar, length=length)


def equilibrium_from_length(comp: Composition, length: float) -> EquilibriumFlow:
    """Equilibrium flow on a ring of prescribed length.

    The total headway is strictly increasing in the common speed, so the speed
    is found by bisection on ``[0, v_hi]``, ``v_hi`` just below the smallest
    ``v_max``, until the length matches within ``LENGTH_TOL``.  The bisection is
    replayed, not run: the speed whose preferred headway is ``length / n`` (the
    root when every class shares one preference) is evaluated, and if accepted,
    so are two probes about twice the window of accepted speeds apart around it.
    The speeds evaluated bracket the root in ``[a, b]``: excess ``total - length``
    below ``-LENGTH_TOL`` at ``a``, above ``LENGTH_TOL`` at ``b``.  The float total
    does not decrease as the speed grows, because each rounded operation of
    :func:`preferred_headway` and the once-rounded sum are monotone; so a midpoint
    outside ``(a, b)`` moves the same end as the bisection would, and only the few
    inside it are evaluated.  The result is the bisection's, bit for bit.  Where
    the preferences differ, the seed is no root and most midpoints are evaluated.
    """
    if not math.isfinite(length):
        raise ValueError(f"length must be finite, got {length!r}")
    classes = comp.classes
    counts = [p.count for p in classes]

    def total(v: float) -> float:
        return _ring_length([preferred_headway(p.model, v) for p in classes], counts)

    lo_len = total(0.0)
    # the largest speed below every present class's supremum v_max
    v_hi = min(p.model.pref.v_max for p in classes) * (1.0 - 1e-12)
    hi_len = total(v_hi)
    if not (lo_len < length < hi_len):
        raise NoEquilibriumError(f"length {length} outside feasible interval ({lo_len}, {hi_len})")
    pref = classes[0].model.pref
    x = (length / sum(counts) - pref.l_v) / pref.d0 - 2.0
    v = min(max(pref.v_max * (math.tanh(x) + _TANH2) / (1.0 + _TANH2), 0.0), v_hi)
    probed = {v: total(v) - length}
    if abs(probed[v]) <= LENGTH_TOL:
        # d total / dv = sum_k n_k d0 (1 + tanh 2) / (v_max (1 - t_k^2)), t_k as in preferred_headway
        slope = 0.0
        for p, n in zip(classes, counts):
            q, t = p.model.pref, v * (1.0 + _TANH2) / p.model.pref.v_max - _TANH2
            slope += n * q.d0 * (1.0 + _TANH2) / (q.v_max * (1.0 - t * t))
        # probes about twice the window of accepted speeds apart, and at least one ulp out: where the
        # window is narrower, the next float is past it; the slope is 0 only if every d0 is subnormal
        half = max((2.0 * LENGTH_TOL + abs(probed[v])) / (slope or math.inf), math.ulp(v))
        probed.update((end, total(end) - length) for end in (v - half, v + half) if 0.0 < end < v_hi)
    a = max([0.0] + [u for u, e in probed.items() if e < -LENGTH_TOL])
    b = min([v_hi] + [u for u, e in probed.items() if e > LENGTH_TOL])
    # the excess total(v) - length is negative at lo and positive at hi; stop
    # within LENGTH_TOL, or when the midpoint meets an endpoint
    lo, hi = 0.0, v_hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        # outside (a, b) only the excess's sign is used, and it is known
        excess = total(mid) - length if a < mid < b else (-math.inf if mid <= a else math.inf)
        if abs(excess) <= LENGTH_TOL:
            break
        if excess < 0.0:
            lo = mid
        else:
            hi = mid
    return equilibrium_from_velocity(comp, mid)
