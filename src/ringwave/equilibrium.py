"""Equilibrium flows on a ring road.

At equilibrium every vehicle moves at a common speed ``v_bar`` and each class
keeps its zero-acceleration headway ``g(v_bar)``; the road length is the sum
of the headways around the ring.  Fixing the speed determines the length and
vice versa, so both directions are provided.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from ._numerics import checked_counts, spread
from .errors import NoEquilibriumError
from .model import BandoFtl, preferred_headway

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
        vars(self)["count"] = checked_counts((self.model,), (self.count,), whole=True)[0]


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


def equilibrium_from_velocity(comp: Composition, v_bar: float) -> EquilibriumFlow:
    """Equilibrium flow at a prescribed common speed.

    Raises :class:`NoEquilibriumError` if any class has no zero-acceleration
    headway at ``v_bar``.
    """
    h_bar = {p.class_id: preferred_headway(p.model, v_bar) for p in comp.classes}
    # fsum rounds the exact sum once, so each class's headway repeated by its count gives
    # the same bits as the sum over the vehicles in ring order
    length = math.fsum(chain.from_iterable(repeat(h_bar[p.class_id], p.count) for p in comp.classes))
    return EquilibriumFlow(v_bar=v_bar, h_bar=h_bar, length=length)


def equilibrium_from_length(comp: Composition, length: float) -> EquilibriumFlow:
    """Equilibrium flow on a ring of prescribed length.

    The total headway is strictly increasing in the common speed, so the speed
    is found by bisection until the length matches within ``LENGTH_TOL``.
    """
    if not math.isfinite(length):
        raise ValueError(f"length must be finite, got {length!r}")

    def total(v: float) -> float:
        return equilibrium_from_velocity(comp, v).length

    lo_len = total(0.0)
    # the largest speed below every present class's supremum v_max
    v_hi = min(p.model.pref.v_max for p in comp.classes) * (1.0 - 1e-12)
    hi_len = total(v_hi)
    if not (lo_len < length < hi_len):
        raise NoEquilibriumError(
            f"length {length} outside feasible interval ({lo_len}, {hi_len})"
        )
    # the excess total(v) - length is negative at lo and positive at hi; stop
    # within LENGTH_TOL, or when the midpoint meets an endpoint
    lo, hi = 0.0, v_hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        excess = total(mid) - length
        if abs(excess) <= LENGTH_TOL:
            break
        if excess < 0.0:
            lo = mid
        else:
            hi = mid
    return equilibrium_from_velocity(comp, mid)
