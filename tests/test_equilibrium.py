import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringwave import (
    BandoFtl,
    Composition,
    NoEquilibriumError,
    PopulationSpec,
    VelocityPreference,
    block_ordering,
    equilibrium_from_length,
    equilibrium_from_velocity,
    eval_preference,
    preferred_headway,
    spread_ordering,
)

import ringwave.equilibrium as equilibrium
from ringwave._numerics import spread

from conftest import REF_HEADWAY, composition_of, design_scan_scenarios
from oracle import bisection_speed, spread_by_max, vehicle_length

PREF = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
OTHER_PREF = VelocityPreference(v_max=11.0, l_v=5.0, d0=3.0)


def test_single_class_length():
    model = BandoFtl(a=2.0, b=6.0, pref=PREF)
    comp = composition_of([model], [40])
    v = 4.0
    eq = equilibrium_from_velocity(comp, v)
    g = preferred_headway(model, v)
    assert eq.length == pytest.approx(40 * g, rel=1e-12)
    assert eq.h_bar[1] == g


def test_common_preference_means_common_headway():
    # different driving gains, same preferred-speed curve
    m1 = BandoFtl(a=4.0, b=20.0, pref=PREF)
    m2 = BandoFtl(a=0.5, b=20.0, pref=PREF)
    comp = composition_of([m1, m2], [7, 5])
    eq = equilibrium_from_velocity(comp, 3.7)
    assert eq.h_bar[1] == eq.h_bar[2]


def test_reference_scenario_length(ref_models, ref_v_bar):
    comp = composition_of(ref_models, [441, 59])
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    assert eq.h_bar[1] == pytest.approx(REF_HEADWAY, abs=1e-9)
    assert eq.h_bar[2] == pytest.approx(REF_HEADWAY, abs=1e-9)
    assert eq.length == pytest.approx(5200.0, abs=1e-6)
    from ringwave import accel

    for model, cid in zip(ref_models, (1, 2)):
        assert abs(accel(model, eq.h_bar[cid], 0.0, eq.v_bar)) <= 1e-9


def test_length_velocity_round_trip():
    m1 = BandoFtl(a=1.5, b=8.0, pref=PREF)
    m2 = BandoFtl(a=0.7, b=11.0, pref=OTHER_PREF)
    comp = composition_of([m1, m2], [9, 6])
    v = 3.1
    eq = equilibrium_from_velocity(comp, v)
    back = equilibrium_from_length(comp, eq.length)
    assert back.v_bar == pytest.approx(v, abs=1e-8)
    assert abs(back.length - eq.length) <= 1e-8


@st.composite
def fleets_at_speed(draw):
    """1-3 classes with their own preferences, and a speed below every v_max."""
    k = draw(st.integers(1, 3))
    models = [
        BandoFtl(
            a=draw(st.floats(0.3, 5.0)),
            b=draw(st.floats(1.0, 30.0)),
            pref=VelocityPreference(
                v_max=draw(st.floats(2.0, 40.0)),
                l_v=draw(st.floats(0.0, 8.0)),
                d0=draw(st.floats(0.5, 5.0)),
            ),
        )
        for _ in range(k)
    ]
    counts = draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    v_sup = min(m.pref.v_max for m in models)
    return composition_of(models, counts), draw(st.floats(1e-3, 0.99)) * v_sup


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(fleets_at_speed())
def test_length_velocity_round_trip_property(fleet):
    comp, v = fleet
    back = equilibrium_from_length(comp, equilibrium_from_velocity(comp, v).length)
    # the length is matched to 1e-8 m, and no preference is steeper than v_max/d0
    steepest = max(p.model.pref.v_max / p.model.pref.d0 for p in comp.populations)
    assert back.v_bar == pytest.approx(v, abs=1e-8 * steepest)


def test_unified_length_inversion():
    model = BandoFtl(a=2.0, b=6.0, pref=PREF)
    comp = composition_of([model], [25])
    v_star = 5.2
    target = 25 * preferred_headway(model, v_star)
    eq = equilibrium_from_length(comp, target)
    assert eq.v_bar == pytest.approx(v_star, abs=1e-8)


def test_infeasible_lengths_rejected():
    model = BandoFtl(a=2.0, b=6.0, pref=PREF)
    comp = composition_of([model], [10])
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_length(comp, 10 * PREF.l_v)  # packed at vehicle length
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_length(comp, 10.0)  # below any packing
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_length(comp, 1e9)


def test_velocity_out_of_range_rejected():
    m1 = BandoFtl(a=1.5, b=8.0, pref=PREF)
    comp = composition_of([m1], [3])
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_velocity(comp, PREF.v_max * 1.5)


def test_length_invariant_under_ordering_permutation():
    m1 = BandoFtl(a=4.0, b=20.0, pref=PREF)
    m2 = BandoFtl(a=0.5, b=20.0, pref=OTHER_PREF)
    rng = np.random.default_rng(11)
    base = composition_of([m1, m2], [8, 5])
    lengths = []
    for _ in range(10):
        order = rng.permutation(base.ordering)
        comp = Composition(base.populations, tuple(int(x) for x in order))
        lengths.append(equilibrium_from_velocity(comp, 4.4).length)
    assert len(set(lengths)) == 1  # the length comes from the class counts alone


def _random_composition(rng):
    """1 to 4 classes of random gains on two preferences, 1 to 10^5 vehicles in a shuffled ring."""
    k = int(rng.integers(1, 5))
    models = [BandoFtl(a=rng.uniform(0.3, 5.0), b=rng.uniform(5.0, 25.0), pref=(PREF, OTHER_PREF)[i % 2])
              for i in range(k)]
    n = max(k, int(10 ** rng.uniform(0.0, 5.0)))
    counts = [1] * k
    for c in rng.integers(0, k, n - k):
        counts[c] += 1
    order = rng.permutation([i + 1 for i, c in enumerate(counts) for _ in range(c)])
    pops = tuple(PopulationSpec(i + 1, m, c) for i, (m, c) in enumerate(zip(models, counts)))
    return Composition(pops, tuple(int(x) for x in order))


def test_length_from_class_counts_matches_the_vehicle_sum():
    rng = np.random.default_rng(19)
    for _ in range(40):
        comp = _random_composition(rng)
        v_hi = min(p.model.pref.v_max for p in comp.classes) * (1.0 - 1e-12)
        for v in rng.uniform(0.0, v_hi, 3):
            assert equilibrium_from_velocity(comp, v).length == vehicle_length(comp, v)
        # a random speed and speeds within 1e-9 of both ends, each length also moved by 1e-6 m
        lengths = [
            vehicle_length(comp, v) + d
            for v in (rng.uniform(0.05, 0.95) * v_hi, 1e-9 * v_hi, (1.0 - 1e-9) * v_hi)
            for d in (-1e-6, 0.0, 1e-6)
        ]
        lo_len, hi_len = vehicle_length(comp, 0.0), vehicle_length(comp, v_hi)
        for length in lengths:
            if lo_len < length < hi_len:
                eq = equilibrium_from_length(comp, length)
                assert eq.v_bar == bisection_speed(comp, length)
                assert eq.length == vehicle_length(comp, eq.v_bar)
            else:
                with pytest.raises(NoEquilibriumError):
                    equilibrium_from_length(comp, length)


def test_degenerate_preferences_match_the_bisection():
    # an infinite vehicle length makes every ring length infinite, and a subnormal d0
    # under a huge v_max makes the length's slope in the speed round to 0
    comp = composition_of([BandoFtl(a=1.0, b=1.0, pref=VelocityPreference(10.0, math.inf, 2.0))], [40])
    assert equilibrium_from_velocity(comp, 1.0).length == vehicle_length(comp, 1.0) == math.inf
    with pytest.raises(NoEquilibriumError):
        equilibrium_from_length(comp, 100.0)
    comp = composition_of([BandoFtl(a=1.0, b=1.0, pref=VelocityPreference(1e300, 0.0, 5e-324))], [40])
    length = 0.5 * vehicle_length(comp, 1e300 * (1.0 - 1e-12))
    assert equilibrium_from_length(comp, length).v_bar == bisection_speed(comp, length)


def test_length_from_class_counts_at_a_million_vehicles():
    m1, m2 = BandoFtl(a=4.0, b=20.0, pref=PREF), BandoFtl(a=0.5, b=20.0, pref=OTHER_PREF)
    comp = composition_of([m1, m2], [777_777, 222_223], ordering="blocks")
    for v in (0.0, 1.3, 6.7, 9.7):
        assert equilibrium_from_velocity(comp, v).length == vehicle_length(comp, v)


def test_design_scan_speeds_are_the_bisections_in_at_most_9_length_sums(monkeypatch):
    sums = []
    ring_length = equilibrium._ring_length

    def counted(*args):
        sums[-1] += 1
        return ring_length(*args)

    monkeypatch.setattr(equilibrium, "_ring_length", counted)
    scenarios = list(design_scan_scenarios(range(1, 31)))
    assert len(scenarios) == 1800
    for comp, length in scenarios:
        sums.append(0)
        eq = equilibrium_from_length(comp, length)
        v = bisection_speed(comp, length)
        assert (eq.v_bar, eq.length) == (v, vehicle_length(comp, v))
    # two for the feasible interval, the seed, two probes either side of it, the
    # midpoints inside the bracket and the result; the bisection alone sums about 34 times
    assert max(sums) <= 9


@pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
def test_a_length_that_is_not_finite_is_refused(length):
    comp = composition_of([BandoFtl(a=2.0, b=6.0, pref=PREF)], [10])
    with pytest.raises(ValueError, match="finite"):
        equilibrium_from_length(comp, length)


def test_the_ends_of_the_feasible_interval_are_refused():
    m1, m2 = BandoFtl(a=2.0, b=6.0, pref=PREF), BandoFtl(a=0.7, b=11.0, pref=OTHER_PREF)
    comp = composition_of([m1, m2], [12, 7])
    v_hi = PREF.v_max * (1.0 - 1e-12)
    for end in (vehicle_length(comp, 0.0), vehicle_length(comp, v_hi)):
        with pytest.raises(NoEquilibriumError, match="outside feasible interval"):
            equilibrium_from_length(comp, end)


def test_length_monotone_in_velocity():
    m1 = BandoFtl(a=1.5, b=8.0, pref=PREF)
    m2 = BandoFtl(a=0.7, b=11.0, pref=OTHER_PREF)
    comp = composition_of([m1, m2], [4, 4])
    vs = np.linspace(0.1, 0.9 * min(PREF.v_max, OTHER_PREF.v_max), 50)
    lengths = [equilibrium_from_velocity(comp, v).length for v in vs]
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_composition_validation():
    model = BandoFtl(a=1.0, b=1.0, pref=PREF)
    pop = PopulationSpec(class_id=1, model=model, count=3)
    with pytest.raises(ValueError):
        Composition(populations=(pop,), ordering=(1, 1))  # count mismatch
    with pytest.raises(ValueError):
        Composition(populations=(pop,), ordering=(1, 1, 2))  # undeclared class
    with pytest.raises(ValueError):
        Composition(populations=(pop, pop), ordering=(1, 1, 1))  # duplicate id
    with pytest.raises(ValueError):
        PopulationSpec(class_id=1, model=model, count=-2)


def test_population_count_is_a_whole_number():
    model = BandoFtl(a=1.0, b=1.0, pref=PREF)
    pops = (PopulationSpec(class_id=1, model=model, count=2.0), PopulationSpec(class_id=2, model=model, count=1))
    assert type(pops[0].count) is int and pops[0] == PopulationSpec(class_id=1, model=model, count=2)
    assert block_ordering(pops) == (1, 1, 2)
    assert spread_ordering(pops) == (1, 2, 1)
    for count in (math.inf, math.nan, 2.5):
        with pytest.raises(ValueError):
            PopulationSpec(class_id=1, model=model, count=count)


def _pops(counts, ids=None):
    ids = ids or range(1, len(counts) + 1)
    return tuple(
        PopulationSpec(class_id=i, model=BandoFtl(a=1.0 + i, b=9.0, pref=PREF), count=c)
        for i, c in zip(ids, counts)
    )


def test_classes_drop_empty_populations_in_declaration_order():
    pops = _pops([2, 0, 3, 0, 1], ids=[7, 3, 5, 1, 2])
    comp = Composition(pops, block_ordering(pops))
    assert comp.classes == (pops[0], pops[2], pops[4])
    assert [p.class_id for p in comp.classes] == [7, 5, 2]


@pytest.mark.parametrize("kind", ["blocks", "spread", "shuffled"])
def test_index_maps_the_ordering_onto_classes(kind):
    pops = _pops([4, 0, 3, 5], ids=[3, 9, 1, 2])
    if kind == "blocks":
        ordering = block_ordering(pops)
    elif kind == "spread":
        ordering = spread_ordering(pops)
    else:
        ordering = list(block_ordering(pops))
        np.random.default_rng(11).shuffle(ordering)
        ordering = tuple(ordering)
    comp = Composition(pops, ordering)
    assert comp.index.shape == (12,)
    assert np.issubdtype(comp.index.dtype, np.integer)
    assert [comp.classes[i].class_id for i in comp.index] == list(ordering)
    with pytest.raises(ValueError):
        comp.index[0] = 0


@pytest.mark.parametrize(
    "counts, ids, expected",
    [
        ([4, 0, 3, 5], [3, 9, 1, 2], (2, 3, 1, 2, 3, 2, 1, 3, 2, 1, 3, 2)),
        ([2, 2, 3], [5, 1, 3], (3, 1, 5, 3, 1, 5, 3)),
        ([3, 3], [2, 1], (1, 2, 1, 2, 1, 2)),
        ([1, 1, 1, 1], [4, 3, 2, 1], (1, 2, 3, 4)),
        ([6, 4, 4], [9, 2, 7], (9, 2, 7, 9, 2, 7, 9, 9, 2, 7, 9, 2, 7, 9)),
    ],
)
def test_spread_ordering_breaks_ties_by_class_id_whatever_the_declaration_order(counts, ids, expected):
    assert spread_ordering(_pops(counts, ids)) == expected


def test_spread_matches_one_max_over_key_tuples():
    rng = np.random.default_rng(23)
    for _ in range(300):
        # 1-5 classes, with zeros and ties
        counts = [int(c) for c in rng.choice([0, 1, 3, 3, 7, 12, 40], int(rng.integers(1, 6)))]
        if sum(counts):
            assert spread(counts) == spread_by_max(counts)


def test_class_attributes_leave_equality_and_hash_alone():
    pops = _pops([2, 0, 3])
    first = Composition(pops, spread_ordering(pops))
    second = Composition(pops, spread_ordering(pops))
    assert first == second and hash(first) == hash(second)
    assert first != Composition(pops, block_ordering(pops))
    assert [f.name for f in dataclasses.fields(Composition)] == ["populations", "ordering"]
    assert "index" not in repr(first) and "classes" not in repr(first)
