import math

import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    CollisionError,
    InsufficientDataError,
    Perturbation,
    RingSystem,
    SeededRandomZeroSum,
    SimConfig,
    SimTrace,
    SingleVehicleKick,
    SinusoidalMode,
    VelocityPreference,
    accel,
    equilibrium_from_velocity,
    eigenvalues_on_H,
    growth_rate,
    initial_state,
    linearize,
    simulate,
    step,
)

from ringwave.sim import _compile_rhs

from conftest import composition_of

PREF = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
MODEL = BandoFtl(a=2.0, b=9.0, pref=PREF)


def small_setup(n=12, v=4.0):
    comp = composition_of([MODEL], [n])
    eq = equilibrium_from_velocity(comp, v)
    return comp, eq


def _assert_rhs_matches_accel(comp):
    eq = equilibrium_from_velocity(comp, 4.0)
    state = initial_state(eq, comp, Perturbation(0.3, SeededRandomZeroSum(seed=5)))
    h, v = state.headways, state.velocities
    hdot, vdot = _compile_rhs(comp)(h, v)
    assert np.array_equal(hdot, np.roll(v, -1) - v)
    expected = [accel(comp.model_of(c), h[j], hdot[j], v[j]) for j, c in enumerate(comp.ordering)]
    np.testing.assert_allclose(vdot, expected, rtol=1e-14, atol=1e-15)


def test_rhs_matches_accel_with_two_preferences():
    other = BandoFtl(a=0.6, b=15.0, pref=VelocityPreference(v_max=11.0, l_v=5.0, d0=3.0))
    _assert_rhs_matches_accel(composition_of([MODEL, other], [7, 5]))


def test_rhs_matches_accel_with_one_preference():
    # the shared preference parameters enter the right-hand side as scalars
    other = BandoFtl(a=0.6, b=15.0, pref=PREF)
    _assert_rhs_matches_accel(composition_of([MODEL, other], [7, 5]))


def test_zero_amplitude_stays_at_equilibrium():
    comp, eq = small_setup()
    cfg = SimConfig(t_end=5.0, dt=0.05, perturbation=Perturbation(0.0, SingleVehicleKick()))
    trace = simulate(comp, eq, cfg)
    assert np.all(trace.speed_variance <= 1e-20)


def test_single_vehicle_kick_shape():
    comp, eq = small_setup()
    state = initial_state(eq, comp, Perturbation(0.1, SingleVehicleKick()))
    assert state.velocities[0] == eq.v_bar + 0.1
    assert np.all(state.velocities[1:] == eq.v_bar)
    assert np.all(state.headways == [eq.h_bar[a] for a in comp.ordering])


def test_seeded_random_zero_sum_properties():
    comp, eq = small_setup(n=64)
    pert = Perturbation(0.05, SeededRandomZeroSum(seed=123))
    state = initial_state(eq, comp, pert)
    total = math.fsum(state.headways)
    assert abs(total - eq.length) <= 1e-14 * eq.length
    again = initial_state(eq, comp, pert)
    assert np.array_equal(state.headways, again.headways)
    assert np.array_equal(state.velocities, again.velocities)
    other = initial_state(eq, comp, Perturbation(0.05, SeededRandomZeroSum(seed=124)))
    assert not np.array_equal(state.velocities, other.velocities)


def test_excessive_amplitude_rejected():
    comp, eq = small_setup()
    with pytest.raises(ValueError):
        initial_state(eq, comp, Perturbation(1e3, SeededRandomZeroSum(0)))


def test_step_fixed_point_drift():
    comp, eq = small_setup()
    state = initial_state(eq, comp, Perturbation(0.0, SingleVehicleKick()))
    out = step(state, comp, 0.05)
    assert np.max(np.abs(out.velocities - eq.v_bar)) <= 1e-14 * eq.v_bar
    assert np.max(np.abs(out.headways - state.headways)) <= 1e-14 * eq.h_bar[1]


def test_step_conserves_total_headway():
    comp, eq = small_setup(n=40)
    state = initial_state(eq, comp, Perturbation(0.1, SeededRandomZeroSum(5)))
    total0 = math.fsum(state.headways)
    for _ in range(50):
        state = step(state, comp, 0.05)
    assert abs(math.fsum(state.headways) - total0) <= 1e-12 * eq.length


def test_rk4_order_via_step_halving():
    comp, eq = small_setup()
    state = initial_state(eq, comp, Perturbation(0.2, SeededRandomZeroSum(9)))

    def advance(dt, steps):
        s = state
        for _ in range(steps):
            s = step(s, comp, dt)
        return s

    ref = advance(0.0125, 32)  # fine reference over 0.4 s
    coarse = advance(0.1, 4)
    fine = advance(0.05, 8)
    err_c = np.max(np.abs(coarse.velocities - ref.velocities))
    err_f = np.max(np.abs(fine.velocities - ref.velocities))
    assert 10.0 < err_c / err_f < 25.0


def test_collision_error_carries_context():
    comp, eq = small_setup(n=6, v=1.0)
    state = initial_state(eq, comp, Perturbation(0.0, SingleVehicleKick()))
    # drive vehicle 3's headway through zero by hand
    h = state.headways.copy()
    v = state.velocities.copy()
    h[3] = 1e-4
    v[3] = 8.0  # much faster than its leader
    bad = type(state)(t=2.5, headways=h, velocities=v)
    with pytest.raises(CollisionError) as err:
        s = bad
        for _ in range(200):
            s = step(s, comp, 0.05)
    assert err.value.index is not None
    assert err.value.time is not None


def test_simulate_records_every_k_steps():
    comp, eq = small_setup()
    cfg = SimConfig(
        t_end=1.0,
        dt=0.05,
        record_every=4,
        perturbation=Perturbation(0.01, SingleVehicleKick()),
    )
    trace = simulate(comp, eq, cfg)
    assert trace.times[0] == 0.0
    assert np.allclose(np.diff(trace.times), 0.2)
    assert trace.times[-1] == pytest.approx(1.0)
    assert trace.min_headway.shape == trace.times.shape
    assert trace.snapshots is None


def test_simulate_snapshots_and_determinism():
    comp, eq = small_setup(n=16)
    cfg = SimConfig(
        t_end=2.0,
        dt=0.05,
        record_every=5,
        perturbation=Perturbation(0.02, SeededRandomZeroSum(77)),
        store_snapshots=True,
    )
    a = simulate(comp, eq, cfg)
    b = simulate(comp, eq, cfg)
    assert np.array_equal(a.speed_variance, b.speed_variance)
    assert len(a.snapshots) == len(a.times)
    assert np.array_equal(a.snapshots[-1].headways, b.snapshots[-1].headways)


def test_growth_rate_recovers_synthetic_exponential():
    t = np.linspace(0.0, 30.0, 200)
    sigma = 0.0375
    trace = SimTrace(
        times=t,
        speed_variance=np.exp(2.0 * sigma * t),
        min_headway=np.full_like(t, 10.0),
        max_headway=np.full_like(t, 11.0),
    )
    assert growth_rate(trace, (0.0, 30.0)) == pytest.approx(2 * sigma, rel=1e-10)


def test_growth_rate_constant_trace_is_zero():
    t = np.linspace(0.0, 10.0, 50)
    trace = SimTrace(
        times=t,
        speed_variance=np.full_like(t, 3.3e-5),
        min_headway=t,
        max_headway=t,
    )
    assert growth_rate(trace, (0.0, 10.0)) == pytest.approx(0.0, abs=1e-14)


def test_growth_rate_needs_enough_samples():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    trace = SimTrace(
        times=t,
        speed_variance=np.exp(t),
        min_headway=t,
        max_headway=t,
    )
    with pytest.raises(InsufficientDataError):
        growth_rate(trace, (0.0, 2.0))
    with pytest.raises(ValueError):
        bad = SimTrace(
            times=t, speed_variance=np.zeros_like(t), min_headway=t, max_headway=t
        )
        growth_rate(bad, (0.0, 4.0))


def test_small_amplitude_growth_matches_abscissa(ref_models, ref_v_bar):
    # mildly unstable mixture; modal growth should surface in the variance
    comp = composition_of(ref_models, [16, 4])
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    trios = {
        i + 1: linearize(m, eq.h_bar[i + 1], ref_v_bar)
        for i, m in enumerate(ref_models)
    }
    ring = RingSystem(tuple(trios[a] for a in comp.ordering))
    ab = eigenvalues_on_H(ring).abscissa
    assert ab > 0
    cfg = SimConfig(
        t_end=260.0,
        dt=0.05,
        record_every=20,
        perturbation=Perturbation(1e-4, SeededRandomZeroSum(2)),
    )
    trace = simulate(comp, eq, cfg)
    rate = growth_rate(trace, (120.0, 260.0))
    assert rate / 2 == pytest.approx(ab, rel=0.15)


def test_ordering_invariant_growth_verdict(ref_models, ref_v_bar):
    rng = np.random.default_rng(55)
    orders = []
    base = [1] * 12 + [2] * 8
    for _ in range(2):
        rng.shuffle(base)
        orders.append(tuple(base))
    rates = []
    for order in orders:
        comp = composition_of(ref_models, [12, 8], ordering=order)
        eq = equilibrium_from_velocity(comp, ref_v_bar)
        cfg = SimConfig(
            t_end=200.0,
            dt=0.05,
            record_every=20,
            perturbation=Perturbation(1e-4, SeededRandomZeroSum(4)),
        )
        trace = simulate(comp, eq, cfg)
        rates.append(growth_rate(trace, (100.0, 200.0)))
    assert math.copysign(1, rates[0]) == math.copysign(1, rates[1])


def test_conservation_through_long_run(ref_models, ref_v_bar):
    comp = composition_of(ref_models, [40, 10])
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    cfg = SimConfig(
        t_end=60.0,
        dt=0.05,
        record_every=40,
        perturbation=Perturbation(0.05, SeededRandomZeroSum(6)),
        store_snapshots=True,
    )
    trace = simulate(comp, eq, cfg)
    for snap in trace.snapshots:
        assert abs(math.fsum(snap.headways) - eq.length) <= 1e-9 * eq.length


def test_stable_unified_model_decays():
    # a=5 overcomes the mid-ramp preference slope: discriminant +4.6
    stable_model = BandoFtl(a=5.0, b=9.0, pref=PREF)
    comp = composition_of([stable_model], [20])
    eq = equilibrium_from_velocity(comp, 4.0)
    cfg = SimConfig(
        t_end=120.0,
        dt=0.05,
        record_every=40,
        perturbation=Perturbation(0.01, SeededRandomZeroSum(8)),
    )
    trace = simulate(comp, eq, cfg)
    # envelope decays: late maximum well below early maximum
    third = len(trace.times) // 3
    assert trace.speed_variance[-third:].max() < trace.speed_variance[:third].max()
