import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    growth_rate,
    initial_state,
    linearize,
    simulate,
    step,
)

from ringwave.model import _speed
from ringwave.sim import _Rk4, _check_headways

from conftest import composition_of
from oracle import dense_spectrum

PREF = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
MODEL = BandoFtl(a=2.0, b=9.0, pref=PREF)
KICK = Perturbation(0.01, SingleVehicleKick())


def small_setup(n=12, v=4.0):
    comp = composition_of([MODEL], [n])
    eq = equilibrium_from_velocity(comp, v)
    return comp, eq


def _assert_rhs_matches_accel(comp):
    eq = equilibrium_from_velocity(comp, 4.0)
    state = initial_state(eq, comp, Perturbation(0.3, SeededRandomZeroSum(seed=5)))
    h, v = state.headways, state.velocities
    rk4 = _Rk4(comp, 0.05)
    rk4.X[0] = (h, v)
    rk4.rates(0)
    hdot, vdot = rk4.K[0]
    assert np.array_equal(hdot, np.roll(v, -1) - v)
    expected = [accel(comp.classes[i].model, h[j], hdot[j], v[j]) for j, i in enumerate(comp.index)]
    np.testing.assert_allclose(vdot, expected, rtol=1e-14, atol=1e-15)


def test_rhs_matches_accel_with_two_preferences():
    other = BandoFtl(a=0.6, b=15.0, pref=VelocityPreference(v_max=11.0, l_v=5.0, d0=3.0))
    _assert_rhs_matches_accel(composition_of([MODEL, other], [7, 5]))


def test_rhs_matches_accel_with_one_preference():
    # the shared preference parameters enter the right-hand side as scalars
    other = BandoFtl(a=0.6, b=15.0, pref=PREF)
    _assert_rhs_matches_accel(composition_of([MODEL, other], [7, 5]))


def _textbook_rk4_step(comp, h, v, dt, check=lambda h: None):
    """Out-of-place RK4 on separate headway and velocity arrays.

    ``check`` sees the headways of each stage input before its rates are taken.
    """
    models = [comp.classes[i].model for i in comp.index]
    a, b, v_max, l_v, d0 = (
        np.array(col)
        for col in zip(*((m.a, m.b, m.pref.v_max, m.pref.l_v, m.pref.d0) for m in models))
    )

    def f(h, v):
        check(h)
        hdot = np.roll(v, -1) - v
        return hdot, a * (_speed(h, v_max, l_v, d0) - v) + b * hdot / (h * h)

    k1h, k1v = f(h, v)
    k2h, k2v = f(h + 0.5 * dt * k1h, v + 0.5 * dt * k1v)
    k3h, k3v = f(h + 0.5 * dt * k2h, v + 0.5 * dt * k2v)
    k4h, k4v = f(h + dt * k3h, v + dt * k3v)
    return (
        h + (dt / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h),
        v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


@st.composite
def perturbed_fleets(draw):
    """1-3 classes, 2-60 vehicles in a seeded order, a seeded perturbation and a small dt."""
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
    counts = draw(st.lists(st.integers(1, 60 // k), min_size=k, max_size=k))
    assume(sum(counts) >= 2)
    seed = draw(st.integers(0, 2**31 - 1))
    order = [c + 1 for c, count in enumerate(counts) for _ in range(count)]
    np.random.default_rng(seed).shuffle(order)
    comp = composition_of(models, counts, ordering=order)
    v_sup = min(m.pref.v_max for m in models)
    eq = equilibrium_from_velocity(comp, draw(st.floats(0.05, 0.95)) * v_sup)
    amp = draw(st.floats(0.0, 0.05)) * min(eq.h_bar.values())
    state = initial_state(eq, comp, Perturbation(amp, SeededRandomZeroSum(seed)))
    beta_max = max(
        linearize(p.model, eq.h_bar[p.class_id], eq.v_bar).beta for p in comp.populations
    )
    # 20 steps span at most 5 s, too short for an unstable fleet to collide
    return comp, state, draw(st.floats(0.01, 0.25)) / max(1.0, beta_max)


def _benchmark_shaped_fleet():
    """The simulate workload's shape: a shared preference and ``b``, a per-class ``a``."""
    models = [BandoFtl(a=4.0, b=20.0, pref=PREF), BandoFtl(a=0.5, b=20.0, pref=PREF)]
    order = [1] * 80 + [2] * 20
    np.random.default_rng(3).shuffle(order)
    comp = composition_of(models, [80, 20], ordering=order)
    eq = equilibrium_from_velocity(comp, 4.0)
    return comp, initial_state(eq, comp, Perturbation(0.05, SeededRandomZeroSum(3))), 0.05


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(perturbed_fleets())
@example(_benchmark_shaped_fleet())
def test_step_is_bit_identical_to_textbook_rk4(fleet):
    comp, state, dt = fleet
    h, v = state.headways, state.velocities
    for _ in range(20):
        state = step(state, comp, dt)
        h, v = _textbook_rk4_step(comp, h, v, dt)
        assert np.array_equal(state.headways, h)
        assert np.array_equal(state.velocities, v)


def test_simulate_snapshots_equal_a_loop_of_steps(ref_models, ref_v_bar):
    order = [1] * 12 + [2] * 8
    np.random.default_rng(11).shuffle(order)
    comp = composition_of(ref_models, [12, 8], ordering=order)
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    pert = Perturbation(0.05, SeededRandomZeroSum(12))
    cfg = SimConfig(t_end=3.1, dt=0.05, record_every=4, perturbation=pert, store_snapshots=True)
    trace = simulate(comp, eq, cfg)
    state, i = initial_state(eq, comp, pert), 0
    for snap in trace.snapshots:
        while i * cfg.dt < snap.t:
            state, i = step(state, comp, cfg.dt), i + 1
        assert snap.t == i * cfg.dt
        assert np.array_equal(snap.headways, state.headways)
        assert np.array_equal(snap.velocities, state.velocities)
    assert i == 62


# (model, equilibrium speed, perturbation, dt, the first stage whose input is bad, error)
_LATE_BAD_STAGES = {
    "collision at stage 2": (MODEL, 0.5, Perturbation(15.0, SingleVehicleKick()), 0.9, 2, CollisionError),
    "collision at stage 3": (MODEL, 0.5, Perturbation(5.0, SeededRandomZeroSum(4)), 0.5, 3, CollisionError),
    "collision at stage 4": (MODEL, 0.5, Perturbation(6.0, SingleVehicleKick()), 1.0, 4, CollisionError),
    # 0.5 dt (v1 - v0) overflows to -inf
    "-inf at stage 2": (MODEL, 0.5, Perturbation(1e150, SingleVehicleKick()), 1e159, 2, FloatingPointError),
    # b * hdot overflows, so two stage-2 speeds are infinite
    "-inf at stage 3": (
        BandoFtl(a=2.0, b=1e308, pref=PREF), 0.5, Perturbation(10.0, SingleVehicleKick()), 0.5, 3, FloatingPointError
    ),
    # h * h underflows to 0 at a standstill, so b * hdot / (h * h) is 0 / 0
    "nan at stage 3": (
        BandoFtl(a=2.0, b=9.0, pref=VelocityPreference(v_max=9.72, l_v=1e-170, d0=2.23)),
        0.0, Perturbation(0.0, SingleVehicleKick()), 0.5, 3, FloatingPointError,
    ),
}


@pytest.mark.parametrize("case", _LATE_BAD_STAGES.values(), ids=_LATE_BAD_STAGES.keys())
def test_a_bad_later_stage_raises_what_a_check_before_every_stage_raises(case):
    model, v_bar, pert, dt, bad_stage, error = case
    comp = composition_of([model], [6])
    eq = equilibrium_from_velocity(comp, v_bar)
    state = initial_state(eq, comp, pert)

    def textbook_with_checks(t):
        seen = []

        def check(h):
            seen.append(h)
            _check_headways(h, t)

        with np.errstate(all="ignore"), pytest.raises(error) as ref:
            _textbook_rk4_step(comp, state.headways, state.velocities, dt, check)
        assert len(seen) == bad_stage
        return ref.value

    def assert_same(got, ref):
        assert type(got) is type(ref)
        assert str(got) == str(ref)
        assert getattr(got, "index", None) == getattr(ref, "index", None)
        assert getattr(got, "time", None) == getattr(ref, "time", None)

    later = type(state)(t=2.5, headways=state.headways, velocities=state.velocities)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        with pytest.raises(error) as by_step:
            step(later, comp, dt)
        with pytest.raises(error) as by_simulate:
            simulate(comp, eq, SimConfig(t_end=3 * dt, dt=dt, perturbation=pert))
    assert_same(by_step.value, textbook_with_checks(2.5))
    assert_same(by_simulate.value, textbook_with_checks(0.0))


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
    pert = Perturbation(1e3, SeededRandomZeroSum(0))
    with pytest.raises(CollisionError) as info:
        initial_state(eq, comp, pert)
    assert info.value.time == 0.0
    assert "collision" in str(info.value)


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


def test_nonfinite_headway_is_a_numeric_failure():
    comp, eq = small_setup(n=6)
    state = initial_state(eq, comp, Perturbation(0.0, SingleVehicleKick()))
    h = state.headways.copy()
    h[2] = np.nan
    with pytest.raises(FloatingPointError, match="vehicle 2"):
        step(type(state)(t=1.0, headways=h, velocities=state.velocities), comp, 0.05)


def test_huge_kick_collides_without_warning_at_t0(ref_models, ref_v_bar):
    # np.var of the kicked speeds overflows at the t = 0 sample; that must not
    # warn (an error under this suite) but reach the collision in stage 2
    comp = composition_of([ref_models[0]], [6])
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    cfg = SimConfig(t_end=1.0, perturbation=Perturbation(1.5e308, SingleVehicleKick()))
    message = r"^headway of vehicle 0 reached -3\.75e\+306 m near t=0\.000 s$"
    with pytest.raises(CollisionError, match=message) as err:
        simulate(comp, eq, cfg)
    assert (err.value.index, err.value.time) == (0, 0.0)


def test_unstable_step_size_is_reported_as_numeric(ref_models, ref_v_bar):
    # dt * beta_max = 4.18 is past RK4's real-axis limit 2.785: the blow-up
    # looks like a collision but is numeric, and the safe dt is 0.665 s
    comp = composition_of(ref_models, [8, 2])
    eq = equilibrium_from_velocity(comp, ref_v_bar)
    pert = Perturbation(0.01, SeededRandomZeroSum(1))
    with pytest.raises(FloatingPointError, match=r"dt <= 2\.785/beta_max = 0\.665") as err:
        simulate(comp, eq, SimConfig(t_end=200.0, dt=1.0, perturbation=pert))
    assert isinstance(err.value.__cause__, CollisionError)
    # just inside the limit the same ring runs cleanly
    trace = simulate(comp, eq, SimConfig(t_end=200.0, dt=0.68, perturbation=pert))
    assert trace.min_headway.min() > 0.0


@pytest.mark.parametrize("field", ["dt", "t_end"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_sim_config_refuses_a_step_or_end_that_is_not_finite(field, value):
    times = {"t_end": 10.0, "dt": 0.05, field: value}
    with pytest.raises(ValueError, match="finite"):
        SimConfig(perturbation=KICK, **times)


def test_sim_config_refuses_a_step_count_that_is_not_finite():
    # both times are finite, but t_end / dt overflows, and simulate could not round it to a count
    with pytest.raises(ValueError, match="step count"):
        SimConfig(t_end=1e300, dt=1e-300, perturbation=KICK)


@pytest.mark.parametrize("t_end, dt", [(1e300, 0.05), (1e12, 0.05), (50_000.05, 0.05), (1.0, 1e-12)])
def test_sim_config_refuses_more_steps_than_a_run_can_finish(t_end, dt):
    # each of these was accepted, and the run never ended
    with pytest.raises(ValueError, match=r"step count round\(t_end / dt\) must be at most 1000000"):
        SimConfig(t_end=t_end, dt=dt, perturbation=KICK)


def test_sim_config_takes_a_million_steps():
    assert SimConfig(t_end=50_000.0, dt=0.05, perturbation=KICK).t_end == 50_000.0


WHOLE_NUMBER_REFUSALS = {
    "negative seed": lambda: SeededRandomZeroSum(-1),
    "fractional seed": lambda: SeededRandomZeroSum(2.5),
    "fractional mode": lambda: SinusoidalMode(2.5),
    "nan mode": lambda: SinusoidalMode(math.nan),
    "fractional record_every": lambda: SimConfig(t_end=1.0, perturbation=KICK, record_every=2.5),
    "nan record_every": lambda: SimConfig(t_end=1.0, perturbation=KICK, record_every=math.nan),
    "zero record_every": lambda: SimConfig(t_end=1.0, perturbation=KICK, record_every=0),
}


@pytest.mark.parametrize("build", list(WHOLE_NUMBER_REFUSALS.values()), ids=list(WHOLE_NUMBER_REFUSALS))
def test_sim_refuses_a_setting_that_is_no_whole_number(build):
    with pytest.raises(ValueError, match="must be a finite whole number"):
        build()


def test_sim_holds_an_integral_float_as_its_integer():
    held = [
        SeededRandomZeroSum(3.0).seed,
        SinusoidalMode(np.int64(-2)).mode,
        SimConfig(t_end=1.0, perturbation=KICK, record_every=2.0).record_every,
    ]
    assert held == [3, -2, 2] and all(type(v) is int for v in held)


@pytest.mark.parametrize("mode", [0, 5, 10, -10, 25])
def test_initial_state_refuses_a_mode_that_perturbs_no_vehicle(mode):
    # sin(2 pi mode j / 10) is 0 at every vehicle when 2 * mode is a multiple of 10
    comp, eq = small_setup(n=10)
    with pytest.raises(ValueError, match=f"mode {mode} perturbs no vehicle of a ring of 10"):
        initial_state(eq, comp, Perturbation(0.1, SinusoidalMode(mode)))


@pytest.mark.parametrize("mode, amplitude", [(1, 0.1), (2, 0.1), (-3, 0.1), (12, 0.1), (1, 0.0)])
def test_initial_state_takes_a_mode_that_perturbs_the_ring(mode, amplitude):
    comp, eq = small_setup(n=10)
    v = initial_state(eq, comp, Perturbation(amplitude, SinusoidalMode(mode))).velocities
    expected = eq.v_bar + amplitude * np.sin(2.0 * np.pi * mode * np.arange(10) / 10)
    assert np.array_equal(v, expected)
    assert (np.ptp(v) > 0.0) == (amplitude > 0.0)


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


@pytest.mark.parametrize("t_end, record_every", [(1.0, 3), (1.0, 1000), (0.07, 20)])
def test_simulate_records_the_last_step_off_the_grid(t_end, record_every):
    comp, eq = small_setup()
    cfg = SimConfig(
        t_end=t_end,
        dt=0.05,
        record_every=record_every,
        perturbation=Perturbation(0.01, SingleVehicleKick()),
    )
    trace = simulate(comp, eq, cfg)
    steps = round(t_end / 0.05)
    grid = [i * 0.05 for i in range(0, steps + 1, record_every)]
    expected = grid if steps % record_every == 0 else grid + [steps * 0.05]
    assert trace.times.tolist() == expected


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


def test_snapshots_are_copies():
    comp, eq = small_setup(n=16)
    pert = Perturbation(0.02, SeededRandomZeroSum(77))
    cfg = SimConfig(t_end=1.0, dt=0.05, record_every=4, perturbation=pert, store_snapshots=True)
    snaps = simulate(comp, eq, cfg).snapshots
    init = initial_state(eq, comp, pert)
    assert np.array_equal(snaps[0].headways, init.headways)
    assert np.array_equal(snaps[0].velocities, init.velocities)
    arrays = [x for s in snaps for x in (s.headways, s.velocities)]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1 :]:
            assert not np.shares_memory(x, y)
    assert not np.array_equal(snaps[0].velocities, snaps[-1].velocities)


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
    ab = dense_spectrum(ring).abscissa
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
