import math

import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    CollisionError,
    NoEquilibriumError,
    VelocityPreference,
    accel,
    eval_preference,
    eval_preference_slope,
    preference_with_slope,
    preferred_headway,
)

from conftest import REF_D0, REF_HEADWAY, REF_LV, REF_SLOPE

PREF = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)

# direct transcendental evaluation of the closed form at 64-bit, frozen
V_AT_10_4 = 7.58596099846193


def scalar_preference(v_max, l_v, d0, h):
    t2 = math.tanh(2.0)
    return max(0.0, v_max * (math.tanh((h - l_v) / d0 - 2.0) + t2) / (1.0 + t2))


def test_preference_zero_at_vehicle_length():
    assert eval_preference(PREF, PREF.l_v) == 0.0


def test_preference_saturates_to_v_max():
    h = PREF.l_v + 100.0 * PREF.d0
    assert abs(eval_preference(PREF, h) - PREF.v_max) <= 1e-6 * PREF.v_max


def test_preference_matches_scalar_oracle():
    assert eval_preference(PREF, 10.4) == pytest.approx(V_AT_10_4, abs=1e-12)
    # and on a grid, against an independent scalar evaluation
    for h in np.linspace(0.0, 40.0, 37):
        assert eval_preference(PREF, h) == pytest.approx(
            scalar_preference(9.72, 4.5, 2.23, h), abs=1e-12
        )


def test_preference_monotone_and_clamped():
    # strict growth on the ramp; the curve flattens at v_max only past
    # float saturation of tanh
    hs = np.linspace(PREF.l_v, PREF.l_v + 12 * PREF.d0, 400)
    vals = [eval_preference(PREF, h) for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert eval_preference(PREF, PREF.l_v - 1.0) == 0.0
    assert all(0.0 <= v < PREF.v_max for v in vals)


def test_preference_rejects_non_finite():
    with pytest.raises(ValueError):
        eval_preference(PREF, math.nan)
    with pytest.raises(ValueError):
        eval_preference_slope(PREF, math.inf)


def test_slope_peak_value():
    h = PREF.l_v + 2.0 * PREF.d0
    expected = PREF.v_max / (PREF.d0 * (1.0 + math.tanh(2.0)))
    assert eval_preference_slope(PREF, h) == pytest.approx(expected, rel=1e-14)


def test_slope_matches_central_difference():
    # abs floor = the difference quotient's own roundoff, eps*v_max/step
    step = 1e-6 * PREF.d0
    for h in np.linspace(PREF.l_v + 0.05, PREF.l_v + 12 * PREF.d0, 50):
        fd = (eval_preference(PREF, h + step) - eval_preference(PREF, h - step)) / (2 * step)
        assert eval_preference_slope(PREF, h) == pytest.approx(fd, rel=1e-6, abs=2e-9)


def test_slope_zero_below_vehicle_length():
    assert eval_preference_slope(PREF, PREF.l_v - 0.5) == 0.0
    assert eval_preference_slope(PREF, 0.0) == 0.0


def test_calibrated_preference_hits_requested_slope():
    pref = preference_with_slope(REF_SLOPE, REF_HEADWAY, REF_LV, REF_D0)
    assert eval_preference_slope(pref, REF_HEADWAY) == pytest.approx(REF_SLOPE, rel=1e-14)


def test_accel_zero_at_equilibrium():
    model = BandoFtl(a=3.0, b=7.0, pref=PREF)
    v = 4.0
    h = preferred_headway(model, v)
    assert accel(model, h, 0.0, v) == pytest.approx(0.0, abs=1e-12)


def test_accel_follow_the_leader_term():
    model = BandoFtl(a=4.0, b=20.0, pref=PREF)
    v = eval_preference(PREF, 10.4)  # cancels the relaxation term by construction
    assert accel(model, 10.4, 1.0, v) == pytest.approx(0.18491124260355027, rel=1e-12)


def test_accel_pure_relaxation_at_rest():
    model = BandoFtl(a=1.0, b=1e-300, pref=PREF)  # b must stay positive
    for h in (6.0, 9.0, 14.0):
        assert accel(model, h, 0.0, 0.0) == pytest.approx(eval_preference(PREF, h), rel=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [
        (math.inf, 20.0),
        (4.0, math.inf),
        (math.inf, math.inf),
        (math.nan, 20.0),
        (4.0, 0.0),
        (-1.0, 20.0),
    ],
)
def test_bando_ftl_requires_finite_positive_gains(a, b):
    with pytest.raises(ValueError, match="require finite a > 0 and b > 0"):
        BandoFtl(a=a, b=b, pref=PREF)


def test_accel_rejects_contact_and_nonfinite():
    model = BandoFtl(a=1.0, b=1.0, pref=PREF)
    with pytest.raises(CollisionError):
        accel(model, 0.0, 0.0, 1.0)
    with pytest.raises(CollisionError):
        accel(model, -2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        accel(model, math.nan, 0.0, 1.0)


def test_preferred_headway_at_zero_speed():
    model = BandoFtl(a=2.0, b=5.0, pref=PREF)
    assert preferred_headway(model, 0.0) == PREF.l_v


def test_preferred_headway_round_trip():
    model = BandoFtl(a=2.0, b=5.0, pref=PREF)
    v = eval_preference(PREF, 10.4)
    assert preferred_headway(model, v) == pytest.approx(10.4, abs=1e-9)


def test_preferred_headway_round_trip_grid():
    model = BandoFtl(a=2.0, b=5.0, pref=PREF)
    for v in np.linspace(1e-3, 0.99 * PREF.v_max, 100):
        h = preferred_headway(model, v)
        assert eval_preference(PREF, h) == pytest.approx(v, abs=1e-9)


def test_preferred_headway_rejects_supremum():
    model = BandoFtl(a=2.0, b=5.0, pref=PREF)
    with pytest.raises(NoEquilibriumError):
        preferred_headway(model, PREF.v_max)
    with pytest.raises(NoEquilibriumError):
        preferred_headway(model, -0.1)


@pytest.mark.parametrize("v_max", [9.72, 1.0, 1.97, 33.3, 1e-3])
def test_preferred_headway_just_below_supremum(v_max):
    # at v_max = 1.97 the atanh argument rounds to 1: no inverse, not a math error
    pref = VelocityPreference(v_max=v_max, l_v=4.5, d0=2.23)
    v = math.nextafter(v_max, 0.0)
    try:
        h = preferred_headway(BandoFtl(a=2.0, b=5.0, pref=pref), v)
    except NoEquilibriumError:
        return
    assert math.isfinite(h) and h > pref.l_v
    assert eval_preference(pref, h) == pytest.approx(v, rel=1e-12)


def test_sign_conditions_by_finite_differences():
    model = BandoFtl(a=1.7, b=12.0, pref=PREF)
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(1000):
        h = rng.uniform(PREF.l_v + 0.2, PREF.l_v + 6.0 * PREF.d0)
        v = rng.uniform(0.0, 0.95 * PREF.v_max)
        dfh = (accel(model, h + eps, 0, v) - accel(model, h - eps, 0, v)) / (2 * eps)
        dfd = (accel(model, h, eps, v) - accel(model, h, -eps, v)) / (2 * eps)
        dfv = (accel(model, h, 0, v + eps) - accel(model, h, 0, v - eps)) / (2 * eps)
        assert dfh > 0.0
        assert dfd > 0.0
        assert dfv < 0.0


def test_accel_continuity():
    model = BandoFtl(a=2.0, b=9.0, pref=PREF)
    rng = np.random.default_rng(3)
    for _ in range(200):
        h = rng.uniform(PREF.l_v + 0.5, 30.0)
        hd = rng.uniform(-2.0, 2.0)
        v = rng.uniform(0.0, 9.0)
        base = accel(model, h, hd, v)
        d1 = abs(accel(model, h + 1e-4, hd + 1e-4, v + 1e-4) - base)
        d2 = abs(accel(model, h + 1e-8, hd + 1e-8, v + 1e-8) - base)
        assert d2 <= max(1e-2 * d1, 1e-9)


def test_preference_validates_parameters():
    with pytest.raises(ValueError):
        VelocityPreference(v_max=-1.0, l_v=4.5, d0=2.0)
    with pytest.raises(ValueError):
        VelocityPreference(v_max=9.0, l_v=4.5, d0=0.0)
    with pytest.raises(ValueError, match="finite v_max"):
        VelocityPreference(v_max=float("inf"), l_v=4.5, d0=2.0)
    with pytest.raises(ValueError):
        BandoFtl(a=0.0, b=1.0, pref=PREF)


@pytest.mark.parametrize("h_ref", [818.45, 2000.0])
def test_calibration_refuses_a_slope_no_finite_v_max_reaches(h_ref):
    # sech^2 at h_ref is subnormal at 818.45 m (v_max overflows) and 0 at 2000 m
    with pytest.raises(ValueError, match="no finite v_max"):
        preference_with_slope(0.5, h_ref, 4.5, 2.23)
    assert preference_with_slope(0.5, 700.0, 4.5, 2.23).v_max < float("inf")
