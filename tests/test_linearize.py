import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    LinearTrio,
    ModelInvalidError,
    NoEquilibriumError,
    StabilityClass,
    VelocityPreference,
    classify,
    discriminant,
    eval_preference,
    eval_preference_slope,
    linearize,
    preference_with_slope,
    preferred_headway,
)

from oracle import linearize_fd


def test_reference_trios_closed_form(ref_models, ref_v_bar, ref_trios):
    t1, t2 = ref_trios
    assert t1.alpha == pytest.approx(5.09964, abs=1e-4)
    assert t1.beta == pytest.approx(4.18491, abs=1e-4)
    assert t1.gamma == pytest.approx(0.184911, abs=1e-4)
    assert t2.alpha == pytest.approx(0.63746, abs=1e-4)


def test_reference_discriminants(ref_trios):
    t1, t2 = ref_trios
    assert discriminant(t1) == pytest.approx(7.28, abs=0.01)
    assert discriminant(t2) == pytest.approx(-0.84, abs=0.01)
    assert classify(t1) is StabilityClass.STABLE
    assert classify(t2) is StabilityClass.UNSTABLE


def test_zero_follow_gain_rejected():
    # b = 0 would give gamma = 0, outside the admissible set
    with pytest.raises(ValueError):
        BandoFtl(a=1.0, b=0.0, pref=VelocityPreference(9.72, 4.5, 2.23))
    with pytest.raises(ModelInvalidError):
        LinearTrio(alpha=1.0, beta=1.0, gamma=0.0)


def test_linearize_matches_finite_differences():
    rng = np.random.default_rng(5)
    pref = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    for _ in range(20):
        model = BandoFtl(a=rng.uniform(0.3, 5.0), b=rng.uniform(1.0, 30.0), pref=pref)
        v = rng.uniform(0.5, 8.5)
        h = preferred_headway(model, v)
        analytic = linearize(model, h, v)
        fd = linearize_fd(model, h, v, eps=1e-5)
        assert fd.alpha == pytest.approx(analytic.alpha, rel=1e-5)
        assert fd.beta == pytest.approx(analytic.beta, rel=1e-5)
        assert fd.gamma == pytest.approx(analytic.gamma, rel=1e-5)


def test_linearize_fd_richardson():
    # halving the step shrinks the alpha error about 4x (second order)
    pref = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    model = BandoFtl(a=2.0, b=9.0, pref=pref)
    v = 4.0
    h = preferred_headway(model, v)
    exact = linearize(model, h, v).alpha
    e1 = abs(linearize_fd(model, h, v, eps=2e-3).alpha - exact)
    e2 = abs(linearize_fd(model, h, v, eps=1e-3).alpha - exact)
    assert 2.5 < e1 / e2 < 5.5


def test_linearize_fd_rejects_bad_step():
    pref = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    model = BandoFtl(a=2.0, b=9.0, pref=pref)
    with pytest.raises(ValueError):
        linearize_fd(model, 10.0, eval_preference(pref, 10.0), eps=0.0)
    with pytest.raises(ValueError):
        linearize_fd(model, 10.0, eval_preference(pref, 10.0), eps=-1e-3)


def test_constant_custom_law_rejected():
    # below the vehicle length the clamped preferred speed is constant 0, so
    # (h, 0, 0) is an equilibrium whose finite-difference alpha is exactly 0
    model = BandoFtl(a=2.0, b=9.0, pref=VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23))
    with pytest.raises(ModelInvalidError):
        linearize_fd(model, 3.0, 0.0, eps=1e-5)


def test_linearize_requires_equilibrium_point():
    pref = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    model = BandoFtl(a=2.0, b=9.0, pref=pref)
    with pytest.raises(NoEquilibriumError):
        linearize(model, 10.0, 0.5)  # far from V(10.0)


FREE_FLOW = VelocityPreference(v_max=30.0, l_v=4.5, d0=2.23)


@pytest.mark.parametrize("a", [1e-3, 4.0, 1e30])
@pytest.mark.parametrize("v", [1e-9, 15.0, 30.0 * (1.0 - 1e-9)])
def test_linearize_accepts_the_closed_form_headway_at_any_gain(a, v):
    # at a = 1e30 and v = 1e-9 the rounding in tanh(x) + tanh 2, times a, left a residual of 7e14
    model = BandoFtl(a=a, b=20.0, pref=FREE_FLOW)
    trio = linearize(model, preferred_headway(model, v), v)
    assert trio.beta - trio.gamma == pytest.approx(a, rel=1e-9)


def test_linearize_still_refuses_a_headway_off_equilibrium():
    # the residual's tolerance grows with a v_max, but 1 mm off at half speed is 0.03 m/s^2 away
    model = BandoFtl(a=4.0, b=20.0, pref=FREE_FLOW)
    with pytest.raises(NoEquilibriumError):
        linearize(model, preferred_headway(model, 15.0) + 1e-3, 15.0)


def test_discriminant_identity_for_closed_form():
    # delta = a*(a + 2b/h^2 - 2*V'(h)) for this law family
    rng = np.random.default_rng(9)
    pref = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    for _ in range(100):
        a = rng.uniform(0.2, 6.0)
        b = rng.uniform(0.5, 40.0)
        h = rng.uniform(pref.l_v + 0.5, pref.l_v + 8 * pref.d0)
        model = BandoFtl(a=a, b=b, pref=pref)
        v = eval_preference(pref, h)
        d = discriminant(linearize(model, h, v))
        identity = a * (a + 2 * b / h**2 - 2 * eval_preference_slope(pref, h))
        assert d == pytest.approx(identity, rel=1e-10, abs=1e-12)


def test_classification_band():
    stable = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)  # delta = 2
    assert classify(stable) is StabilityClass.STABLE
    critical = LinearTrio(alpha=1.5, beta=2.0, gamma=1.0)  # delta = 0 exactly
    assert classify(critical) is StabilityClass.CRITICAL
    assert discriminant(critical) == 0.0
    unstable = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)  # delta = -1
    assert classify(unstable) is StabilityClass.UNSTABLE


def test_discriminant_vanishes_at_admissibility_boundary():
    # beta -> gamma and alpha -> 0 drive the discriminant to zero
    for eps in (1e-4, 1e-6, 1e-8):
        trio = LinearTrio(alpha=eps, beta=1.0 + eps, gamma=1.0)
        assert abs(discriminant(trio)) < 5 * eps


def test_classification_is_a_function_of_the_trio():
    # two different laws with the same trio classify identically
    pref_a = VelocityPreference(v_max=9.72, l_v=4.5, d0=2.23)
    model_a = BandoFtl(a=1.3, b=7.0, pref=pref_a)
    h = 11.0
    v = eval_preference(pref_a, h)
    trio_a = linearize(model_a, h, v)
    trio_b = LinearTrio(alpha=trio_a.alpha, beta=trio_a.beta, gamma=trio_a.gamma)
    assert classify(trio_a) is classify(trio_b)
    assert discriminant(trio_a) == discriminant(trio_b)
