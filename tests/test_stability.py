import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ringwave import (
    Fleet,
    LinearTrio,
    MarginVerdict,
    RingSystem,
    critical_penetration,
    discriminant,
    equilibrium_from_length,
    gamma_squared,
    linearize,
    log_gain,
    margin_curve,
    min_unstable_size,
    multi_phase_margin,
    multi_phase_tau1,
    rightmost_eigenvalue,
    tau0_bounds,
)
from ringwave import stability
from ringwave.errors import ModelInvalidError
from ringwave.stability import ABSCISSA_TOL, _gain_classes, _gain_ratio, _weighted_gain

from conftest import design_scan_scenarios, random_trio
from oracle import GRID_POINTS, _polished_max, critical_points_by_roots, dense_spectrum, grid_ratio

T_STABLE = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)  # delta = +2
T_UNSTABLE = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)  # delta = -1
T_CRITICAL = LinearTrio(alpha=1.5, beta=2.0, gamma=1.0)  # delta = 0 exactly

# independent closed-form evaluation (as printed, before conjugation), frozen
GAMMA_SQ_REF = 0.4128296797463384

# a pair whose near-critical margin has a narrow interior bump (y ~ 0.538) that
# a 4096-point grid undersamples while its global argmax sits at the y -> 0 end
BUMP_PAIR = (
    LinearTrio(0.2577822093261488, 1.8715095145589147, 1.396977724005661),
    LinearTrio(1.2603271213845688, 1.177986995812743, 0.4570421501973545),
)


def test_log_gain_zero_at_origin():
    assert log_gain(T_STABLE, 0.0) == 0.0
    assert log_gain(T_UNSTABLE, 0.0) == 0.0


def test_log_gain_sign_for_stable_trio():
    d = discriminant(T_STABLE)
    for y in (0.1 * d, d, 10 * d):
        assert log_gain(T_STABLE, y) < 0.0


def test_log_gain_sign_for_unstable_trio():
    d = discriminant(T_UNSTABLE)
    assert log_gain(T_UNSTABLE, -d / 2) > 0.0
    # positive exactly on (0, -delta): vanishes again at -delta
    assert abs(log_gain(T_UNSTABLE, -d)) < 1e-14
    assert log_gain(T_UNSTABLE, -d * 1.5) < 0.0


@pytest.mark.parametrize("beta", [2e-9, 1e-8])
def test_log_gain_refuses_a_pole_on_the_axis(beta):
    # at alpha = 1, q = 1 + (beta^2 - 2) y + y^2 dips to beta^2 at y = 1; once beta^2 - 2 rounds to -2 that is a pole
    for y in (1.0, 0.5):
        with pytest.raises(ModelInvalidError, match="pole on the axis"):
            log_gain(LinearTrio(1.0, beta, beta / 2.0), y)
    assert math.isfinite(log_gain(LinearTrio(1.0, 1e-7, 0.5e-7), 1.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda t1, pole: multi_phase_margin([pole], [1.0]),
        lambda t1, pole: multi_phase_margin([t1, pole], [9, 1]),
        lambda t1, pole: margin_curve([t1, pole], [9, 1], 512),
        lambda t1, pole: critical_penetration(t1, pole),
        lambda t1, pole: multi_phase_tau1([t1, pole], [1.0]),
    ],
    ids=["margin-alone", "margin-mixed", "margin-curve", "critical-penetration", "tau1"],
)
def test_every_entry_point_refuses_a_pole_on_the_axis(ref_trios, call):
    # in floats this class has q = (1 - y)^2: a double pole at y = 1, refused wherever a grid's points fall
    with pytest.raises(ModelInvalidError, match="pole on the axis"):
        call(ref_trios[0], LinearTrio(1.0, 2e-9, 1e-9))


# alpha^2 overflows: the first is a stable class (its discriminant rounds to +inf), the second unstable
HUGE_STABLE = LinearTrio(alpha=1e200, beta=2e200, gamma=1.0)
HUGE_UNSTABLE = LinearTrio(alpha=1e200, beta=1.0, gamma=0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_gain(HUGE_STABLE, 1.0),
        lambda: multi_phase_margin([HUGE_STABLE, T_UNSTABLE], [8, 2]),
        lambda: multi_phase_margin([T_STABLE, HUGE_UNSTABLE], [8, 2]),
        lambda: margin_curve([T_STABLE, HUGE_UNSTABLE], [8, 2], 16),
        lambda: critical_penetration(HUGE_STABLE, T_UNSTABLE),
        lambda: critical_penetration(T_STABLE, HUGE_UNSTABLE),
        lambda: multi_phase_tau1([HUGE_STABLE, T_UNSTABLE], [1.0]),
        lambda: multi_phase_tau1([T_STABLE, T_UNSTABLE, HUGE_UNSTABLE], [0.5, 0.5]),
    ],
    ids=["log-gain", "margin-stable", "margin-unstable", "margin-curve", "tau0-stable", "tau0-unstable",
         "tau1-stable", "tau1-unstable"],
)
def test_every_entry_point_refuses_a_class_it_cannot_square(call):
    # unchecked, these read nan, or ended in LinAlgError from np.roots or an OverflowError naming no class
    with pytest.raises(FloatingPointError, match=r"^trio LinearTrio\(alpha=1e\+200, .* overflows: its alpha"):
        call()


# alpha^2 = 1.6e-319 is subnormal: the first is a stable class, the second unstable
TINY_STABLE = LinearTrio(alpha=4e-160, beta=4.2, gamma=0.18)
TINY_UNSTABLE = LinearTrio(alpha=4e-160, beta=2e-80, gamma=1e-80)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_gain(TINY_STABLE, 1.0),
        lambda: multi_phase_margin([TINY_STABLE, LinearTrio(0.637, 0.685, 0.185)], [2, 2]),
        lambda: multi_phase_margin([T_STABLE, TINY_UNSTABLE], [8, 2]),
        lambda: margin_curve([TINY_STABLE, T_UNSTABLE], [8, 2], 16),
        lambda: critical_penetration(TINY_STABLE, T_UNSTABLE),
        lambda: critical_penetration(T_STABLE, TINY_UNSTABLE),
        lambda: multi_phase_tau1([TINY_STABLE, T_UNSTABLE], [1.0]),
        lambda: multi_phase_tau1([T_STABLE, T_UNSTABLE, TINY_UNSTABLE], [0.5, 0.5]),
    ],
    ids=["log-gain", "margin-stable", "margin-unstable", "margin-curve", "tau0-stable", "tau0-unstable",
         "tau1-stable", "tau1-unstable"],
)
def test_every_entry_point_refuses_a_class_whose_alpha_squared_underflows(call):
    # unchecked, these read nan, or ended in LinAlgError from a companion-matrix eigensolve
    with pytest.raises(FloatingPointError, match=r"^trio LinearTrio\(alpha=4e-160, .* underflows: its alpha\^2"):
        call()


def test_a_slope_polynomial_out_of_range_is_refused():
    # alpha^2 = 1e-200 is a normal double, but the stable class's q scales the slope
    # polynomial past the doubles; a companion-matrix eigensolve ended in LinAlgError here
    with pytest.raises(FloatingPointError, match="slope polynomial overflows"):
        multi_phase_margin([LinearTrio(1e-100, 4.2, 0.18), LinearTrio(0.637, 0.685, 0.185)], [2, 2])


def test_a_margin_that_is_not_finite_is_no_verdict(ref_trios, monkeypatch):
    # a nan sup once read as critical_boundary, and tau0's ratio loop returned its first rho
    real = stability._weighted_gain
    monkeypatch.setattr(stability, "_weighted_gain", lambda *a, **k: [math.nan * t for t in real(*a, **k)])
    with pytest.raises(FloatingPointError, match=r"^the margin is nan at y = "):
        multi_phase_margin(ref_trios, [8, 2])
    with pytest.raises(FloatingPointError, match=r"^the margin is nan at y = "):
        critical_penetration(*ref_trios)


def test_log_gain_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_gain(T_STABLE, -1.0)
    with pytest.raises(ValueError):
        log_gain(T_STABLE, math.nan)


def test_gamma_squared_reference_value(ref_trios):
    _, t2 = ref_trios
    g = gamma_squared(t2)
    assert 0.0 < g < 0.84
    assert g == pytest.approx(GAMMA_SQ_REF, rel=1e-12)


def test_gamma_squared_requires_unstable():
    with pytest.raises(ValueError):
        gamma_squared(T_STABLE)
    with pytest.raises(ValueError):
        gamma_squared(T_CRITICAL)


def test_gamma_squared_small_gamma_limit():
    # as gamma -> 0 the maximizer tends to -delta/2
    alpha, beta = 2.0, 1.2
    for g in (1e-4, 1e-6, 1e-8):
        trio = LinearTrio(alpha=alpha, beta=beta, gamma=g)
        d = discriminant(trio)
        assert gamma_squared(trio) == pytest.approx(-d / 2, rel=1e-6)


def test_gamma_squared_is_argmax_of_log_gain():
    rng = np.random.default_rng(21)
    for _ in range(10):
        trio = random_trio(rng, stable=False)
        d = discriminant(trio)
        g = gamma_squared(trio)
        ys = np.linspace(1e-3 * (-d), -d, 1000)
        grid_best = ys[np.argmax(log_gain(trio, ys))]
        assert abs(grid_best - g) <= 2e-3 * (-d)
        assert log_gain(trio, g) >= log_gain(trio, grid_best) - 1e-12


def test_critical_penetration_reference(ref_trios):
    t1, t2 = ref_trios
    rep = critical_penetration(t1, t2)
    assert rep.tau0 == pytest.approx(0.881, abs=0.002)
    assert rep.bound_lower <= rep.tau0 <= rep.bound_upper
    assert rep.tau0 == rep.n0 / (rep.n0 + 1.0)
    assert 0.0 < rep.gamma_sq < -rep.delta2


def test_critical_penetration_vanishes_with_weak_instability():
    taus = []
    for d2 in (-0.5, -0.05, -0.005, -0.0005):
        # beta^2 - gamma^2 = 3, so alpha = (3 - d2)/2 makes delta = d2
        trio2 = LinearTrio(alpha=(3.0 - d2) / 2.0, beta=2.0, gamma=1.0)
        rep = critical_penetration(T_STABLE, trio2)
        taus.append(rep.tau0)
    assert all(b < a for a, b in zip(taus, taus[1:]))
    assert taus[-1] < 2e-3


def test_critical_penetration_preconditions(ref_trios):
    t1, t2 = ref_trios
    with pytest.raises(ValueError):
        critical_penetration(t2, t2)
    with pytest.raises(ValueError):
        critical_penetration(t1, t1)
    with pytest.raises(ValueError):
        critical_penetration(T_CRITICAL, t2)


def test_tau0_bounds_bracket_and_order(ref_trios):
    t1, t2 = ref_trios
    b_l, b_u = tau0_bounds(t1, t2)
    rep = critical_penetration(t1, t2)
    assert b_l <= rep.tau0 <= b_u
    assert 0.0 < b_l < b_u < 1.0


def test_tau0_lower_bound_scale_invariant(ref_trios):
    t1, t2 = ref_trios
    b_l, _ = tau0_bounds(t1, t2)
    c = 1.7
    s1 = LinearTrio(alpha=c * c * t1.alpha, beta=c * t1.beta, gamma=c * t1.gamma)
    s2 = LinearTrio(alpha=c * c * t2.alpha, beta=c * t2.beta, gamma=c * t2.gamma)
    b_l_scaled, _ = tau0_bounds(s1, s2)
    assert b_l_scaled == pytest.approx(b_l, rel=1e-12)


def test_bounds_ordered_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        t1 = random_trio(rng, stable=True)
        t2 = random_trio(rng, stable=False)
        b_l, b_u = tau0_bounds(t1, t2)
        assert b_l < b_u
        # brute-force check that each really bounds the ratio maximum
        rep = critical_penetration(t1, t2)
        assert b_l <= rep.tau0 + 1e-12
        assert rep.tau0 <= b_u + 1e-12


def test_two_phase_margin_reference_rates(ref_trios):
    t1, t2 = ref_trios
    assert (
        multi_phase_margin([t1, t2], [0.802, 0.198]).verdict
        is MarginVerdict.UNSTABLE_FOR_LARGE_N
    )
    assert (
        multi_phase_margin([t1, t2], [0.882, 0.118]).verdict is MarginVerdict.STABLE_ALL_N
    )


def test_two_phase_margin_pure_stable():
    rep = multi_phase_margin([T_STABLE, T_UNSTABLE], [5, 0])
    assert rep.verdict is MarginVerdict.STABLE_ALL_N
    assert rep.sup_margin < 0.0


def test_multi_phase_margin_all_stable():
    rng = np.random.default_rng(31)
    trios = [random_trio(rng, stable=True) for _ in range(4)]
    rep = multi_phase_margin(trios, [3, 1, 7, 2])
    assert rep.verdict is MarginVerdict.STABLE_ALL_N


def test_multi_phase_margin_critical_plus_unstable(ref_trios):
    _, t2 = ref_trios
    rep = multi_phase_margin([T_CRITICAL, t2], [5, 5])
    assert rep.verdict is MarginVerdict.UNSTABLE_FOR_LARGE_N


def test_multi_phase_margin_reduces_to_two_phase(ref_trios):
    t1, t2 = ref_trios
    # the aggressive class split in two reduces to the two-class margin
    a = multi_phase_margin([t1, t2, t2], [13, 1, 3])
    b = multi_phase_margin([t1, t2], [13, 4])
    assert abs(a.sup_margin - b.sup_margin) <= 1e-12


def test_margin_curve_is_the_weighted_log_gain(ref_trios):
    trios, counts = list(ref_trios), [802, 198]
    ys, curve = margin_curve(trios, counts, 512)
    assert len(ys) == 512 and np.all(np.diff(ys) > 0)
    assert ys[-1] >= 10.0 * gamma_squared(ref_trios[1])
    np.testing.assert_array_equal(curve, 802 * log_gain(trios[0], ys) + 198 * log_gain(trios[1], ys))
    # the supremum, over the curve's first point and every critical point past it, bounds the curve
    assert multi_phase_margin(trios, counts).sup_margin >= curve.max()


def test_single_class_argmax_is_gamma_squared():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        trio = random_trio(rng, stable=False)
        g = gamma_squared(trio)
        worst = max(worst, abs(multi_phase_margin([trio], [1.0]).argmax_y - g) / g)
    assert worst <= 1e-11


def _central_differences(fn, y, h):
    """First and second central differences of ``fn`` at ``y`` with step ``h``."""
    lo, mid, hi = fn(y - h), fn(y), fn(y + h)
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)


def test_weighted_gain_derivatives_match_differences():
    rng = np.random.default_rng(12)
    for _ in range(40):
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(int(rng.integers(1, 4)))]
        weights = rng.uniform(0.1, 50.0, len(trios)).tolist()
        ys = np.geomspace(1e-3, 30.0, 41)

        def total(y):
            return sum(w * log_gain(t, y) for t, w in zip(trios, weights))

        value, d1, d2 = _weighted_gain(_gain_classes(trios, weights), ys)
        fd1, _ = _central_differences(total, ys, 1e-6 * ys)
        _, fd2 = _central_differences(total, ys, 1e-3 * ys)
        # the scale of each derivative is the sum of its terms' magnitudes
        terms = [_weighted_gain(_gain_classes([t], [w]), ys) for t, w in zip(trios, weights)]
        np.testing.assert_array_equal(value, total(ys))
        assert np.all(np.abs(d1 - fd1) <= 1e-7 * sum(np.abs(term[1]) for term in terms))
        assert np.all(np.abs(d2 - fd2) <= 1e-4 * sum(np.abs(term[2]) for term in terms))


def test_gain_ratio_derivatives_match_differences():
    rng = np.random.default_rng(13)
    for _ in range(40):
        stable = random_trio(rng, stable=True)
        others = [random_trio(rng, stable=False) for _ in range(int(rng.integers(1, 3)))]
        weights = rng.uniform(0.1, 1.0, len(others)).tolist()
        ys = np.geomspace(1e-3, 1.0, 31) * max(gamma_squared(t) for t in others)

        def ratio(y):
            return sum(w * log_gain(t, y) for t, w in zip(others, weights)) / -log_gain(stable, y)

        f, f1, f2 = _gain_ratio(_gain_classes(others, weights), _gain_classes([stable], [-1.0]), ys)
        fd1, _ = _central_differences(ratio, ys, 1e-6 * ys)
        _, fd2 = _central_differences(ratio, ys, 1e-3 * ys)
        np.testing.assert_allclose(f, ratio(ys), rtol=1e-14)
        # f changes on the scale of y, so f / y and f / y^2 bound the derivatives' rounding
        assert np.all(np.abs(f1 - fd1) <= 1e-7 * (np.abs(fd1) + np.abs(f) / ys))
        assert np.all(np.abs(f2 - fd2) <= 1e-4 * (np.abs(fd2) + np.abs(f) / ys**2))


def _points_near_gamma_squared(rng, trios):
    """Log-spaced ``y`` plus, for each unstable trio, ``Gamma^2`` and its two float neighbours."""
    ys = list(np.geomspace(1e-9, 30.0, 25) * rng.uniform(0.5, 2.0))
    for t in trios:
        if discriminant(t) < 0.0:
            g = gamma_squared(t)
            ys += [np.nextafter(g, 0.0), g, np.nextafter(g, np.inf)]
    return np.array(ys)


def test_float_evaluation_matches_the_grid_bit_for_bit():
    # the peak polish evaluates one float y; it must agree with the array pass
    rng = np.random.default_rng(19)
    for _ in range(60):
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(int(rng.integers(1, 4)))]
        classes = _gain_classes(trios, rng.uniform(0.1, 50.0, len(trios)).tolist())
        ys = _points_near_gamma_squared(rng, trios)
        grid = _weighted_gain(classes, ys)
        for u, v in zip(_weighted_gain(classes, ys, curvature=False), grid):
            np.testing.assert_array_equal(u, v)
        floats = np.array([[float(x) for x in _weighted_gain(classes, float(y))] for y in ys])
        np.testing.assert_array_equal(floats, np.array(grid).T)


def test_float_gain_ratio_matches_the_grid_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(60):
        stable = random_trio(rng, stable=True)
        others = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(int(rng.integers(1, 3)))]
        num = _gain_classes(others, rng.uniform(0.1, 1.0, len(others)).tolist())
        den = _gain_classes([stable], [-1.0])
        ys = _points_near_gamma_squared(rng, others)
        grid = _gain_ratio(num, den, ys)
        for u, v in zip(_gain_ratio(num, den, ys, curvature=False), grid):
            np.testing.assert_array_equal(u, v)
        floats = np.array([[float(x) for x in _gain_ratio(num, den, float(y))] for y in ys])
        np.testing.assert_array_equal(floats, np.array(grid).T)


def _verdict(sup: float) -> MarginVerdict:
    if sup > stability.MARGIN_TOL:
        return MarginVerdict.UNSTABLE_FOR_LARGE_N
    return MarginVerdict.STABLE_ALL_N if sup < -stability.MARGIN_TOL else MarginVerdict.CRITICAL_BOUNDARY


def test_margin_critical_points_match_the_grid_oracle():
    # the oracle: a 4096-point grid over margin_curve's window with every grid peak polished,
    # as tau0 and tau1 take their maxima
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 4))
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k)]
        counts = rng.integers(1, 61, k).tolist()
        classes = _gain_classes(trios, counts)
        window = stability._margin_window(trios, counts)
        ys = np.geomspace(window * 1e-9, window, GRID_POINTS)
        _, sup = _polished_max(partial(_weighted_gain, classes), ys)
        rep = multi_phase_margin(trios, counts)
        assert rep.verdict is _verdict(sup)
        worst = max(worst, abs(rep.sup_margin - sup))
        # every grid step where the slope turns from positive to nonpositive holds a critical point
        points = stability._critical_points(classes)
        slope = _weighted_gain(classes, ys, curvature=False)[1]
        for i in np.flatnonzero((slope[:-1] > 0.0) & (slope[1:] <= 0.0)).tolist():
            assert any(ys[i] <= y <= ys[i + 1] for y in points), (trios, counts, ys[i])
    assert worst <= 1e-14


def _recorded_critical_points(monkeypatch) -> list:
    """A list that gets the classes of every ``_critical_points`` call."""
    calls, points = [], stability._critical_points
    monkeypatch.setattr(stability, "_critical_points", lambda classes: calls.append(classes) or points(classes))
    return calls


def assert_critical_points_match_the_roots_oracle(classes):
    """The isolation's critical points at or past ``1e-12 y_top`` are ``np.roots``'s, one for one.

    Each lies within 1e-9 relative of its match, or within the band where the float ``S'`` that
    the polish steps on is rounding noise: ``eps sum_k |w_k H_k'|`` over ``|S''|``, four times.
    Below ``1e-12 y_top`` rounding-noise roots differ on both sides, and the margins drop them.
    """
    y_top = max((g2 - c) / (1.0 + math.sqrt(1.0 + g2 / a2 * (g2 - c))) for a2, g2, c, _ in classes if g2 > c)
    got = [y for y in stability._critical_points(classes) if y >= 1e-12 * y_top]
    want = [y for y in critical_points_by_roots(classes) if y >= 1e-12 * y_top]
    assert len(got) == len(want), (classes, got, want)
    for y, ref in zip(got, want):
        size = sum(abs(w * stability._class_gain(a2, g2, c, ref, False)[1]) for a2, g2, c, w in classes)
        band = 4.0 * np.finfo(float).eps * size / abs(_weighted_gain(classes, ref)[2])
        assert abs(y - ref) <= 1e-9 * ref + band, (classes, y, ref)


def test_critical_points_match_the_roots_oracle_on_the_design_scan(monkeypatch):
    # every margin of seeds 1-30: at the counts, each step of tau0's and tau1's ratio loops
    calls = _recorded_critical_points(monkeypatch)
    for comp, length in design_scan_scenarios(range(1, 31)):
        eq = equilibrium_from_length(comp, length)
        trios = [linearize(p.model, eq.h_bar[p.class_id], eq.v_bar) for p in comp.classes]
        counts = [p.count for p in comp.classes]
        multi_phase_margin(trios, counts)
        critical_penetration(trios[0], trios[1])
        if len(trios) > 2:
            multi_phase_tau1(trios, [c / sum(counts[1:]) for c in counts[1:]])
    assert len(calls) > 4000
    monkeypatch.undo()
    for classes in calls:
        assert_critical_points_match_the_roots_oracle(classes)


def test_zero_count_class_leaves_the_margin_alone():
    rng = np.random.default_rng(5)
    for _ in range(100):
        trios = [random_trio(rng, stable=True), random_trio(rng, stable=False)]
        counts = [int(rng.integers(1, 60)), int(rng.integers(1, 60))]
        empty = random_trio(rng, stable=False)
        assert multi_phase_margin(trios + [empty], counts + [0]) == multi_phase_margin(trios, counts)
        ys, curve = margin_curve(trios, counts, 64)
        ys_e, curve_e = margin_curve([empty] + trios, [0] + counts, 64)
        np.testing.assert_array_equal(ys_e, ys)
        np.testing.assert_array_equal(curve_e, curve)


def test_multi_phase_margin_validation():
    with pytest.raises(ValueError):
        multi_phase_margin([T_STABLE], [1, 2])
    with pytest.raises(ValueError):
        multi_phase_margin([T_STABLE], [-1])
    with pytest.raises(ValueError):
        multi_phase_margin([T_STABLE], [0])


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_counts_may_be_a_numpy_array(ref_trios, dtype):
    trios, counts = list(ref_trios), [88, 12]
    array = np.array(counts, dtype=dtype)
    assert multi_phase_margin(trios, array) == multi_phase_margin(trios, counts)
    for got, want in zip(margin_curve(trios, array, 16), margin_curve(trios, counts, 16)):
        np.testing.assert_array_equal(got, want)
    assert Fleet(trios, array).counts == Fleet(trios, counts).counts == (88, 12)


@pytest.mark.parametrize("counts", [[], np.array([], dtype=float)], ids=["list", "array"])
def test_no_class_is_refused_with_the_same_message(counts):
    for call in (multi_phase_margin, lambda t, c: margin_curve(t, c, 4), Fleet):
        with pytest.raises(ValueError, match="^need matching, nonempty class and count lists$"):
            call([], counts)


@pytest.mark.parametrize(
    "pick, counts",
    [
        ((0, 1), [5]),
        ((0,), [5, 3]),
        ((0, 1), [5, -3]),
        ((0, 1), [math.nan, 5]),
        ((0, 1), [math.inf, 5]),
        ((0, 1), [5, -math.inf]),
    ],
    ids=["trio-without-count", "count-without-trio", "negative-count", "nan-count", "inf-count", "minus-inf-count"],
)
def test_margin_curve_refuses_what_the_margin_refuses(ref_trios, pick, counts):
    trios = [ref_trios[k] for k in pick]
    with pytest.raises(ValueError):
        multi_phase_margin(trios, counts)
    with pytest.raises(ValueError):
        margin_curve(trios, counts, 4)


def test_margin_curve_of_empty_classes_is_zero(ref_trios):
    ys, curve = margin_curve(list(ref_trios), [0, 0], 4)
    assert len(ys) == 4 and not curve.any()


def test_tau1_matches_tau0_for_two_classes(ref_trios):
    t1, t2 = ref_trios
    rep = critical_penetration(t1, t2)
    assert multi_phase_tau1([t1, t2], [1.0]) == rep.tau0
    assert multi_phase_tau1(list(BUMP_PAIR), [1.0]) == critical_penetration(*BUMP_PAIR).tau0


def _counted_margin_sups(monkeypatch) -> list:
    """A list that gets one entry per ``_margin_sup`` call, one per step of the ratio loop."""
    calls, sup = [], stability._margin_sup
    monkeypatch.setattr(stability, "_margin_sup", lambda *a: calls.append(1) or sup(*a))
    return calls


def test_critical_ratio_certificate_matches_the_grid_oracle(monkeypatch):
    calls = _counted_margin_sups(monkeypatch)
    rng = np.random.default_rng(26)
    loops = []
    for _ in range(200):
        for k in (2, 3):
            stable = random_trio(rng, stable=True)
            others = [random_trio(rng, stable=False)]
            others += [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k - 2)]
            shares = rng.uniform(0.1, 1.0, k - 1)
            weights = (shares / shares.sum()).tolist()
            calls.clear()
            got = stability._critical_ratio(stable, others, weights)
            want, tol = grid_ratio(stable, others, weights)
            if want <= 0.0:
                # a remainder stable on its own: the loop stops at the limit, and tau1 is 0 either way
                assert got <= 0.0 and len(calls) == 1, (stable, others, weights)
                continue
            loops.append(len(calls))
            if len(calls) > 1:
                # both ways, so no peak the grid sees is missed
                assert want - tol <= got <= want + tol, (stable, others, weights)
                continue
            # the certificate returns the limit, which the grid may overshoot by rounding
            assert abs(got - want) <= 4 * math.ulp(want), (stable, others, weights)
            assert got / (got + 1.0) == want / (want + 1.0)
    assert loops.count(1) >= 50 and len(loops) - loops.count(1) >= 50, loops
    # the Newton steps on the ratio keep the loop short: without them it took 5 to 9 margin sups
    assert max(loops) == 4


def test_reference_pair_takes_the_certificate(ref_trios, monkeypatch):
    calls = _counted_margin_sups(monkeypatch)
    rep = critical_penetration(*ref_trios)
    assert len(calls) == 1
    assert rep.tau0 == 0.8807339449541284
    assert rep.tau0 == rep.bound_lower


def test_tau0_never_reads_below_its_lower_bound_on_the_design_scan_pairs(monkeypatch):
    # the bound and the ratio loop once took the y -> 0 limit from two formulas, and
    # tau0 read one ulp below bound_lower on 281 of these 1,800 pairs
    calls = _counted_margin_sups(monkeypatch)
    certified = 0
    for comp, length in design_scan_scenarios(range(1, 31)):
        eq = equilibrium_from_length(comp, length)
        t1, t2 = (linearize(p.model, eq.h_bar[p.class_id], eq.v_bar) for p in comp.classes[:2])
        calls.clear()
        rep = critical_penetration(t1, t2)
        assert rep.bound_lower <= rep.tau0, (t1, t2)
        if len(calls) == 1:
            assert rep.tau0 == rep.bound_lower, (t1, t2)
            certified += 1
    assert certified >= 1000


def test_bump_pair_tau0_matches_the_grid_oracle(monkeypatch):
    calls = _counted_margin_sups(monkeypatch)
    t1, t2 = BUMP_PAIR
    want, tol = grid_ratio(t1, [t2], [1.0])
    assert want - tol <= critical_penetration(t1, t2).n0 <= want + tol
    assert len(calls) > 1


def test_margin_sees_narrow_bump_near_critical_rate():
    t1, t2 = BUMP_PAIR
    tau0 = critical_penetration(t1, t2).tau0
    below = multi_phase_margin([t1, t2], [tau0 - 1e-7, 1.0 - (tau0 - 1e-7)])
    above = multi_phase_margin([t1, t2], [tau0 + 1e-7, 1.0 - (tau0 + 1e-7)])
    assert below.verdict is MarginVerdict.UNSTABLE_FOR_LARGE_N
    assert 0.4 < below.argmax_y < 0.7
    assert above.verdict is MarginVerdict.STABLE_ALL_N


def test_tau1_merged_equals_split_unstable(ref_trios):
    t1, t2 = ref_trios
    merged = multi_phase_tau1([t1, t2], [1.0])
    split = multi_phase_tau1([t1, t2, t2], [0.5, 0.5])
    assert abs(merged - split) <= 1e-8


def test_tau1_zero_for_stable_remainder():
    rng = np.random.default_rng(37)
    others = [random_trio(rng, stable=True) for _ in range(2)]
    tau1 = multi_phase_tau1([T_STABLE] + others, [0.6, 0.4])
    assert tau1 == 0.0


@st.composite
def stabilizable_mixes(draw):
    """A stable class 1 and 1-3 remainder classes, the first of them unstable."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [False] + draw(st.lists(st.booleans(), min_size=0, max_size=2))
    trios = [random_trio(rng, stable=True)] + [random_trio(rng, stable=k) for k in kinds]
    shares = rng.uniform(0.1, 1.0, len(kinds))
    return trios, list(shares / shares.sum())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(stabilizable_mixes())
def test_tau1_separates_margin_signs(mix):
    # signs rather than verdicts: a margin this close to critical may sit
    # within MARGIN_TOL of zero
    trios, rates = mix
    tau1 = multi_phase_tau1(trios, rates)
    assume(0.0 < tau1 < 1.0)

    def sup_at(frac):
        return multi_phase_margin(trios, [frac] + [(1.0 - frac) * r for r in rates]).sup_margin

    assert sup_at(tau1 - 1e-6) > 0.0
    assert sup_at(tau1 + 1e-6) < 0.0


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(stabilizable_mixes())
def test_critical_points_match_the_roots_oracle_on_stabilizable_mixes(mix):
    trios, rates = mix
    tau1 = multi_phase_tau1(trios, rates)
    for frac in (0.0, tau1, 0.5 * (1.0 + tau1)):
        classes = _gain_classes(trios, [frac] + [(1.0 - frac) * r for r in rates])
        if any(g2 > c for _, g2, c, _ in classes):
            assert_critical_points_match_the_roots_oracle(classes)


def assert_first_unstable(trios, rates, m):
    """``m`` is unstable and no total below it is, by certified abscissas."""
    assert rightmost_eigenvalue(Fleet.from_rates(trios, rates, m)).real > ABSCISSA_TOL
    for n in range(2, m):
        assert rightmost_eigenvalue(Fleet.from_rates(trios, rates, n)).real <= ABSCISSA_TOL, n


def test_min_unstable_size_reference(ref_trios):
    _, t2 = ref_trios
    m = min_unstable_size([t2], [1.0], 2000)
    assert m is not None and m <= 200
    assert_first_unstable([t2], [1.0], m)
    # the certified abscissa agrees with a dense spectrum at the result
    assert dense_spectrum(RingSystem(tuple([t2] * m))).abscissa > 1e-9


@pytest.mark.parametrize("rate, expected", [(0.85, 10), (0.87, 12), (0.875, 13), (0.885, 14)])
def test_min_unstable_size_is_the_true_minimum(ref_trios, rate, expected):
    # instability is not monotone in the total (at 0.875: unstable at 13-14,
    # stable at 15-20), so a scan from the last stable probe overshoots
    trios, rates = list(ref_trios), [rate, 1.0 - rate]
    assert min_unstable_size(trios, rates, 400) == expected
    assert_first_unstable(trios, rates, expected)


def test_min_unstable_size_stable_composition():
    assert min_unstable_size([T_STABLE], [1.0], 64) is None
    for n in range(2, 65):
        assert rightmost_eigenvalue(Fleet.from_rates([T_STABLE], [1.0], n)).real <= ABSCISSA_TOL, n


@pytest.mark.parametrize("n_max", [1, 0, -5])
def test_min_unstable_size_checks_its_rates_without_a_fleet(monkeypatch, n_max):
    with pytest.raises(ValueError, match="rates"):
        min_unstable_size([T_STABLE, T_UNSTABLE], [0.5, 0.4], n_max)

    def no_count(*args):
        raise AssertionError("no size below 2 is counted")

    monkeypatch.setattr(stability, "_first_unstable", no_count)
    assert min_unstable_size([T_STABLE, T_UNSTABLE], [0.5, 0.5], n_max) is None


@pytest.mark.parametrize("n_max", [10**6 + 1, 10**12])
def test_min_unstable_size_refuses_an_n_max_above_a_million_before_any_fleet(monkeypatch, n_max):
    # the doubling probes once ran up to it: 10^12 ended in MemoryError after 13 s
    def no_count(*args):
        raise AssertionError("no fleet is built")

    monkeypatch.setattr(stability, "_first_unstable", no_count)
    with pytest.raises(ValueError, match=f"n_max must be at most 1000000, got {n_max}"):
        min_unstable_size([T_STABLE, T_UNSTABLE], [0.5, 0.5], n_max)


def test_min_unstable_size_straddles_critical_rate(ref_trios):
    # the abscissas are certified winding counts, free of eigensolver noise;
    # +-0.03 keeps the rounded class counts of small fleets on the intended
    # side of tau0 (at tau0 + 0.003, 19 + 3 vehicles still read unstable)
    t1, t2 = ref_trios
    tau0 = critical_penetration(t1, t2).tau0
    below = min_unstable_size([t1, t2], [tau0 - 0.03, 1 - (tau0 - 0.03)], 512)
    assert below is not None
    assert_first_unstable([t1, t2], [tau0 - 0.03, 1 - (tau0 - 0.03)], below)
    above = min_unstable_size([t1, t2], [tau0 + 0.03, 1 - (tau0 + 0.03)], 512)
    assert above is None


def test_margin_symmetry_of_unstable_gain(ref_trios):
    # key reflection: the gain takes equal values at y and at its mirror
    _, t2 = ref_trios
    d2 = discriminant(t2)
    a2 = t2.alpha**2
    g2 = t2.gamma**2
    ys = np.linspace(0.0, -d2, 200)
    mirror = a2 * (-d2 - ys) / (a2 + g2 * ys)
    lhs = log_gain(t2, mirror)
    rhs = log_gain(t2, ys)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_ratio_sup_restriction_to_gamma_sq(ref_trios):
    # restricting the maximization to (0, Gamma^2] loses nothing
    t1, t2 = ref_trios
    g = gamma_squared(t2)
    ys_restricted = np.geomspace(g * 1e-10, g, 200001)
    ys_wide = np.geomspace(g * 1e-10, -discriminant(t2) * 0.999999, 400001)
    ratio = lambda ys: -log_gain(t2, ys) / log_gain(t1, ys)
    assert ratio(ys_wide).max() <= ratio(ys_restricted).max() + 1e-8


def test_margin_sign_predicts_spectrum_small_fleets():
    rng = np.random.default_rng(41)
    t1 = random_trio(rng, stable=True)
    t2 = random_trio(rng, stable=False)
    for total in range(2, 15):
        for n1 in range(total + 1):
            n2 = total - n1
            rep = multi_phase_margin([t1, t2], [n1, n2])
            if rep.sup_margin < 0:
                for _ in range(20):
                    order = [t1] * n1 + [t2] * n2
                    rng.shuffle(order)
                    ab = dense_spectrum(RingSystem(tuple(order))).abscissa
                    assert ab < 0.0


def test_positive_margin_gives_finite_unstable_size():
    rng = np.random.default_rng(43)
    t1 = random_trio(rng, stable=True)
    t2 = random_trio(rng, stable=False)
    # pick a stable share decisively below this pair's own threshold
    rate = 0.8 * critical_penetration(t1, t2).tau0
    rep = multi_phase_margin([t1, t2], [rate, 1.0 - rate])
    assert rep.sup_margin > 0
    m = min_unstable_size([t1, t2], [rate, 1.0 - rate], 600)
    assert m is not None
    assert_first_unstable([t1, t2], [rate, 1.0 - rate], m)


def test_log_gain_scale_consistency_with_transfer(ref_trios):
    from ringwave import transfer_product

    t1, _ = ref_trios
    sys = RingSystem((t1,))
    for x in (0.5, 1.3, 3.7):
        per_vehicle = 2.0 * math.log(abs(transfer_product(sys, 1j * x)))
        assert log_gain(t1, x * x) == pytest.approx(per_vehicle, abs=1e-10)
