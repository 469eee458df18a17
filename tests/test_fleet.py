"""The class multiset ``Fleet``: validation, construction and the transfer product."""

import dataclasses
import decimal
import math

import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    Fleet,
    LinearTrio,
    PopulationSpec,
    RingSystem,
    VelocityPreference,
    margin_curve,
    min_unstable_size,
    multi_phase_margin,
    multi_phase_tau1,
    transfer_product,
)
from ringwave._numerics import largest_remainder, spread
from ringwave.spectrum import _class_count_spectrum, _log_product, coincident, misfit

from conftest import assert_one_to_one, random_trio, single_class_spectrum
from oracle import dense_spectrum

T_A = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)
T_B = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)
T_C = LinearTrio(alpha=1.0, beta=3.0, gamma=0.5)


@pytest.mark.parametrize(
    "trios, counts",
    [
        ([T_A, T_B], [3]),  # mismatched lengths
        ([], []),
        ([T_A, T_B], [3, -1]),  # negative count
        ([T_A, T_B], [3, 2.5]),  # non-integer count
        ([T_A], [float("nan")]),
        ([T_A, T_B], [0, 0]),  # no vehicle
        ([T_A, T_B], [float("inf"), 5]),
        ([T_A, T_B], [5, float("-inf")]),
    ],
)
def test_fleet_rejects(trios, counts):
    with pytest.raises(ValueError):
        Fleet(trios, counts)


def test_fleet_drops_zero_counts():
    fleet = Fleet([T_A, T_B, T_C], [3, 0, 2.0])
    assert fleet.trios == (T_A, T_C)
    assert fleet.counts == (3, 2) and all(type(c) is int for c in fleet.counts)
    assert fleet.alpha.shape == fleet.count.shape == (2, 1)
    assert fleet.roots.shape == (2, 2)
    np.testing.assert_array_equal(fleet.count.ravel(), [3.0, 2.0])
    # every root solves its class's q_k
    q = fleet.roots**2 + fleet.beta * fleet.roots + fleet.alpha
    assert np.abs(q).max() <= 1e-12


def test_fleet_is_immutable():
    fleet = Fleet([T_A], [4])
    with pytest.raises(dataclasses.FrozenInstanceError):
        fleet.counts = (5,)
    with pytest.raises(ValueError):
        fleet.alpha[0, 0] = 1.0


def test_transfer_product_of_a_shuffled_ring_is_its_fleets_transfer():
    # the benchmark checks a spectrum solved from the class counts with transfer_product on the ring
    ring = [T_A] * 5 + [T_B] * 7 + [T_C]
    np.random.default_rng(3).shuffle(ring)
    classes = tuple(dict.fromkeys(ring))  # in the order the ring meets them, so the classes sum alike
    fleet = Fleet(classes, [ring.count(t) for t in classes])
    assert dict(zip(fleet.trios, fleet.counts)) == {T_A: 5, T_B: 7, T_C: 1}
    z = np.array([0.0, 0.3 + 0.9j, -0.2 + 2.5j, 1.7, 0.05j])
    np.testing.assert_array_equal([transfer_product(RingSystem(tuple(ring)), p) for p in z], fleet.transfer(z))


@pytest.mark.parametrize("rates", [[0.875, 0.125], [0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [1 / 3] * 3])
@pytest.mark.parametrize("n", [2, 7, 13, 400])
def test_from_rates_is_largest_remainder(rates, n):
    trios = [T_A, T_B, T_C][: len(rates)]
    counts = largest_remainder(rates, n)
    fleet = Fleet.from_rates(trios, rates, n)
    assert fleet.counts == tuple(c for c in counts if c)
    assert fleet.trios == tuple(t for t, c in zip(trios, counts) if c)
    assert sum(fleet.counts) == n


@pytest.mark.parametrize(
    "trios, rates",
    [
        ([T_A, T_B], [0.5]),  # mismatched lengths
        ([T_A, T_B], [1.2, -0.2]),  # negative rate
        ([T_A, T_B], [0.5, 0.4]),  # does not sum to 1
    ],
)
def test_from_rates_rejects_the_rates_it_always_rejected(trios, rates):
    with pytest.raises(ValueError):
        Fleet.from_rates(trios, rates, 10)
    with pytest.raises(ValueError):
        min_unstable_size(trios, rates, 10)
    with pytest.raises(ValueError):
        multi_phase_tau1([T_A] + trios, rates)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 10.5, 12.000000000000002])
def test_a_size_that_is_not_a_finite_whole_number_is_refused(n):
    # at n_max = inf the doubling probes never reached it, and at nan one probe answered
    with pytest.raises(ValueError, match="finite whole number"):
        Fleet.from_rates([T_A, T_B], [0.5, 0.5], n)
    with pytest.raises(ValueError, match="finite whole number"):
        min_unstable_size([T_A, T_B], [0.5, 0.5], n)


_HUGE = 10**400  # an int beyond the largest double


@pytest.mark.parametrize(
    "call",
    [
        lambda: Fleet([T_A], [_HUGE]),
        lambda: multi_phase_margin([T_A], [_HUGE]),
        lambda: margin_curve([T_A], [_HUGE], 8),
        lambda: PopulationSpec(1, BandoFtl(1.0, 1.0, VelocityPreference(9.72, 4.5, 2.23)), _HUGE),
        lambda: Fleet.from_rates([T_A, T_B], [0.5, 0.5], _HUGE),
        lambda: min_unstable_size([T_A, T_B], [0.5, 0.5], _HUGE),
    ],
    ids=["Fleet", "multi_phase_margin", "margin_curve", "PopulationSpec", "from_rates", "min_unstable_size"],
)
def test_an_int_count_beyond_the_largest_double_is_refused(call):
    # math.isfinite raises OverflowError on such an int
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize("n", [12.0, np.float64(12.0), np.int64(12)])
def test_a_whole_size_of_any_number_type_reads_as_an_int(n):
    fleet = Fleet.from_rates([T_A, T_B], [0.5, 0.5], n)
    assert fleet.counts == (6, 6) and all(type(c) is int for c in fleet.counts)
    assert min_unstable_size([T_A, T_B], [0.0, 1.0], n) == 10


def test_transfer_product_at_64_matches_the_direct_product():
    rng = np.random.default_rng(11)
    classes = [random_trio(rng, stable=bool(k % 2)) for k in range(5)]
    ring = [classes[k] for k in rng.integers(0, 5, 64)]
    sys = RingSystem(tuple(ring))
    for z in (0.3 + 0.9j, -0.2 + 2.5j, 1.7, 0.05j):
        direct = 1.0 + 0.0j
        for t in ring:
            direct *= (t.gamma * z + t.alpha) / (z * z + t.beta * z + t.alpha)
        assert abs(transfer_product(sys, z) - direct) <= 1e-12 * abs(direct)


def test_transfer_is_vectorised_over_points():
    fleet = Fleet([T_A, T_B], [30, 10])
    z = np.array([0.0, 0.4 + 1.1j, -0.3 + 0.2j])
    ring = RingSystem(tuple([T_A] * 30 + [T_B] * 10))
    np.testing.assert_array_equal(fleet.transfer(z), [transfer_product(ring, p) for p in z])
    assert fleet.transfer(0.0)[0] == 1.0


@pytest.mark.parametrize("trio, n", [(T_A, 12), (T_B, 30)])
def test_root_error_measures_the_distance_to_an_eigenvalue(trio, n):
    fleet = Fleet([trio], [n])
    lam = single_class_spectrum(trio, n)
    assert np.all(fleet.root_error(lam) <= 1e-12 * np.abs(lam))
    for d in (1e-9, -1e-9, 1e-9j, 1e-9 * np.exp(0.7j)):
        np.testing.assert_allclose(fleet.root_error(lam + d), 1e-9, rtol=1e-3)


def test_root_error_is_infinite_at_and_next_to_zeros_and_poles():
    fleet = Fleet([T_A, T_B], [30, 10])
    sites = np.concatenate(((-fleet.alpha / fleet.gamma).ravel(), fleet.roots.ravel()))
    offsets = np.array([0.0, 1e-12, 1e-6, 1e-6j, 1e-3, -1e-3j])
    for site in sites:
        assert np.all(fleet.root_error(site + offsets) == np.inf)


def random_fleet(rng):
    k = int(rng.integers(1, 4))
    trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k)]
    return Fleet(trios, [int(c) for c in rng.integers(1, 60, k)])


def test_sites_are_the_zeros_and_poles_of_f():
    rng = np.random.default_rng(21)
    for _ in range(20):
        fleet = random_fleet(rng)
        k = len(fleet.counts)
        assert fleet.sites.shape == fleet.order.shape == (3 * k, 1)
        assert not fleet.sites.flags.writeable and not fleet.order.flags.writeable
        zeros, poles = fleet.sites[:k], fleet.sites[k:].reshape(2, k, 1)
        assert np.abs(fleet.gamma * zeros + fleet.alpha).max() <= 1e-12 * fleet.alpha.max()
        assert np.abs(poles * poles + fleet.beta * poles + fleet.alpha).max() <= 1e-12 * fleet.alpha.max()
        np.testing.assert_array_equal(fleet.order[:k], fleet.count)
        np.testing.assert_array_equal(fleet.order[k:].reshape(2, k, 1), [-fleet.count] * 2)
        assert fleet.order.sum() == -sum(fleet.counts)


@pytest.mark.parametrize("beta", [1e4, 1e5, 1e6, 1e7, 1e8])
def test_small_real_pole_is_free_of_cancellation(beta):
    # (-beta + sqrt(beta^2 - 4 alpha)) / 2 read -7.45e-9 for the root -1e-8 at beta = 1e8
    small, big = Fleet([LinearTrio(1.0, beta, 0.5)], [1]).roots[0]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b = decimal.Decimal(beta)
        exact = float(2 / (-b - (b * b - 4).sqrt()))  # alpha over the large root, by Vieta
    assert small.imag == 0.0 and big.imag == 0.0
    assert abs(small.real - exact) <= 1e-15 * abs(exact)


@pytest.mark.parametrize("distance", [1e-6, 1e-9, 1e-12])
def test_log_product_matches_the_direct_sum_next_to_each_zero(distance):
    # 1 + u_k cancels next to a zero of p_k: there the evaluator must read log p_k - log q_k
    rng = np.random.default_rng(17)
    for _ in range(30):
        fleet = random_fleet(rng)
        zeros = fleet.sites[: len(fleet.counts), 0]
        lam = zeros + distance * np.exp(2j * np.pi * rng.random(zeros.size))
        log_abs, arg = _log_product(fleet, lam)
        p = fleet.gamma * lam + fleet.alpha
        q = lam * lam + fleet.beta * lam + fleet.alpha
        direct = (fleet.count * (np.log(p) - np.log(q))).sum(axis=0)
        np.testing.assert_allclose(log_abs, direct.real, rtol=1e-12, atol=0)
        assert np.abs(np.angle(np.exp(1j * (arg - direct.imag)))).max() <= 1e-11


def _spread_ring(fleet):
    return RingSystem(tuple(fleet.trios[k] for k in spread(fleet.counts)))


def test_eigenvalues_match_dense_one_to_one():
    # spread fleets of 1-3 classes and 2-198 vehicles (dense needs two)
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k)]
        fleet = Fleet(trios, [int(c) for c in rng.integers(2, 67, k)])
        lam = _class_count_spectrum(fleet).eigenvalues
        assert lam.size == 2 * sum(fleet.counts) - 1
        np.testing.assert_array_equal(np.sort_complex(lam.conj()), lam)
        assert_one_to_one(lam, dense_spectrum(_spread_ring(fleet)).eigenvalues, 1e-9)


def _corpus_draw(seed, index):
    """Draw ``index`` of the random-fleet corpus: 1-3 random trios, with counts below 20, 60 or 140."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        k = rng.integers(1, 4)
        cap = rng.choice([20, 60, 140])
        trios = [random_trio(rng, stable=rng.random() < 0.5) for _ in range(k)]
        counts = [int(c) for c in rng.integers(1, cap, k)]
    return Fleet(trios, counts)


@pytest.mark.parametrize("index, counts", [(83, (35, 59, 49)), (297, (126, 15))])
def test_eigenvalues_settle_past_a_hundred_sweeps(index, counts):
    # 100 sweeps of Aberth left 51 of 285 and 75 of 281 values off F = 1 on these fleets
    fleet = _corpus_draw(1, index)
    assert fleet.counts == counts
    report = _class_count_spectrum(fleet)
    assert misfit(fleet, report) == ""
    assert_one_to_one(report.eigenvalues, dense_spectrum(_spread_ring(fleet)).eigenvalues, 1e-9)


@pytest.mark.parametrize("trio, n", [(T_A, 1), (T_A, 12), (T_B, 2), (T_B, 31), (T_C, 64)])
def test_eigenvalues_of_one_class_are_its_closed_form(trio, n):
    lam = _class_count_spectrum(Fleet([trio], [n])).eigenvalues
    assert_one_to_one(lam, single_class_spectrum(trio, n), 1e-12)


def test_coincident_marks_all_but_one_of_each_group():
    lam = np.array([1.0 + 1j, 1.0 - 1j, 1.0 + 1j + 1e-9, 2.0, 3.0, 3.0 + 1e-14, 3.0 - 1e-14])
    marked = coincident(lam, np.full(lam.size, 1e-12))
    assert not marked[:4].any() and marked[4:].sum() == 2
    # radii of 1e-9 join the two values near 1 + 1j
    marked = coincident(lam, np.full(lam.size, 1e-9))
    assert marked[[0, 2]].sum() == 1 and not marked[[1, 3]].any() and marked[4:].sum() == 2
    assert not coincident(lam[:0], lam.real[:0]).size
