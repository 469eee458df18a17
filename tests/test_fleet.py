"""The class multiset ``Fleet``: validation, construction and the transfer product."""

import dataclasses

import numpy as np
import pytest

from ringwave import (
    Fleet,
    LinearTrio,
    RingSystem,
    min_unstable_size,
    multi_phase_tau1,
    transfer_product,
)
from ringwave._numerics import largest_remainder

from conftest import random_trio, single_class_spectrum

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


def test_from_ring_counts_the_classes_of_a_shuffled_ring():
    ring = [T_A] * 5 + [T_B] * 7 + [T_C]
    np.random.default_rng(3).shuffle(ring)
    fleet = Fleet.from_ring(RingSystem(tuple(ring)))
    assert dict(zip(fleet.trios, fleet.counts)) == {T_A: 5, T_B: 7, T_C: 1}


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
