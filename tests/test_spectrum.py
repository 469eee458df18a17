import cmath
import math

import numpy as np
import pytest

from ringwave import (
    LinearTrio,
    PoleError,
    RingSystem,
    assemble,
    char_poly_eval,
    discriminant,
    eigenvalues_on_H,
    log_gain,
    transfer_product,
)

from conftest import random_trio

T_STABLE = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)  # delta = +2
T_UNSTABLE = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)  # delta = -1


def random_system(rng, n, stable_fraction=0.5):
    trios = tuple(
        random_trio(rng, stable=rng.uniform() < stable_fraction) for _ in range(n)
    )
    return RingSystem(trios)


def test_assemble_row_sums_of_difference_block():
    sys = RingSystem(tuple([T_STABLE] * 5))
    m = assemble(sys)
    a_blk = m[:5, 5:]
    assert np.allclose(a_blk.sum(axis=1), 0.0)


def test_assemble_matches_hand_written_4x4_blocks():
    ta = LinearTrio(alpha=1.0, beta=3.0, gamma=2.0)
    tb = LinearTrio(alpha=4.0, beta=6.0, gamma=5.0)
    m = assemble(RingSystem((ta, tb)))
    expected = np.array(
        [
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 1.0, -1.0],
            [1.0, 0.0, -3.0, 2.0],
            [0.0, 4.0, 5.0, -6.0],
        ]
    )
    assert np.array_equal(m, expected)


def test_uniform_velocity_direction_decays():
    # on (y=0, u=1...1) the velocity block yields gamma_j - beta_j < 0
    trios = (T_STABLE, T_UNSTABLE, T_STABLE)
    m = assemble(RingSystem(trios))
    z = np.concatenate([np.zeros(3), np.ones(3)])
    out = m @ z
    assert np.allclose(out[:3], 0.0)
    assert np.allclose(out[3:], [t.gamma - t.beta for t in trios])
    assert np.all(out[3:] < 0)


def test_assemble_rejects_single_vehicle():
    with pytest.raises(ValueError):
        assemble(RingSystem((T_STABLE,)))
    with pytest.raises(ValueError):
        eigenvalues_on_H(RingSystem((T_STABLE,)))


def test_stable_unified_ring_has_negative_abscissa():
    rep = eigenvalues_on_H(RingSystem(tuple([T_STABLE] * 20)))
    assert rep.zero_excluded
    assert len(rep.eigenvalues) == 39
    assert rep.abscissa < 0.0


def test_unstable_unified_ring_goes_positive_for_some_n(ref_trios):
    _, t2 = ref_trios
    abscissas = []
    for n in range(2, 201, 6):
        abscissas.append(eigenvalues_on_H(RingSystem(tuple([t2] * n))).abscissa)
        if abscissas[-1] > 0:
            break
    assert max(abscissas) > 0.0


def test_structural_zero_is_simple():
    # admissible trios guarantee exactly one eigenvalue at the origin
    rng = np.random.default_rng(0)
    for _ in range(20):
        sys = random_system(rng, int(rng.integers(2, 12)))
        m = assemble(sys)
        lam = np.linalg.eigvals(m)
        tol = 1e-8 * np.abs(m).sum(axis=1).max()
        assert int((np.abs(lam) <= tol).sum()) == 1


def test_spectrum_conjugate_symmetry():
    rng = np.random.default_rng(1)
    sys = random_system(rng, 9)
    rep = eigenvalues_on_H(sys)
    lams = rep.eigenvalues
    # every eigenvalue with nonzero imaginary part has its conjugate present
    for lam in lams:
        if abs(lam.imag) > 1e-12:
            assert np.min(np.abs(lams - lam.conjugate())) < 1e-9


def test_char_poly_zero_at_origin():
    rng = np.random.default_rng(2)
    for _ in range(10):
        sys = random_system(rng, int(rng.integers(2, 30)))
        scale = abs(np.prod([t.alpha for t in sys.trios]))
        assert abs(char_poly_eval(sys, 0.0)) <= 1e-12 * scale


def test_char_poly_single_vehicle_roots():
    sys = RingSystem((LinearTrio(2.0, 3.0, 1.0),))
    # chi(lam) = lam^2 + (beta - gamma) lam: roots 0 and gamma - beta
    assert char_poly_eval(sys, 0.0) == 0.0
    assert abs(char_poly_eval(sys, 1.0 - 3.0)) < 1e-12
    assert abs(char_poly_eval(sys, 1.0)) > 0.1


def test_char_poly_matches_lu_determinant():
    rng = np.random.default_rng(3)
    for _ in range(12):
        n = int(rng.integers(2, 25))
        sys = random_system(rng, n)
        m = assemble(sys)
        lam = complex(rng.normal(), rng.normal())
        sign, logdet = np.linalg.slogdet(lam * np.eye(2 * n) - m)
        det = sign * np.exp(logdet)
        val = char_poly_eval(sys, lam)
        assert val == pytest.approx(det, rel=1e-8)


def test_char_poly_residual_at_eigenvalues():
    rng = np.random.default_rng(4)
    sys = random_system(rng, 14)
    rep = eigenvalues_on_H(sys)
    log_scale = sum(math.log(abs(t.alpha)) for t in sys.trios)
    for lam in rep.eigenvalues[:: max(1, len(rep.eigenvalues) // 8)]:
        quad = sum(
            cmath.log(lam * lam + t.beta * lam + t.alpha) for t in sys.trios
        )
        scale = max(abs(cmath.exp(quad)), math.exp(log_scale))
        assert abs(char_poly_eval(sys, lam)) <= 1e-6 * scale


def test_transfer_product_is_one_at_zero_and_eigenvalues():
    rng = np.random.default_rng(5)
    sys = random_system(rng, 11)
    assert transfer_product(sys, 0.0) == 1.0 + 0.0j
    rep = eigenvalues_on_H(sys)
    for lam in rep.eigenvalues:
        assert abs(transfer_product(sys, lam) - 1.0) <= 1e-6


def test_transfer_product_decays_far_up_the_axis():
    rng = np.random.default_rng(6)
    sys = random_system(rng, 8)
    assert abs(transfer_product(sys, 1e6j)) < 1e-12


def test_transfer_product_log_path_consistent_with_direct():
    rng = np.random.default_rng(7)
    trios = tuple(random_trio(rng, True) for _ in range(70))
    big = RingSystem(trios)
    z = 0.3 + 0.9j
    direct = 1.0 + 0.0j
    for t in trios:
        direct *= (t.gamma * z + t.alpha) / (z * z + t.beta * z + t.alpha)
    assert transfer_product(big, z) == pytest.approx(direct, rel=1e-10)


def test_transfer_product_pole_error():
    # alpha=1, beta=2 puts a double pole exactly at z = -1
    sys = RingSystem((LinearTrio(1.0, 2.0, 1.5),))
    with pytest.raises(PoleError):
        transfer_product(sys, -1.0)


def test_squared_gain_identity_on_axis():
    rng = np.random.default_rng(8)
    sys = random_system(rng, 7)
    for x in (0.3, 1.1, 2.9):
        lhs = 2.0 * math.log(abs(transfer_product(sys, 1j * x)))
        rhs = sum(log_gain(t, x * x) for t in sys.trios)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_ordering_invariance_of_spectrum():
    rng = np.random.default_rng(9)
    base = [random_trio(rng, rng.uniform() < 0.5) for _ in range(16)]
    ref = np.sort_complex(eigenvalues_on_H(RingSystem(tuple(base))).eigenvalues)
    for _ in range(8):
        perm = list(base)
        rng.shuffle(perm)
        lams = np.sort_complex(eigenvalues_on_H(RingSystem(tuple(perm))).eigenvalues)
        assert np.max(np.abs(lams - ref)) < 1e-7


def test_char_poly_derivative_at_zero_formula():
    # chi'(0) = prod(alpha) * sum((beta-gamma)/alpha), checked by complex step
    rng = np.random.default_rng(10)
    for _ in range(50):
        sys = random_system(rng, int(rng.integers(2, 16)))
        prod_alpha = np.prod([t.alpha for t in sys.trios])
        expected = prod_alpha * sum((t.beta - t.gamma) / t.alpha for t in sys.trios)
        eps = 1e-8
        cstep = char_poly_eval(sys, 1j * eps).imag / eps
        assert cstep == pytest.approx(expected, rel=1e-5)
        assert expected != 0.0
