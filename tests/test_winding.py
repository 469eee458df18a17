"""Winding counts and certified abscissas of fleets given as class multisets.

Dense ``eigvals`` on a shuffled ordering is the oracle: the spectrum depends
only on the multiset of trios, and block orderings (all of one class, then
all of the next) are the ill-conditioned case for a dense eigensolver.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringwave import (
    Fleet,
    LinearTrio,
    MarginVerdict,
    RingSystem,
    count_right_of,
    eigenvalues_on_H,
    multi_phase_margin,
    rightmost_eigenvalue,
    transfer_product,
)
from ringwave import spectrum
from ringwave.stability import ABSCISSA_TOL

from conftest import random_trio, single_class_spectrum

T_STABLE = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)  # delta = +2
T_UNSTABLE = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)  # delta = -1


def shuffled_ring(trios, counts, seed=0) -> RingSystem:
    ring = [t for t, c in zip(trios, counts) for _ in range(c)]
    np.random.default_rng(seed).shuffle(ring)
    return RingSystem(tuple(ring))


def test_count_single_vehicle():
    # one vehicle: eigenvalues 0 (structural) and gamma - beta = -1
    assert count_right_of(Fleet([T_STABLE], [1]), -1.01) == 1
    assert count_right_of(Fleet([T_STABLE], [1]), -0.99) == 0
    assert count_right_of(Fleet([T_STABLE], [1]), 0.5) == 0


def test_count_refuses_the_line_through_the_structural_zero():
    with pytest.raises(ValueError):
        count_right_of(Fleet([T_STABLE], [4]), 0.0)


def test_count_ignores_empty_classes():
    assert count_right_of(Fleet([T_STABLE, T_UNSTABLE], [6, 0]), -0.3) == count_right_of(
        Fleet([T_STABLE], [6]), -0.3
    )


def test_large_single_class_matches_closed_form():
    # |F| on the axis reaches exp(n * gain), far beyond the float range
    n = 20000
    lams = single_class_spectrum(T_UNSTABLE, n)
    fleet = Fleet([T_UNSTABLE], [n])
    assert count_right_of(fleet, ABSCISSA_TOL) == int((lams.real > ABSCISSA_TOL).sum())
    assert rightmost_eigenvalue(fleet).real == pytest.approx(lams.real.max(), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_small_single_class_matches_closed_form(n):
    lams = single_class_spectrum(T_STABLE, n)
    fleet = Fleet([T_STABLE], [n])
    for s in (-1.3, -0.41, -0.07, ABSCISSA_TOL, 0.2):
        assert count_right_of(fleet, s) == int((lams.real > s).sum())
    assert rightmost_eigenvalue(fleet).real == pytest.approx(lams.real.max(), abs=1e-9)


@pytest.fixture
def count_calls(monkeypatch):
    """The lines ``Re(lambda) = s`` that ``spectrum.count_right_of`` is asked about."""
    calls = []
    real_count = spectrum.count_right_of

    def counted(fleet, s):
        calls.append(s)
        return real_count(fleet, s)

    monkeypatch.setattr(spectrum, "count_right_of", counted)
    return calls


@pytest.mark.parametrize("trio", [T_STABLE, T_UNSTABLE])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 11, 22])
def test_one_class_certifies_with_two_counts(count_calls, trio, n):
    # the closed-form eigenvalues seed Newton, so no bisection on the count is needed
    root = rightmost_eigenvalue(Fleet([trio], [n]))
    assert len(count_calls) == 2
    assert root.real == pytest.approx(single_class_spectrum(trio, n).real.max(), abs=1e-12)


def test_random_one_class_rings_certify_with_two_counts(count_calls):
    rng = np.random.default_rng(17)
    for _ in range(40):
        trio, n = random_trio(rng, stable=bool(rng.integers(2))), int(rng.integers(2, 23))
        count_calls.clear()
        root = rightmost_eigenvalue(Fleet([trio], [n]))
        assert len(count_calls) == 2, (trio, n)
        assert root.real == pytest.approx(single_class_spectrum(trio, n).real.max(), abs=1e-10)


# dense eigvals returns a spurious abscissa near 0.254 (|F - 1| ~ 1) for the
# block ordering of this mix; the strongly damped first class makes it so
# non-normal that shuffling is needed for a trustworthy dense answer
BLOCK_ILL_MIX = ([LinearTrio(0.424, 2.534, 0.0837), LinearTrio(5.416, 1.372, 0.1547)], [19, 129])


def check_against_shuffled_dense(trios, counts):
    root = rightmost_eigenvalue(Fleet(trios, counts))
    ring = shuffled_ring(trios, counts)
    assert rightmost_eigenvalue(Fleet(trios, counts)).real == root.real
    assert abs(root.real - eigenvalues_on_H(ring).abscissa) <= 1e-9
    assert abs(transfer_product(ring, root) - 1.0) <= 1e-9


def test_abscissa_where_block_ordered_dense_is_wrong():
    check_against_shuffled_dense(*BLOCK_ILL_MIX)


def test_abscissa_reference_pair_at_800(ref_trios):
    # rate 0.8 at n = 800: block-ordered dense reads 0.0249, the true value is 0.015896...
    check_against_shuffled_dense(list(ref_trios), [640, 160])
    ab = rightmost_eigenvalue(Fleet.from_rates(list(ref_trios), [0.8, 0.2], 800)).real
    assert ab == pytest.approx(0.015896452385883, abs=1e-12)


def test_bisection_fallback_without_newton_roots(monkeypatch):
    # when the seeds find nothing, the abscissa comes from bisection on the count
    real_newton = spectrum._newton_roots
    calls = []

    def seeds_fail(cls, lam):
        calls.append(len(lam))
        return real_newton(cls, lam) if len(calls) > 1 else lam[:0]

    monkeypatch.setattr(spectrum, "_newton_roots", seeds_fail)
    trios, counts = [T_STABLE, T_UNSTABLE], [5, 7]
    root = rightmost_eigenvalue(Fleet(trios, counts))
    assert len(calls) == 2
    assert abs(root.real - eigenvalues_on_H(shuffled_ring(trios, counts)).abscissa) <= 1e-9
    assert abs(transfer_product(shuffled_ring(trios, counts), root) - 1.0) <= 1e-9


@st.composite
def fleets(draw):
    """Admissible 1-3-class mixes with discriminants bounded away from zero."""
    k = draw(st.integers(1, 3))
    trios = []
    for _ in range(k):
        gamma = draw(st.floats(0.2, 1.5))
        beta = gamma + draw(st.floats(0.2, 1.5))
        half_span = (beta * beta - gamma * gamma) / 2.0
        share = draw(st.one_of(st.floats(0.15, 0.85), st.floats(1.15, 2.5)))
        trios.append(LinearTrio(alpha=share * half_span, beta=beta, gamma=gamma))
    counts = draw(
        st.lists(st.integers(0, 100), min_size=k, max_size=k).filter(lambda c: sum(c) >= 2)
    )
    return trios, counts


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(fleets())
def test_count_and_abscissa_match_shuffled_dense(fleet):
    trios, counts = fleet
    dense = eigenvalues_on_H(shuffled_ring(trios, counts, seed=sum(counts))).eigenvalues
    fleet = Fleet(trios, counts)
    assert count_right_of(fleet, ABSCISSA_TOL) == int((dense.real > ABSCISSA_TOL).sum())
    assert abs(rightmost_eigenvalue(fleet).real - dense.real.max()) <= 1e-9
    # a negative margin means stable for these exact counts: no eigenvalue to the right
    if multi_phase_margin(trios, counts).verdict is MarginVerdict.STABLE_ALL_N:
        assert count_right_of(fleet, ABSCISSA_TOL) == 0
