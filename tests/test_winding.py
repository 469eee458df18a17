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
    PoleError,
    RingSystem,
    count_right_of,
    eigenvalues_on_H,
    multi_phase_margin,
    rightmost_eigenvalue,
    rightmost_eigenvalues,
    transfer_product,
)
from ringwave import spectrum
from ringwave._numerics import spread
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


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_count_refuses_a_line_that_is_not_finite(s):
    with pytest.raises(ValueError, match="not finite"):
        count_right_of(Fleet([T_STABLE, T_UNSTABLE], [3, 2]), s)


def test_misfit_refuses_a_root_counted_twice():
    fleet = Fleet([T_STABLE, T_UNSTABLE], [5, 3])
    report = spectrum.eigenvalues(fleet)
    assert spectrum.misfit(fleet, report) == ""
    lam = report.eigenvalues.copy()
    lam[0] = lam[1]
    twice = spectrum.SpectrumReport(eigenvalues=lam, abscissa=report.abscissa)
    assert spectrum.misfit(fleet, twice) == "1 repeat another value's root"


def test_count_refuses_a_line_through_a_pole():
    fleet = Fleet([T_STABLE, T_UNSTABLE], [3, 2])
    with pytest.raises(PoleError):
        count_right_of(fleet, float(fleet.roots.real[0, 0]))


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
    """The lines ``Re(lambda) = s`` whose winding ``spectrum._line_counts`` is asked to count."""
    calls = []
    real_counts = spectrum._line_counts

    def counted(lines):
        calls.extend(s for _, s in lines)
        return real_counts(lines)

    monkeypatch.setattr(spectrum, "_line_counts", counted)
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


@pytest.fixture
def spectra(monkeypatch):
    """The fleets whose spectrum ``spectrum._class_count_spectrum`` is asked to solve."""
    calls = []
    real_solve = spectrum._class_count_spectrum
    monkeypatch.setattr(spectrum, "_class_count_spectrum", lambda fleet: calls.append(fleet) or real_solve(fleet))
    return calls


def test_certified_spectrum_fallback_without_newton_roots(monkeypatch, spectra):
    # when the seeds find nothing, the top comes from the certified spectrum
    real_newton = spectrum._newton_roots
    calls = []

    def seeds_fail(fleet, lam, counts, ln):
        calls.append(len(lam))
        return real_newton(fleet, lam, counts, ln) if len(calls) > 1 else (lam[:0], ln[:0])

    monkeypatch.setattr(spectrum, "_newton_roots", seeds_fail)
    trios, counts = [T_STABLE, T_UNSTABLE], [5, 7]
    root = rightmost_eigenvalue(Fleet(trios, counts))
    assert len(calls) == 1 and len(spectra) == 1
    assert abs(root.real - eigenvalues_on_H(shuffled_ring(trios, counts)).abscissa) <= 1e-9
    assert abs(transfer_product(shuffled_ring(trios, counts), root) - 1.0) <= 1e-9


# the Newton top of each of these fails its two counts
FALLBACK_FLEETS = [
    (
        [
            LinearTrio(0.48329896108226544, 1.032813486166914, 0.8154842688655806),
            LinearTrio(0.09711404612964356, 0.859940346119107, 0.5380908840323894),
        ],
        [1, 1],
    ),
    (
        [
            LinearTrio(0.2780147575566524, 1.313779267336212, 0.5261363075008848),
            LinearTrio(1.5662397395682945, 1.7042953118044322, 0.4900168531262588),
        ],
        [3, 2],
    ),
]


@pytest.mark.parametrize("trios, counts", FALLBACK_FLEETS)
def test_uncertified_newton_top_falls_back_on_the_spectrum(spectra, trios, counts):
    root = rightmost_eigenvalue(Fleet(trios, counts))
    assert len(spectra) == 1
    ring = RingSystem(tuple(trios[k] for k in spread(counts)))
    assert abs(root.real - eigenvalues_on_H(ring).abscissa) <= 1e-9


def test_fallback_certifies_the_top_where_a_root_sits_on_a_simple_pole():
    # Newton misses the top pair; one root lies closer to the simple pole at -0.316277 than
    # a double resolves, so no spectrum passes misfit, but the top passes its own certificate
    trios = [
        LinearTrio(0.4509827418348047, 2.3791363201764, 1.4193323848898762),
        LinearTrio(0.3605738128559362, 1.4563341170277577, 1.0114160439256232),
    ]
    fleet = Fleet(trios, [8, 1])
    with pytest.raises(FloatingPointError, match="1 of 17 miss F"):
        spectrum.eigenvalues(fleet)
    root = rightmost_eigenvalue(fleet)
    ring = RingSystem(tuple(trios[k] for k in spread([8, 1])))
    assert abs(root.real - eigenvalues_on_H(ring).abscissa) <= 1e-9
    assert root.imag > 0.1 and fleet.root_error(root)[0] <= 1e-12


def test_top_of_a_first_order_lag_ring():
    # alpha and beta near 1e30 make the ring a first-order lag, lam = c (w - 1), c = alpha / beta,
    # w^10 = 1; its Newton top fails the counts, and the closed-form roots leave the full spectrum
    # uncertified
    trio = LinearTrio(alpha=4.839339011899325e29, beta=1e30, gamma=0.9876543200805932)
    root = rightmost_eigenvalue(Fleet([trio], [10]))
    expected = trio.alpha / trio.beta * (np.exp(0.2j * np.pi) - 1.0)
    assert abs(root - expected) <= 1e-12 * abs(expected)


def test_top_is_the_upper_member_of_its_pair():
    # Im is the wave's angular frequency, whichever member Newton or the spectrum found
    rng = np.random.default_rng(23)
    batch = []
    for _ in range(200):
        k, n = int(rng.integers(1, 3)), int(rng.integers(2, 40))
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k)]
        batch.append(Fleet(trios, [int(c) for c in rng.integers(1, n, k)]))
    batch += [Fleet(*fleet) for fleet in FALLBACK_FLEETS]
    tops = rightmost_eigenvalues(batch)
    assert min(top.imag for top in tops) >= 0.0
    assert sum(top.imag > 0.0 for top in tops) > 100


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


@st.composite
def batches(draw):
    """2-8 fleets over two drawn sets of 1-3 classes, with counts 0-70 per class.

    Zero counts leave a class out, so fleets over one set of classes still
    differ in the classes they have, and sizes run from 1 to 210.
    """
    bases = [draw(fleets())[0] for _ in range(2)]
    batch = []
    for _ in range(draw(st.integers(2, 8))):
        trios = bases[draw(st.integers(0, 1))]
        sizes = st.lists(st.integers(0, 70), min_size=len(trios), max_size=len(trios))
        batch.append(Fleet(trios, draw(sizes.filter(lambda c: sum(c) >= 1))))
    return batch


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(batches(), st.sampled_from([-0.3, -0.05, ABSCISSA_TOL, 0.05]))
def test_batched_counts_and_abscissas_equal_one_fleet_at_a_time(batch, s):
    # each line's arithmetic is elementwise or summed in its own order, so the batch is bit-exact
    lines = [(fleet, s) for fleet in batch]
    assert spectrum._line_counts(lines) == [count_right_of(fleet, s) for fleet in batch]
    assert rightmost_eigenvalues(batch) == [rightmost_eigenvalue(fleet) for fleet in batch]


def test_the_first_failing_fleet_of_a_batch_raises(monkeypatch):
    # as one fleet at a time would: the failure of the earliest fleet in the batch's order
    first, second = Fleet([T_STABLE, T_UNSTABLE], [5, 7]), Fleet([T_STABLE, T_UNSTABLE], [3, 9])
    errors = {id(first): FloatingPointError("first"), id(second): PoleError("second")}
    real_counts = spectrum._line_counts

    def failing(lines):
        return [errors.get(id(fleet), count) for (fleet, _), count in zip(lines, real_counts(lines))]

    monkeypatch.setattr(spectrum, "_line_counts", failing)
    with pytest.raises(FloatingPointError, match="first"):
        rightmost_eigenvalues([Fleet([T_STABLE], [4]), first, second])
    with pytest.raises(PoleError, match="second"):
        rightmost_eigenvalues([second, Fleet([T_STABLE], [4]), first])


def test_counts_next_to_the_structural_zero_match_the_unclustered_grid(monkeypatch):
    # without _zero_cluster a line reaches the structural zero by refinement alone, a quarter closer a round
    rng = np.random.default_rng(26)
    lines = []
    for _ in range(40):
        k = int(rng.integers(1, 4))
        trios = [random_trio(rng, stable=bool(rng.integers(2))) for _ in range(k)]
        lines += [(Fleet(trios, rng.integers(1, 40, k).tolist()), s) for s in (1e-9, -1e-9, 1e-12, -1e-12)]
    passes = []
    real_log_product = spectrum._log_product

    def counted(*args):
        passes.append(1)
        return real_log_product(*args)

    monkeypatch.setattr(spectrum, "_log_product", counted)
    clustered = [count_right_of(fleet, s) for fleet, s in lines]
    clustered_passes = len(passes)
    monkeypatch.setattr(spectrum, "_zero_cluster", lambda d, x_tail: np.zeros(0))
    passes.clear()
    assert [count_right_of(fleet, s) for fleet, s in lines] == clustered
    assert clustered_passes < len(passes)
