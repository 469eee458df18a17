"""Shared fixtures: the calibrated two-class reference scenario.

Class 1 (a=4, b=20) is strongly stable and class 2 (a=0.5, b=20) mildly
unstable at a common headway of 10.4 m once the preference slope there is
1.27491 1/s; that slope makes the discriminants land at 7.28 and -0.84.
"""

import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    Composition,
    LinearTrio,
    PopulationSpec,
    block_ordering,
    equilibrium_from_velocity,
    eval_preference,
    linearize,
    preference_with_slope,
    spread_ordering,
)

REF_HEADWAY = 10.4
# slope solving a1*(a1 + 2*b1/h^2 - 2*s) = 7.28 for (a1, b1) = (4, 20)
REF_SLOPE = (4.0 + 2.0 * 20.0 / REF_HEADWAY**2 - 7.28 / 4.0) / 2.0
REF_LV = 4.5
REF_D0 = 2.23


@pytest.fixture(scope="session")
def ref_pref():
    return preference_with_slope(REF_SLOPE, REF_HEADWAY, REF_LV, REF_D0)


@pytest.fixture(scope="session")
def ref_models(ref_pref):
    return BandoFtl(a=4.0, b=20.0, pref=ref_pref), BandoFtl(a=0.5, b=20.0, pref=ref_pref)


@pytest.fixture(scope="session")
def ref_v_bar(ref_pref):
    return eval_preference(ref_pref, REF_HEADWAY)


@pytest.fixture(scope="session")
def ref_trios(ref_models, ref_v_bar):
    m1, m2 = ref_models
    return (
        linearize(m1, REF_HEADWAY, ref_v_bar),
        linearize(m2, REF_HEADWAY, ref_v_bar),
    )


def composition_of(models, counts, ordering="spread") -> Composition:
    pops = tuple(
        PopulationSpec(class_id=i + 1, model=m, count=c)
        for i, (m, c) in enumerate(zip(models, counts))
    )
    if ordering == "spread":
        order = spread_ordering(pops)
    elif ordering == "blocks":
        order = block_ordering(pops)
    else:
        order = tuple(ordering)
    return Composition(populations=pops, ordering=order)


def random_trio(rng: np.random.Generator, stable: bool) -> LinearTrio:
    """Common-sense trio with a discriminant bounded away from zero."""
    gamma = rng.uniform(0.2, 1.5)
    beta = gamma + rng.uniform(0.2, 1.5)
    half_span = (beta * beta - gamma * gamma) / 2.0
    if stable:
        alpha = rng.uniform(0.15, 0.85) * half_span
    else:
        alpha = rng.uniform(1.15, 2.5) * half_span
    return LinearTrio(alpha=alpha, beta=beta, gamma=gamma)


def single_class_spectrum(t: LinearTrio, n: int) -> np.ndarray:
    """All 2n - 1 eigenvalues of n identical vehicles, in closed form.

    ``T(lam) = exp(i theta_m)`` with ``theta_m = 2 pi m / n`` is the quadratic
    ``lam^2 + (beta - gamma w) lam + alpha (1 - w) = 0`` with ``w = exp(-i theta_m)``;
    ``m = 0`` gives the structural zero, dropped here, and ``gamma - beta``.
    """
    w = np.exp(-2j * np.pi * np.arange(n) / n)
    b = t.beta - t.gamma * w
    root = np.sqrt(b * b - 4.0 * t.alpha * (1.0 - w))
    lams = np.concatenate(((-b + root) / 2.0, (-b - root) / 2.0))
    return np.delete(lams, np.argmin(np.abs(lams)))


def ring_of(trios_by_class, ordering) -> tuple:
    return tuple(trios_by_class[a] for a in ordering)
