"""Shared fixtures: the calibrated two-class reference scenario.

Class 1 (a=4, b=20) is strongly stable and class 2 (a=0.5, b=20) mildly
unstable at a common headway of 10.4 m once the preference slope there is
1.27491 1/s; that slope makes the discriminants land at 7.28 and -0.84.
"""

import functools
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from ringwave import (
    BandoFtl,
    Composition,
    LinearTrio,
    PopulationSpec,
    RingSystem,
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


def shuffled_ring(trios, counts, seed=0) -> RingSystem:
    ring = [t for t, c in zip(trios, counts) for _ in range(c)]
    np.random.default_rng(seed).shuffle(ring)
    return RingSystem(tuple(ring))


def assert_one_to_one(lam, ref, rtol):
    """Each value of ``lam`` within ``rtol max(1, |ref|)`` of a value of ``ref`` of its own."""
    assert lam.size == ref.size
    free = np.ones(ref.size, dtype=bool)
    for z in lam:
        gap = np.where(free, np.abs(ref - z), np.inf)
        j = int(gap.argmin())
        assert gap[j] <= rtol * max(1.0, abs(ref[j])), (z, ref[j])
        free[j] = False


@functools.cache
def bench_workloads():
    """``bench/workloads.py``, loaded by path, to draw the benchmark's inputs."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def design_scan_scenarios(seeds):
    """``(composition, length)`` of every ``design_scan`` scenario of the benchmark's ``seeds``."""
    workloads = bench_workloads()
    for seed in seeds:
        rng = random.Random(seed)
        drawn = [workloads._draw_scenario(rng, 2) for _ in range(workloads.TWO_CLASS)]
        drawn += [workloads._draw_scenario(rng, 3) for _ in range(workloads.THREE_CLASS)]
        for sc in drawn:
            pref = preference_with_slope(sc.pref[0], workloads.REF_H, *sc.pref[1:])
            pops = tuple(
                PopulationSpec(k + 1, BandoFtl(a, b, pref), c) for k, ((a, b), c) in enumerate(zip(sc.gains, sc.counts))
            )
            yield Composition(pops, sc.ordering), sc.length
