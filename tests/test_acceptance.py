"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from ringwave import (
    LinearTrio,
    MarginVerdict,
    Perturbation,
    RingSystem,
    SeededRandomZeroSum,
    SimConfig,
    SinusoidalMode,
    critical_penetration,
    char_poly_eval,
    discriminant,
    eigenvalues_on_H,
    equilibrium_from_velocity,
    gamma_squared,
    growth_rate,
    linearize,
    log_gain,
    min_unstable_size,
    multi_phase_margin,
    simulate,
    tau0_bounds,
)

from conftest import composition_of, random_trio


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_discriminants(ref_trios):
    t1, t2 = ref_trios
    d1, d2 = discriminant(t1), discriminant(t2)
    ok = abs(d1 - 7.28) <= 0.01 and abs(d2 - (-0.84)) <= 0.01
    _report(1, "discriminants 7.28 / -0.84", ok, f"(got {d1:.5f}, {d2:.5f})")


def test_criterion_2_critical_penetration(ref_trios):
    t1, t2 = ref_trios
    rep = critical_penetration(t1, t2)
    b_l, b_u = tau0_bounds(t1, t2)
    ok = abs(rep.tau0 - 0.881) <= 0.002 and b_l <= rep.tau0 <= b_u
    _report(
        2,
        "critical penetration rate 0.881 +- 0.002, bracketed",
        ok,
        f"(tau0={rep.tau0:.6f}, bounds=[{b_l:.6f}, {b_u:.6f}])",
    )


def test_criterion_3_phase_boundary_verdicts(ref_trios):
    t1, t2 = ref_trios
    lo = multi_phase_margin([t1, t2], [0.802, 0.198])
    hi = multi_phase_margin([t1, t2], [0.882, 0.118])
    ok = (
        lo.verdict is MarginVerdict.UNSTABLE_FOR_LARGE_N
        and hi.verdict is MarginVerdict.STABLE_ALL_N
    )
    _report(
        3,
        "unstable at 80.2%, stable at 88.2%",
        ok,
        f"(sup: {lo.sup_margin:.3e} / {hi.sup_margin:.3e})",
    )


def test_criterion_4_unified_model_theorem():
    rng = np.random.default_rng(77)
    worst_stable = -math.inf
    ok = True
    for _ in range(20):
        trio = random_trio(rng, stable=True)
        for n in range(2, 101):
            ab = eigenvalues_on_H(RingSystem(tuple([trio] * n))).abscissa
            worst_stable = max(worst_stable, ab)
            ok = ok and ab < 0.0
    sizes = []
    for _ in range(20):
        trio = random_trio(rng, stable=False)
        m = min_unstable_size([trio], [1.0], 2000)
        ok = ok and m is not None and m <= 2000
        sizes.append(m)
    _report(
        4,
        "stable trios negative up to n=100; unstable trios destabilize",
        ok,
        f"(worst stable abscissa {worst_stable:.2e}, sizes {min(sizes)}..{max(sizes)})",
    )


def test_criterion_5_margin_predicts_spectrum():
    rng = np.random.default_rng(2024)
    achievable = sorted(
        {n1 / t for t in range(2, 11) for n1 in range(t + 1)}
    )
    pairs = []
    attempts = 0
    # keep pairs whose threshold is not aliased by any achievable rate, so
    # every composition's verdict is decisive at desk scale
    while len(pairs) < 5 and attempts < 2000:
        attempts += 1
        t1 = random_trio(rng, stable=True)
        t2 = random_trio(rng, stable=False)
        tau0 = critical_penetration(t1, t2).tau0
        if min(abs(r - tau0) for r in achievable) >= 0.03:
            pairs.append((t1, t2))
    ok = len(pairs) == 5
    checked_stable = checked_unstable = 0
    worst_m = 0
    for t1, t2 in pairs:
        for total in range(2, 11):
            for n1 in range(total + 1):
                n2 = total - n1
                sup = multi_phase_margin([t1, t2], [n1, n2]).sup_margin
                ring = tuple([t1] * n1 + [t2] * n2)
                if sup < 0:
                    checked_stable += 1
                    ok = ok and eigenvalues_on_H(RingSystem(ring)).abscissa < 0
                    ok = ok and eigenvalues_on_H(RingSystem(ring * 5)).abscissa < 0
                else:
                    checked_unstable += 1
                    found = None
                    for m in (1, 2, 4, 8, 16, 32, 50):
                        if eigenvalues_on_H(RingSystem(ring * m)).abscissa > 0:
                            found = m
                            break
                    ok = ok and found is not None
                    worst_m = max(worst_m, found or 0)
    _report(
        5,
        "margin sign predicts spectral stability for all small fleets",
        ok,
        f"({checked_stable} stable, {checked_unstable} unstable comps, "
        f"worst replication {worst_m}x)",
    )


def test_criterion_6_ordering_invariance():
    rng = np.random.default_rng(303)
    ok = True
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 31))
        trios = [random_trio(rng, rng.uniform() < 0.5) for _ in range(n)]
        ref = np.sort_complex(eigenvalues_on_H(RingSystem(tuple(trios))).eigenvalues)
        for _ in range(20):
            perm = list(trios)
            rng.shuffle(perm)
            lams = np.sort_complex(
                eigenvalues_on_H(RingSystem(tuple(perm))).eigenvalues
            )
            diff = float(np.max(np.abs(lams - ref)))
            worst = max(worst, diff)
            ok = ok and diff < 1e-7
    _report(6, "spectrum invariant under reordering", ok, f"(worst gap {worst:.2e})")


def test_criterion_7_zero_eigenvalue_structure():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 25))
        trios = tuple(random_trio(rng, rng.uniform() < 0.5) for _ in range(n))
        sys = RingSystem(trios)
        from ringwave import assemble

        m = assemble(sys)
        lam = np.linalg.eigvals(m)
        tol = 1e-8 * float(np.abs(m).sum(axis=1).max())
        ok = ok and int((np.abs(lam) <= tol).sum()) == 1
        # derivative of the characteristic polynomial at the origin
        eps = 1e-8
        deriv = char_poly_eval(sys, 1j * eps).imag / eps
        expected = np.prod([t.alpha for t in trios]) * sum(
            (t.beta - t.gamma) / t.alpha for t in trios
        )
        ok = ok and expected != 0.0 and abs(deriv - expected) <= 1e-4 * abs(expected)
    _report(7, "structural zero simple, char-poly derivative nonzero", ok)


def test_criterion_8_nonlinear_linear_agreement(ref_models, ref_v_bar, ref_trios):
    t1, t2 = ref_trios
    ok = True
    details = []

    # growth-rate agreement at n = 100, amplitude 1e-4
    comp_u = composition_of(ref_models, [80, 20])
    eq_u = equilibrium_from_velocity(comp_u, ref_v_bar)
    ab_u = eigenvalues_on_H(
        RingSystem(tuple({1: t1, 2: t2}[a] for a in comp_u.ordering))
    ).abscissa
    tr_u = simulate(
        comp_u,
        eq_u,
        SimConfig(
            t_end=400.0,
            dt=0.05,
            record_every=20,
            perturbation=Perturbation(1e-4, SeededRandomZeroSum(3)),
        ),
    )
    rate_u = growth_rate(tr_u, (200.0, 400.0)) / 2.0
    ok = ok and abs(rate_u - ab_u) <= 0.15 * abs(ab_u)
    details.append(f"unstable {rate_u:.4e} vs {ab_u:.4e}")

    # stable side: 89/11 is the nearest size-100 composition above the
    # threshold; the fundamental mode isolates the slowest eigenvalue pair
    comp_s = composition_of(ref_models, [89, 11])
    eq_s = equilibrium_from_velocity(comp_s, ref_v_bar)
    ab_s = eigenvalues_on_H(
        RingSystem(tuple({1: t1, 2: t2}[a] for a in comp_s.ordering))
    ).abscissa
    tr_s = simulate(
        comp_s,
        eq_s,
        SimConfig(
            t_end=600.0,
            dt=0.05,
            record_every=20,
            perturbation=Perturbation(1e-4, SinusoidalMode(1)),
        ),
    )
    rate_s = growth_rate(tr_s, (200.0, 600.0)) / 2.0
    ok = ok and ab_s < 0 and abs(rate_s - ab_s) <= 0.15 * abs(ab_s)
    details.append(f"stable {rate_s:.4e} vs {ab_s:.4e}")

    # reference-scale runs: growth at 80%, decay at 88.2%, conservation
    comp_g = composition_of(ref_models, [401, 99])
    eq_g = equilibrium_from_velocity(comp_g, ref_v_bar)
    start = time.time()
    tr_g = simulate(
        comp_g,
        eq_g,
        SimConfig(
            t_end=300.0,
            dt=0.05,
            record_every=20,
            perturbation=Perturbation(1e-4, SeededRandomZeroSum(7)),
            store_snapshots=True,
        ),
    )
    took_g = time.time() - start
    growth_factor = tr_g.speed_variance[-1] / tr_g.speed_variance[0]
    ok = ok and growth_factor >= 10.0 and took_g < 60.0
    cons = max(
        abs(math.fsum(s.headways) - eq_g.length) for s in tr_g.snapshots
    )
    ok = ok and cons <= 1e-9 * eq_g.length
    details.append(f"growth x{growth_factor:.0f}, conservation {cons:.1e}")

    comp_d = composition_of(ref_models, [441, 59])
    eq_d = equilibrium_from_velocity(comp_d, ref_v_bar)
    start = time.time()
    tr_d = simulate(
        comp_d,
        eq_d,
        SimConfig(
            t_end=300.0,
            dt=0.05,
            record_every=20,
            perturbation=Perturbation(1e-4, SinusoidalMode(150)),
        ),
    )
    took_d = time.time() - start
    decay_factor = tr_d.speed_variance[-1] / tr_d.speed_variance[0]
    ok = ok and decay_factor < 1e-2 and took_d < 60.0
    details.append(f"decay x{decay_factor:.1e}")

    _report(8, "nonlinear dynamics track the linear theory", ok, "(" + "; ".join(details) + ")")


def test_criterion_9_symmetry_and_restriction(ref_trios):
    t1, t2 = ref_trios
    d2 = discriminant(t2)
    a2 = t2.alpha**2
    g2 = t2.gamma**2
    ys = np.linspace(0.0, -d2, 200)
    mirror = a2 * (-d2 - ys) / (a2 + g2 * ys)
    sym_gap = float(np.max(np.abs(log_gain(t2, mirror) - log_gain(t2, ys))))
    ok = sym_gap <= 1e-10

    g_sq = gamma_squared(t2)
    ys_r = np.geomspace(g_sq * 1e-10, g_sq, 200001)
    ys_w = np.geomspace(g_sq * 1e-10, -d2 * 0.999999, 400001)
    sup_r = float(np.max(-log_gain(t2, ys_r) / log_gain(t1, ys_r)))
    sup_w = float(np.max(-log_gain(t2, ys_w) / log_gain(t1, ys_w)))
    ok = ok and sup_w <= sup_r + 1e-8
    _report(
        9,
        "gain symmetry and restricted maximization",
        ok,
        f"(symmetry gap {sym_gap:.1e}, sup gap {sup_w - sup_r:.1e})",
    )


def test_criterion_10_critical_case_instability(ref_trios):
    _, t2 = ref_trios
    critical = LinearTrio(alpha=1.5, beta=2.0, gamma=1.0)  # discriminant exactly 0
    ok = discriminant(critical) == 0.0
    rep = multi_phase_margin([critical, t2], [1, 1])
    ok = ok and rep.verdict is MarginVerdict.UNSTABLE_FOR_LARGE_N
    m = min_unstable_size([critical, t2], [0.5, 0.5], 2000)
    ok = ok and m is not None
    _report(
        10,
        "critical class plus unstable class destabilizes",
        ok,
        f"(min unstable size {m})",
    )
