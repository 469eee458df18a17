"""The per-vehicle ring that the benchmark builds: ``eigenvalues_on_H`` and ``transfer_product``.

Both answer from the ring's class counts; dense ``eigvals`` of the ring matrix
(``oracle.dense_spectrum``) is the independent reference.
"""

import random

import numpy as np
import pytest

from ringwave import Fleet, LinearTrio, RingSystem, eigenvalues, eigenvalues_on_H, transfer_product

from conftest import assert_one_to_one, bench_workloads, random_trio, shuffled_ring
from oracle import dense_spectrum


def ring_fleet(ring):
    # the classes in the order the ring meets them, so that they sum alike
    classes = tuple(dict.fromkeys(ring.trios))
    return Fleet(classes, [ring.trios.count(t) for t in classes])


@pytest.mark.parametrize("stable, counts", [((True, False), (31, 9)), ((True, False, False), (22, 7, 12))])
def test_the_ring_answers_with_its_fleets_spectrum_and_transfer(stable, counts):
    rng = np.random.default_rng(len(counts))
    trios = [random_trio(rng, s) for s in stable]
    ring = shuffled_ring(trios, counts, seed=sum(counts))
    fleet = ring_fleet(ring)
    assert dict(zip(fleet.trios, fleet.counts)) == dict(zip(trios, counts))
    report, expected = eigenvalues_on_H(ring), eigenvalues(fleet)
    np.testing.assert_array_equal(report.eigenvalues, expected.eigenvalues)
    assert report.abscissa == expected.abscissa
    assert_one_to_one(report.eigenvalues, dense_spectrum(ring).eigenvalues, 1e-9)
    z = np.concatenate(([0.0, 0.3 + 0.9j, -0.2 + 2.5j, 1.7], report.eigenvalues[::7]))
    np.testing.assert_array_equal([transfer_product(ring, p) for p in z], fleet.transfer(z))


def test_a_one_vehicle_ring_has_no_spectrum_on_h():
    with pytest.raises(ValueError, match="needs n >= 2 vehicles, got 1"):
        eigenvalues_on_H(RingSystem((LinearTrio(0.5, 2.0, 1.0),)))


def test_the_growth_check_rings_of_seeds_1_to_40_certify(monkeypatch, tmp_path):
    workloads = bench_workloads()
    rings = []
    # wave_growth's simulate_small check hands its mix and ordering to _check_growth, which builds the ring
    monkeypatch.setattr(workloads, "_check_trace", lambda o: [])
    monkeypatch.setattr(
        workloads,
        "_check_growth",
        lambda o, mix, order: rings.append(workloads._mix_objects(mix, workloads.SMALL_N, order)[2]) or [],
    )
    for seed in range(1, 41):
        ops = workloads.wave_growth(random.Random(seed), tmp_path / str(seed))
        assert next(op for op in ops if op.name == "simulate_small").check(None, {}) == []
    assert len(set(rings)) == 40
    for ring in rings:
        report = eigenvalues_on_H(ring)
        assert report.eigenvalues.size == 2 * ring.n - 1
        assert abs(report.abscissa - dense_spectrum(ring).abscissa) <= 1e-9
