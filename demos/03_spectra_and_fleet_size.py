"""Spectra of the linearized ring: fleet-size sweeps and cross-checks.

The same composition can be stable as a small fleet and unstable as a large
one, which is why small ring experiments can underestimate instability.
"""

import numpy as np

from ringwave import (
    BandoFtl,
    Fleet,
    RingSystem,
    char_poly_eval,
    eigenvalues_on_H,
    eval_preference,
    linearize,
    min_unstable_size,
    preference_with_slope,
    preferred_headway,
    rightmost_eigenvalue,
    transfer_product,
)
from ringwave._numerics import largest_remainder
from ringwave.stability import ABSCISSA_TOL

pref = preference_with_slope(1.27491124260355, 10.4, 4.5, 2.23)
v_bar = eval_preference(pref, 10.4)
t1 = linearize(BandoFtl(4.0, 20.0, pref), preferred_headway(BandoFtl(4.0, 20.0, pref), v_bar), v_bar)
t2 = linearize(BandoFtl(0.5, 20.0, pref), preferred_headway(BandoFtl(0.5, 20.0, pref), v_bar), v_bar)

# Same stable share (87.5%), growing fleet.  The abscissa is certified by
# winding counts, so it depends only on the class counts; rounding the share to
# whole vehicles moves the mix back and forth across tau0 = 0.881, so the
# size map is not monotone.
rate = 0.875
print(f"certified verdicts at stable share {rate}:")
runs = []
for n in range(2, 41):
    fleet = Fleet.from_rates([t1, t2], [rate, 1 - rate], n)
    unstable = rightmost_eigenvalue(fleet).real > ABSCISSA_TOL
    if runs and runs[-1][2] == unstable:
        runs[-1][1] = n
    else:
        runs.append([n, n, unstable])
for lo, hi, unstable in runs:
    c1, c2 = largest_remainder([rate, 1 - rate], lo)
    print(f"  n = {lo:2d}-{hi:2d}: {'unstable' if unstable else 'stable':8s}"
          f" (n = {lo}: {c1} + {c2})")

m = min_unstable_size([t1, t2], [rate, 1 - rate], 512)
print(f"first unstable size at this share: {m}\n")

# Every reported eigenvalue solves the transfer-product equation G(z) = 1
# and annihilates the characteristic polynomial.
ring = RingSystem(tuple([t1] * 14 + [t2] * 6))
rep = eigenvalues_on_H(ring)
top = rep.eigenvalues[np.argmax(rep.eigenvalues.real)]
print(f"20-vehicle ring: abscissa {rep.abscissa:+.4e}, "
      f"{len(rep.eigenvalues)} eigenvalues (zero excluded: {rep.zero_excluded})")
print(f"top eigenvalue {top:.6f}")
print(f"  |G(top) - 1|       = {abs(transfer_product(ring, top) - 1):.2e}")
print(f"  |char poly at top| = {abs(char_poly_eval(ring, top)):.2e}\n")

# Ordering on the ring does not matter for the spectrum.
rng = np.random.default_rng(1)
base = [t1] * 14 + [t2] * 6
ref = np.sort_complex(eigenvalues_on_H(RingSystem(tuple(base))).eigenvalues)
gaps = []
for _ in range(5):
    rng.shuffle(base)
    lams = np.sort_complex(eigenvalues_on_H(RingSystem(tuple(base))).eigenvalues)
    gaps.append(np.max(np.abs(lams - ref)))
print(f"largest spectral gap across 5 reorderings: {max(gaps):.2e}")
