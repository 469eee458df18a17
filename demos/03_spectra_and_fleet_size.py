"""Spectra of the linearized ring: fleet-size sweeps and cross-checks.

The same composition can be stable as a small fleet and unstable as a large
one, which is why small ring experiments can underestimate instability.
"""

import numpy as np

from ringwave import (
    BandoFtl,
    Fleet,
    eigenvalues,
    eval_preference,
    linearize,
    min_unstable_size,
    preference_with_slope,
    preferred_headway,
    rightmost_eigenvalue,
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

# Every reported eigenvalue solves the transfer-product equation G(z) = 1;
# the root error is the Newton step to the nearest zero of 1 - G, from the
# class counts alone.
fleet = Fleet([t1, t2], [14, 6])
rep = eigenvalues(fleet)
top = rep.eigenvalues[np.argmax(rep.eigenvalues.real)]
print(f"20-vehicle ring: abscissa {rep.abscissa:+.4e}, "
      f"{len(rep.eigenvalues)} eigenvalues on the zero-sum subspace")
print(f"top eigenvalue {top:.6f}")
print(f"  |G(top) - 1|       = {abs(fleet.transfer(top)[0] - 1):.2e}")
print(f"  root error at top  = {fleet.root_error(top)[0]:.2e}\n")


def ring_matrix(ring):
    """The 2n x 2n matrix of the linearized ring, vehicle by vehicle in ring order.

    Headways y over velocities u: y_j' = u_{j+1} - u_j and
    u_j' = alpha_j y_j - beta_j u_j + gamma_j u_{j+1}, the leader j + 1 taken around the ring.
    """
    n = len(ring)
    j, lead = np.arange(n), (np.arange(n) + 1) % n
    m = np.zeros((2 * n, 2 * n))
    m[j, n + j], m[j, n + lead] = -1.0, 1.0
    m[n + j, j] = [t.alpha for t in ring]
    m[n + j, n + j] = [-t.beta for t in ring]
    m[n + j, n + lead] = [t.gamma for t in ring]
    return m


# Ordering on the ring does not matter for the spectrum: a dense eigensolve of
# the ring matrix, which sees each vehicle in its place, finds the same values
# for shuffled orderings (and the structural zero, which the class counts drop).
rng = np.random.default_rng(1)
base = [t1] * 14 + [t2] * 6
ref = np.sort_complex(np.linalg.eigvals(ring_matrix(base)))
gaps = []
for _ in range(5):
    rng.shuffle(base)
    lams = np.sort_complex(np.linalg.eigvals(ring_matrix(base)))
    gaps.append(np.max(np.abs(lams - ref)))
print(f"largest spectral gap across 5 reorderings: {max(gaps):.2e}")
print(f"dense abscissa less the class counts' abscissa: {ref.real.max() - rep.abscissa:+.2e}")
