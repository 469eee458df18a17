"""Stability classes, fleet margins, and the critical penetration rate.

One mildly aggressive class in an otherwise very stable fleet: the fraction
of stable drivers needed to keep the ring stable turns out to be high.
"""

from ringwave import (
    BandoFtl,
    MarginVerdict,
    classify,
    critical_penetration,
    discriminant,
    eval_preference,
    linearize,
    multi_phase_margin,
    multi_phase_tau1,
    preference_with_slope,
    preferred_headway,
    tau0_bounds,
)

pref = preference_with_slope(1.27491124260355, 10.4, 4.5, 2.23)
relaxed = BandoFtl(a=4.0, b=20.0, pref=pref)
aggressive = BandoFtl(a=0.5, b=20.0, pref=pref)

v_bar = eval_preference(pref, 10.4)
trio_by_name = {}
for name, model in [("relaxed", relaxed), ("aggressive", aggressive)]:
    h = preferred_headway(model, v_bar)
    trio = linearize(model, h, v_bar)
    trio_by_name[name] = trio
    print(f"{name:10s}: alpha={trio.alpha:.4f} beta={trio.beta:.4f} "
          f"gamma={trio.gamma:.4f}  delta={discriminant(trio):+.3f}"
          f"  -> {classify(trio).value}")

t1 = trio_by_name["relaxed"]
t2 = trio_by_name["aggressive"]

rep = critical_penetration(t1, t2)
b_l, b_u = tau0_bounds(t1, t2)
print(f"\ncritical penetration rate of stable drivers: tau0 = {rep.tau0:.4f}")
print(f"closed-form bounds: {b_l:.4f} <= tau0 <= {b_u:.4f}")
print("above tau0 the fleet is stable at any size and ordering;")
print("below it, large enough fleets develop waves.\n")

for rate in (0.70, 0.802, 0.85, 0.882, 0.95):
    m = multi_phase_margin([t1, t2], [rate, 1.0 - rate])
    print(f"stable share {rate:5.3f}: sup margin {m.sup_margin:+.3e}"
          f"  -> {m.verdict.value}")

# Three classes: the same machinery, margins simply add per class.
weak = BandoFtl(a=1.0, b=30.0, pref=pref)
t3 = linearize(weak, preferred_headway(weak, v_bar), v_bar)
print(f"\nthird class delta = {discriminant(t3):+.3f} ({classify(t3).value})")

rep3 = multi_phase_margin([t1, t2, t3], [850, 100, 50])
print(f"mixture 850/100/50: {rep3.verdict.value} (sup {rep3.sup_margin:+.3e})")

# minimal stable-class share when the remainder splits 2:1 between the others
tau1 = multi_phase_tau1([t1, t2, t3], [2 / 3, 1 / 3])
print(f"minimal stable-class share for this remainder mix: tau1 = {tau1:.4f}")
