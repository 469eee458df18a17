"""Nonlinear stop-and-go waves: 500 vehicles, two driver classes.

At an 80% stable share the speed variance grows until waves form; at 88.2%
the same perturbation dies out.  The measured growth rate of the unstable
run matches the linear theory's spectral abscissa.
"""

from ringwave import (
    BandoFtl,
    Composition,
    Fleet,
    Perturbation,
    PopulationSpec,
    SeededRandomZeroSum,
    SimConfig,
    equilibrium_from_velocity,
    eval_preference,
    growth_rate,
    linearize,
    preference_with_slope,
    rightmost_eigenvalue,
    simulate,
    spread_ordering,
)

pref = preference_with_slope(1.27491124260355, 10.4, 4.5, 2.23)
relaxed = BandoFtl(a=4.0, b=20.0, pref=pref)
aggressive = BandoFtl(a=0.5, b=20.0, pref=pref)
v_bar = eval_preference(pref, 10.4)


def run(count_stable: int, count_aggr: int):
    pops = (
        PopulationSpec(1, relaxed, count_stable),
        PopulationSpec(2, aggressive, count_aggr),
    )
    comp = Composition(pops, spread_ordering(pops))
    eq = equilibrium_from_velocity(comp, v_bar)
    cfg = SimConfig(
        t_end=300.0,
        dt=0.05,
        record_every=100,
        perturbation=Perturbation(1e-3, SeededRandomZeroSum(seed=7)),
    )
    return comp, eq, simulate(comp, eq, cfg)


for counts in ((401, 99), (441, 59)):
    share = counts[0] / sum(counts)
    comp, eq, trace = run(*counts)
    print(f"\nstable share {share:.3f} ({counts[0]}+{counts[1]} vehicles, "
          f"L = {eq.length:.0f} m)")
    print("      t      speed variance    min headway   max headway")
    for i in range(0, len(trace.times), 12):
        print(f"  {trace.times[i]:6.0f} s   {trace.speed_variance[i]:12.4e}"
              f"    {trace.min_headway[i]:8.3f} m    {trace.max_headway[i]:8.3f} m")
    verdict = "grew" if trace.speed_variance[-1] > trace.speed_variance[0] else "decayed"
    print(f"  -> variance {verdict} by a factor "
          f"{trace.speed_variance[-1] / trace.speed_variance[0]:.2e}")

# Linear theory predicts the growth rate of the unstable run.
comp, eq, trace = run(401, 99)
fleet = Fleet(
    [linearize(p.model, eq.h_bar[p.class_id], v_bar) for p in comp.populations],
    [p.count for p in comp.populations],
)
abscissa = rightmost_eigenvalue(fleet).real
measured = growth_rate(trace, (150.0, 300.0)) / 2.0
print(f"\nspectral abscissa     : {abscissa:.5f} 1/s")
print(f"measured modal growth : {measured:.5f} 1/s "
      f"({100 * abs(measured - abscissa) / abscissa:.1f}% off)")
