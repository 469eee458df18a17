"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is a fixed list of operations that one caller issues in order,
waiting for each to finish (a closed loop with one client).  A pass runs the
list once.  The seed draws gains, penetration rates, orderings and
perturbation seeds inside fixed ranges; problem sizes do not depend on it, so
every seed asks for the same amount of work.

CLI operations run ``ringwave <command>`` in a fresh interpreter, exactly as
the console script does, so interpreter start-up and import are included.
Library operations call the public ``ringwave`` API inside the benchmark
process.  Library calls go through the package namespace at call time, so a
traced run sees them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# the reference pair of the source paper: tau0 = 0.881 at a common 10.4 m headway
REF_H = 10.4
REF_SLOPE = (4.0 + 2.0 * 20.0 / REF_H**2 - 7.28 / 4.0) / 2.0
REF_LV = 4.5
REF_D0 = 2.23
REF_A1, REF_A2, REF_B = 4.0, 0.5, 20.0

CLI_BOOT = "import sys; from ringwave.cli import main; sys.exit(main())"

# relative gap allowed between the fitted growth rate / 2 and the spectral
# abscissa at n = 100: the fit window still holds the decay of faster modes
# (the gap was at most 0.14 over 30 seeds)
GROWTH_RTOL = 0.25
# |F(lambda) - 1| allowed at the rightmost eigenvalue of the n = 400 spectrum
TRANSFER_TOL = 1e-6
# margin-sign checks skip rates closer than this to the critical rate
BOUNDARY_GAP = 0.01


# Benchmark hosts are often shared: their speed can drift by 1.5x for tens of
# seconds at a time, for interpreted Python and BLAS alike, and a virtual
# machine may expose no hardware counters.  A short fixed probe kernel, timed
# between operations (about once per PROBE_EVERY_S of run time), measures the
# speed s of the CPU the benchmark process runs on, and each operation's gated
# time is multiplied by the median s within PROBE_WINDOW_S of it.  A
# ``parallel`` operation (threaded BLAS, or a thread pool) runs on all P CPUs,
# of which the probe saw one, so it is scaled by P / (P - 1 + 1/s) instead.
# PROBE_REF_S is the kernel's time on a quiet 2-core x86-64 with Python 3.11,
# so scaled times read as seconds on that machine.
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 2.0
PROBE_REF_S = 0.010


def _probe_kernel() -> None:
    import numpy as np

    s = 0
    for i in range(100_000):
        s += i * i % 7
    x = np.linspace(0.1, 1.0, 64)
    for _ in range(500):
        np.tanh(x).sum()


def _rw():
    import ringwave

    return ringwave


@dataclass
class Outcome:
    """What one operation left behind, for the checks after the pass."""

    ok: bool
    value: object = None
    out_dir: Path | None = None
    error: str = ""


@dataclass
class Op:
    name: str
    kind: str  # groups operations into one timing, e.g. "sweep"
    run: Callable[["Runner"], Outcome]
    check: Callable[[Outcome, dict], list[str]] | None = None
    cli: bool = False
    parallel: bool = False  # runs on every CPU: threaded BLAS or a thread pool


@dataclass
class OpTiming:
    name: str
    kind: str
    start: float
    wall: float
    cpu: float
    rss_kb: int
    ok: bool
    parallel: bool = False
    failures: list[str] = field(default_factory=list)
    speed: float = 1.0  # probe-measured machine speed around the operation


class Runner:
    """Runs operations, in child interpreters or in-process, and accounts for them.

    ``traced`` switches CLI children to the traced entry point, which writes a
    trace file next to the operation's outputs.
    """

    def __init__(self, root: Path, work: Path, env: dict):
        self.root = root
        self.work = work
        self.env = env
        self.tracer = None
        self.traced = False
        self.trace_files: list[Path] = []
        self.probing = False
        self.probes: list[tuple[float, float]] = []  # (time, speed) of each probe

    def cli(self, command: str, config: Path, out: Path, op_name: str) -> tuple[Outcome, float, int]:
        out.mkdir(parents=True, exist_ok=True)
        args = [command, "--config", str(config), "--out", str(out), "--deterministic"]
        if self.traced:
            trace_file = out / "trace.json"
            argv = [sys.executable, str(self.root / "bench" / "tracecli.py"), str(trace_file), op_name] + args
            self.trace_files.append(trace_file)
        else:
            argv = [sys.executable, "-c", CLI_BOOT] + args
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        if proc.returncode != 0:
            err = (out / "stderr.txt").read_text(errors="replace").strip()[-300:]
            return Outcome(False, out_dir=out, error=f"exit {proc.returncode}: {err}"), cpu, usage.ru_maxrss
        return Outcome(True, out_dir=out), cpu, usage.ru_maxrss

    def probe(self) -> None:
        """Time the probe kernel, once per PROBE_EVERY_S since the last probe (at most 8).

        Long operations are followed by several probes, so every stretch of the
        run is sampled about equally.
        """
        since = time.perf_counter() - self.probes[-1][0] if self.probes else PROBE_EVERY_S
        for _ in range(min(8, max(1, round(since / PROBE_EVERY_S)))):
            t0 = time.perf_counter()
            _probe_kernel()
            t1 = time.perf_counter()
            self.probes.append((t1, PROBE_REF_S / (t1 - t0)))

    def rate_speeds(self, timings: list[OpTiming]) -> None:
        """Give each operation the machine speed around it (see PROBE_REF_S)."""
        cpus = len(os.sched_getaffinity(0))
        for t in timings:
            lo, hi = t.start - PROBE_WINDOW_S, t.start + t.wall + PROBE_WINDOW_S
            # never empty: a probe precedes every operation by less than PROBE_EVERY_S
            s = statistics.median(s for at, s in self.probes if lo <= at <= hi)
            t.speed = cpus / (cpus - 1 + 1 / s) if t.parallel else s

    def run_op(self, op: Op) -> tuple[Outcome, OpTiming]:
        if self.tracer is not None:
            self.tracer.trace_id = op.name
            self.tracer.enabled = self.traced and not op.cli
        if self.probing and (not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S):
            self.probe()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        child_cpu, child_rss = 0.0, 0
        try:
            if op.cli:
                outcome, child_cpu, child_rss = op.run(self)
            else:
                outcome = op.run(self)
        except Exception as exc:  # a failed library call is a failed operation
            outcome = Outcome(False, error=f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if self.tracer is not None:
            self.tracer.enabled = False
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) + child_cpu
        rss = child_rss if op.cli else ru1.ru_maxrss
        timing = OpTiming(op.name, op.kind, t0, wall, cpu, rss, outcome.ok, op.parallel)
        if not outcome.ok:
            timing.failures.append(outcome.error)
        return outcome, timing


# ---------------------------------------------------------------------------
# config helpers


REF_PREF_CFG = {"calibrate": {"h_ref": REF_H, "slope": REF_SLOPE, "l_v": REF_LV, "d0": REF_D0}}


def _model_cfg(a: float, b: float) -> dict:
    return {"kind": "bando_ftl", "a": a, "b": b, "preference": REF_PREF_CFG}


REF_PAIR_CFG = [
    {"class_id": 1, "model": _model_cfg(REF_A1, REF_B)},
    {"class_id": 2, "model": _model_cfg(REF_A2, REF_B)},
]


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _ref_trios():
    rw = _rw()
    pref = rw.preference_with_slope(REF_SLOPE, REF_H, REF_LV, REF_D0)
    v_bar = rw.eval_preference(pref, REF_H)
    return (
        rw.linearize(rw.BandoFtl(REF_A1, REF_B, pref), REF_H, v_bar),
        rw.linearize(rw.BandoFtl(REF_A2, REF_B, pref), REF_H, v_bar),
    )


def _counts(rates, n):
    """Class counts of a sweep at total n, rounded as ``ringwave`` rounds them."""
    raw = [r * n for r in rates]
    base = [math.floor(x) for x in raw]
    order = sorted(range(len(rates)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[: n - sum(base)]:
        base[i] += 1
    return base


# ---------------------------------------------------------------------------
# fleet_scan: at which fleet size does the reference mix go unstable?

SWEEP_SMALL = list(range(4, 25))
SWEEP_LO_GRID = SWEEP_SMALL + [50, 100, 200, 400]
SWEEP_HI_GRID = SWEEP_SMALL + [50, 100, 200, 400, 800]
MUS_N_MAX = 400


def fleet_scan(rng: random.Random, work: Path) -> list[Op]:
    # one rate on each side of tau0 = 0.881
    rates = {"lo": rng.uniform(0.80, 0.87), "hi": rng.uniform(0.90, 0.95)}
    grids = {"lo": SWEEP_LO_GRID, "hi": SWEEP_HI_GRID}
    trios = _ref_trios()
    ops = []
    for side in ("lo", "hi"):
        rate = rates[side]
        cfg = _write_config(
            work / "configs" / f"sweep_{side}.json",
            {
                "schema_version": 1,
                "populations": REF_PAIR_CFG,
                "equilibrium": {"class_headway": {"class_id": 1, "headway": REF_H}},
                "sweep": {"n_totals": grids[side], "rate_class1": rate},
            },
        )
        ops.append(
            Op(
                f"sweep_{side}",
                "sweep",
                lambda r, cfg=cfg, side=side: r.cli("sweep", cfg, r.work / "out" / f"sweep_{side}", f"sweep_{side}"),
                lambda o, res, rate=rate: _check_sweep(o, rate, trios),
                cli=True,
                parallel=True,
            )
        )
    for side in ("lo", "hi"):
        rate = rates[side]
        ops.append(
            Op(
                f"min_unstable_{side}",
                "min_unstable",
                lambda r, rate=rate: Outcome(
                    True, value=_rw().min_unstable_size(list(trios), [rate, 1.0 - rate], MUS_N_MAX)
                ),
                lambda o, res, side=side: _check_min_unstable(o, res.get(f"sweep_{side}")),
                parallel=True,
            )
        )
    return ops


def _check_sweep(o: Outcome, rate: float, trios) -> list[str]:
    rw = _rw()
    rows = _read_csv(o.out_dir / "sweep.csv")
    fails = []
    for row in rows:
        n = int(row["n_total"])
        counts = _counts([rate, 1.0 - rate], n)
        rep = rw.multi_phase_margin(list(trios), counts)
        if rep.verdict is rw.MarginVerdict.STABLE_ALL_N and row["verdict"] != "stable":
            fails.append(f"n={n} counts={counts} margin {rep.sup_margin:.3e} < 0 but verdict {row['verdict']}")
    return fails


def _check_min_unstable(o: Outcome, sweep: Outcome | None) -> list[str]:
    """The returned size reads unstable, and no size that the search passed over does.

    ``min_unstable_size`` probes 2, 4, 8, ... and then scans every size after
    the last stable probe, so each probe below the result and each size
    between the last probe and the result was decided stable or marginal.
    """
    k = o.value
    if k is None or sweep is None or not sweep.ok:
        return []
    rows = {int(r["n_total"]): r["verdict"] for r in _read_csv(sweep.out_dir / "sweep.csv")}
    fails = []
    if rows.get(k, "unstable") != "unstable":
        fails.append(f"min_unstable_size = {k} but the sweep reads {rows[k]} there")
    last_probe = 1 << ((k - 1).bit_length() - 1) if k > 2 else 1
    for m, verdict in rows.items():
        passed_over = m < k and (m > last_probe or m & (m - 1) == 0)
        if passed_over and verdict == "unstable":
            fails.append(f"min_unstable_size = {k} but the sweep reads unstable at n = {m}")
    return fails


# ---------------------------------------------------------------------------
# wave_growth: how does a stop-and-go wave grow, and does its rate match the spectrum?

SMALL_N, SMALL_T_END, SMALL_WINDOW = 100, 400.0, (200.0, 400.0)
LARGE_N, LARGE_T_END = 10_000, 20.0
SPECTRUM_N = 400
SIM_DT = 0.05


@dataclass
class _Mix:
    a1: float
    a2: float
    b: float
    rate1: float
    headway: float


def _mix_objects(mix: _Mix, n: int, ordering):
    """Library objects for a two-class mix of n vehicles with the given ordering."""
    rw = _rw()
    pref = rw.preference_with_slope(REF_SLOPE, REF_H, REF_LV, REF_D0)
    n1, n2 = _counts([mix.rate1, 1.0 - mix.rate1], n)
    pops = (
        rw.PopulationSpec(1, rw.BandoFtl(mix.a1, mix.b, pref), n1),
        rw.PopulationSpec(2, rw.BandoFtl(mix.a2, mix.b, pref), n2),
    )
    if ordering == "spread":
        ordering = rw.spread_ordering(pops)
    elif ordering == "blocks":
        ordering = rw.block_ordering(pops)
    comp = rw.Composition(pops, tuple(ordering))
    v_bar = rw.eval_preference(pref, mix.headway)
    eq = rw.equilibrium_from_velocity(comp, v_bar)
    trio = {p.class_id: rw.linearize(p.model, eq.h_bar[p.class_id], v_bar) for p in pops if p.count}
    return comp, eq, rw.RingSystem(tuple(trio[a] for a in comp.ordering))


def _composition_cfg(mix: _Mix, n: int, ordering) -> dict:
    n1, n2 = _counts([mix.rate1, 1.0 - mix.rate1], n)
    return {
        "populations": [
            {"class_id": 1, "count": n1, "model": _model_cfg(mix.a1, mix.b)},
            {"class_id": 2, "count": n2, "model": _model_cfg(mix.a2, mix.b)},
        ],
        "ordering": ordering,
    }


def wave_growth(rng: random.Random, work: Path) -> list[Op]:
    # close to the reference 80/20 mix, whose abscissa is 0.0158 1/s: wider
    # ranges give abscissas from 0 to 0.04, too slow to fit in the window or
    # fast enough to leave the linear regime before it ends
    mix = _Mix(
        a1=rng.uniform(3.8, 4.2),
        a2=rng.uniform(0.48, 0.52),
        b=rng.uniform(19.5, 20.5),
        rate1=rng.uniform(0.79, 0.81),
        headway=rng.uniform(10.37, 10.43),
    )
    n1, n2 = _counts([mix.rate1, 1.0 - mix.rate1], SMALL_N)
    small_order = [1] * n1 + [2] * n2
    rng.shuffle(small_order)
    eq_cfg = {"class_headway": {"class_id": 1, "headway": mix.headway}}

    def sim_cfg(n, ordering, t_end, record_every, amplitude):
        return {
            "schema_version": 1,
            "composition": _composition_cfg(mix, n, ordering),
            "equilibrium": eq_cfg,
            "sim": {
                "dt": SIM_DT,
                "t_end": t_end,
                "record_every": record_every,
                "perturbation": {
                    "kind": "seeded_random_zero_sum",
                    "amplitude": amplitude,
                    "seed": rng.randrange(2**31),
                },
            },
        }

    configs = {
        "simulate_small": _write_config(
            work / "configs" / "simulate_small.json", sim_cfg(SMALL_N, small_order, SMALL_T_END, 20, 1e-4)
        ),
        "simulate_large": _write_config(
            work / "configs" / "simulate_large.json", sim_cfg(LARGE_N, "spread", LARGE_T_END, 10, 1e-3)
        ),
        "spectrum": _write_config(
            work / "configs" / "spectrum.json",
            {
                "schema_version": 1,
                "composition": _composition_cfg(mix, SPECTRUM_N, "spread"),
                "equilibrium": eq_cfg,
            },
        ),
    }
    commands = {"simulate_small": "simulate", "simulate_large": "simulate", "spectrum": "spectrum"}
    checks = {
        "simulate_small": lambda o, res: _check_trace(o) + _check_growth(o, mix, small_order),
        "simulate_large": lambda o, res: _check_trace(o),
        "spectrum": lambda o, res: _check_spectrum(o, mix),
    }
    return [
        Op(
            name,
            name,
            lambda r, name=name: r.cli(commands[name], configs[name], r.work / "out" / name, name),
            checks[name],
            cli=True,
            parallel=name == "spectrum",
        )
        for name in ("simulate_small", "simulate_large", "spectrum")
    ]


def _check_trace(o: Outcome) -> list[str]:
    rows = _read_csv(o.out_dir / "trace.csv")
    if len(rows) < 2:
        return [f"trace.csv has {len(rows)} rows"]
    for row in rows:
        vals = [float(v) for v in row.values()]
        if not all(math.isfinite(v) for v in vals):
            return [f"non-finite trace row {row}"]
        if float(row["min_headway_m"]) <= 0.0:
            return [f"min headway {row['min_headway_m']} <= 0 at t={row['t_s']}"]
    return []


def _check_growth(o: Outcome, mix: _Mix, ordering) -> list[str]:
    import numpy as np

    rw = _rw()
    rows = _read_csv(o.out_dir / "trace.csv")
    col = lambda k: np.array([float(r[k]) for r in rows])  # noqa: E731
    trace = rw.SimTrace(col("t_s"), col("speed_variance_mps2"), col("min_headway_m"), col("max_headway_m"))
    rate = rw.growth_rate(trace, SMALL_WINDOW) / 2.0
    _, _, ring = _mix_objects(mix, SMALL_N, ordering)
    ab = rw.eigenvalues_on_H(ring).abscissa
    if not abs(rate - ab) <= GROWTH_RTOL * abs(ab):
        return [f"growth_rate/2 = {rate:.4e} vs abscissa {ab:.4e} (rtol {GROWTH_RTOL})"]
    return []


def _check_spectrum(o: Outcome, mix: _Mix) -> list[str]:
    rw = _rw()
    rows = _read_csv(o.out_dir / "spectrum.csv")
    if len(rows) != 2 * SPECTRUM_N - 1:
        return [f"spectrum.csv has {len(rows)} eigenvalues, expected {2 * SPECTRUM_N - 1}"]
    lams = [complex(float(r["re_1ps"]), float(r["im_1ps"])) for r in rows]
    top = max(lams, key=lambda z: (z.real, z.imag))
    _, _, ring = _mix_objects(mix, SPECTRUM_N, "spread")
    resid = abs(rw.transfer_product(ring, top) - 1.0)
    if not resid <= TRANSFER_TOL:
        return [f"|F(lambda) - 1| = {resid:.3e} at rightmost eigenvalue {top}"]
    return []


# ---------------------------------------------------------------------------
# design_scan: which gain mixes are stable, and what penetration fixes them?

TWO_CLASS, THREE_CLASS = 40, 20


@dataclass
class _Scenario:
    pref: tuple  # (slope, l_v, d0), calibrated at REF_H
    gains: list  # [(a, b)] per class; class 1 stable, the others unstable
    counts: list
    ordering: tuple
    length: float


def _draw_scenario(rng: random.Random, classes: int) -> _Scenario:
    pref = (rng.uniform(1.15, 1.40), rng.uniform(4.3, 4.7), rng.uniform(2.1, 2.4))
    gains = [(rng.uniform(4.2, 5.5), rng.uniform(15.0, 25.0))]
    gains += [(rng.uniform(0.3, 0.8), rng.uniform(15.0, 25.0)) for _ in range(classes - 1)]
    n = rng.randrange(20, 61)
    n1 = min(n - classes + 1, max(1, round(rng.uniform(0.5, 0.99) * n)))
    rest = [1] * (classes - 1)
    for _ in range(n - n1 - sum(rest)):
        rest[rng.randrange(classes - 1)] += 1
    counts = [n1] + rest
    ordering = [k + 1 for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(ordering)
    return _Scenario(pref, gains, counts, tuple(ordering), n * rng.uniform(9.5, 10.8))


def _run_scenario(sc: _Scenario) -> dict:
    rw = _rw()
    slope, l_v, d0 = sc.pref
    pref = rw.preference_with_slope(slope, REF_H, l_v, d0)
    pops = tuple(
        rw.PopulationSpec(k + 1, rw.BandoFtl(a, b, pref), c)
        for k, ((a, b), c) in enumerate(zip(sc.gains, sc.counts))
    )
    comp = rw.Composition(pops, sc.ordering)
    eq = rw.equilibrium_from_length(comp, sc.length)
    trios = [rw.linearize(p.model, eq.h_bar[p.class_id], eq.v_bar) for p in pops]
    out = {
        "margin": rw.multi_phase_margin(trios, sc.counts),
        "two_phase": rw.critical_penetration(trios[0], trios[1]),
    }
    if len(trios) > 2:
        rest = sum(sc.counts[1:])
        out["tau1"] = rw.multi_phase_tau1(trios, [c / rest for c in sc.counts[1:]])
    return out


def _check_scenario(o: Outcome, sc: _Scenario) -> list[str]:
    res = o.value
    tp = res["two_phase"]
    fails = []
    if not (tp.bound_lower - 1e-12 <= tp.tau0 <= tp.bound_upper + 1e-12):
        fails.append(f"tau0 {tp.tau0} outside [{tp.bound_lower}, {tp.bound_upper}]")
    frac1 = sc.counts[0] / sum(sc.counts)
    if len(sc.counts) == 2:
        critical = tp.tau0
    else:
        critical = res["tau1"]
        if not 0.0 <= critical <= 1.0:
            fails.append(f"tau1 {critical} outside [0, 1]")
    sup = res["margin"].sup_margin
    if frac1 > critical + BOUNDARY_GAP and not sup < 0.0:
        fails.append(f"class-1 share {frac1:.3f} above critical {critical:.4f} but margin {sup:.3e}")
    if frac1 < critical - BOUNDARY_GAP and not sup > 0.0:
        fails.append(f"class-1 share {frac1:.3f} below critical {critical:.4f} but margin {sup:.3e}")
    return fails


def design_scan(rng: random.Random, work: Path) -> list[Op]:
    scenarios = [_draw_scenario(rng, 2) for _ in range(TWO_CLASS)]
    scenarios += [_draw_scenario(rng, 3) for _ in range(THREE_CLASS)]
    return [
        Op(
            f"scenario_{i}",
            "scenario",
            lambda r, sc=sc: Outcome(True, value=_run_scenario(sc)),
            lambda o, res, sc=sc: _check_scenario(o, sc),
        )
        for i, sc in enumerate(scenarios)
    ]


# ---------------------------------------------------------------------------
# refactor gate: every CLI command on the seed's configs


def gate_configs(seed: int, work: Path) -> dict[str, tuple[str, Path]]:
    """(command, config) for each gate case; the workload configs are the seed's own."""
    fleet_scan(random.Random(seed), work)
    wave_growth(random.Random(seed), work)
    out = {p.stem: ("sweep" if p.stem.startswith("sweep") else p.stem.split("_")[0], p)
           for p in sorted((work / "configs").glob("*.json"))}
    pair = REF_PAIR_CFG
    at_ref = {"class_headway": {"class_id": 1, "headway": REF_H}}
    for n in (10, 100):
        n1, n2 = _counts([0.8, 0.2], n)
        comp = {
            "populations": [dict(pair[0], count=n1), dict(pair[1], count=n2)],
            "ordering": "spread",
        }
        for command, eq in (("equilibrium", {"length": REF_H * n}), ("linearize", at_ref)):
            cfg = {"schema_version": 1, "composition": comp, "equilibrium": eq}
            out[f"{command}_{n}"] = (command, _write_config(work / f"{command}_{n}.json", cfg))
    out["tau0"] = ("tau0", _write_config(
        work / "tau0.json", {"schema_version": 1, "populations": pair, "equilibrium": at_ref}
    ))
    margin = {
        "schema_version": 1,
        "populations": [dict(pair[0], count=88), dict(pair[1], count=12)],
        "equilibrium": at_ref,
        "svg": True,
    }
    out["margin"] = ("margin", _write_config(work / "margin.json", margin))
    return out


WORKLOADS = {"fleet_scan": fleet_scan, "wave_growth": wave_growth, "design_scan": design_scan}
