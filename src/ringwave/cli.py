"""Command-line front end: JSON configs in, CSV (and optional SVG) out.

    ringwave <command> --config experiment.json [--out DIR] [--deterministic]

Exit codes: 0 success, 2 config error, 3 domain error (any other
:class:`~ringwave.errors.TrafficError`: no equilibrium, collision, invalid
model, a pole), 4 internal numeric failure.

A config is read once, by :func:`ringwave._config.validate`, before the
output directory is made: it checks every field and builds the
populations, the composition, the equilibrium's ``v_bar`` or ``length``,
the simulation settings and the sweep grid, so each command takes its
objects ready-made and no config error leaves a directory behind.

Each command imports the layers it runs when it runs (``simulate`` the
simulator, ``spectrum`` and ``sweep`` the spectral layer, ``tau0`` and
``margin`` the stability margins), so a process compiles only those.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Sequence

import numpy as np

# bound as ``jsonschema``: the benchmark's tracer wraps ``cli.jsonschema.validate``
from . import _config as jsonschema
from ._config import Experiment
from .equilibrium import PopulationSpec, equilibrium_from_length, equilibrium_from_velocity
from .errors import ConfigError, TrafficError
from .linearize import LinearTrio, StabilityClass, classify, discriminant, linearize
from .model import preferred_headway


def _equilibrium(exp: Experiment):
    """The equilibrium flow of a ring command's composition, at its ``v_bar`` or on its ``length``."""
    if exp.length is not None:
        return equilibrium_from_length(exp.composition, exp.length)
    return equilibrium_from_velocity(exp.composition, exp.v_bar)


def _trios_at(pops: Sequence[PopulationSpec], v_bar: float) -> list[LinearTrio]:
    """The trio of each population at the common speed ``v_bar``."""
    return [linearize(p.model, preferred_headway(p.model, v_bar), v_bar) for p in pops]


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: str, rows, deterministic: bool) -> None:
    lines = []
    if not deterministic:
        from datetime import datetime, timezone

        lines.append("# generated " + datetime.now(timezone.utc).isoformat())
    lines.append(header)
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_svg(path: Path, xs, ys, x_label: str, y_label: str, title: str) -> None:
    from . import _svg

    svg = _svg.line_plot(xs, ys, x_label=x_label, y_label=y_label, title=title)
    path.write_text(svg, encoding="utf-8", newline="\n")


def cmd_equilibrium(exp: Experiment, out: Path, deterministic: bool) -> int:
    comp, eq = exp.composition, _equilibrium(exp)
    rows = [(p.class_id, eq.h_bar[p.class_id], eq.v_bar, eq.length) for p in comp.classes]
    _write_csv(out / "equilibrium.csv", "class_id,h_bar_m,v_bar_mps,L_m", rows, deterministic)
    print(f"equilibrium: v_bar = {eq.v_bar} m/s, L = {eq.length} m, {comp.n} vehicles")
    return 0


def cmd_linearize(exp: Experiment, out: Path, deterministic: bool) -> int:
    comp, eq = exp.composition, _equilibrium(exp)
    rows = [
        (p.class_id, t.alpha, t.beta, t.gamma, discriminant(t), classify(t).value)
        for p, t in zip(comp.classes, _trios_at(comp.classes, eq.v_bar))
    ]
    _write_csv(
        out / "linearize.csv",
        "class_id,alpha_1ps2,beta_1ps,gamma_1ps,delta_1ps2,classification",
        rows,
        deterministic,
    )
    for row in rows:
        print(f"class {row[0]}: delta = {row[4]} ({row[5]})")
    return 0


def cmd_tau0(exp: Experiment, out: Path, deterministic: bool) -> int:
    from .stability import critical_penetration

    trios = {p.class_id: t for p, t in zip(exp.populations, _trios_at(exp.populations, exp.v_bar))}
    kinds = {cid: classify(t) for cid, t in trios.items()}

    if StabilityClass.UNSTABLE not in kinds.values():
        print("verdict: stable for all counts and orderings")
        return 0
    stable_ids = [cid for cid, k in kinds.items() if k is StabilityClass.STABLE]
    unstable_ids = [cid for cid, k in kinds.items() if k is StabilityClass.UNSTABLE]
    if not stable_ids:
        print("verdict: unstable for sufficiently many vehicles")
        return 0

    sid, uid = stable_ids[0], unstable_ids[0]
    rep = critical_penetration(trios[sid], trios[uid])
    _write_csv(out / "tau0.csv", ",".join(f.name for f in fields(rep)), [astuple(rep)], deterministic)
    print(f"stable class: {sid} (delta = {rep.delta1}); unstable class: {uid} (delta = {rep.delta2})")
    print(f"tau0 = {rep.tau0:.6f} (bounds: [{rep.bound_lower:.6f}, {rep.bound_upper:.6f}])")
    return 0


def cmd_margin(exp: Experiment, out: Path, deterministic: bool) -> int:
    from .stability import margin_curve, multi_phase_margin

    counts = [p.count for p in exp.populations]
    trios = _trios_at(exp.populations, exp.v_bar)
    rep = multi_phase_margin(trios, counts)
    _write_csv(
        out / "margin.csv",
        "sup_margin,argmax_y_1ps2,verdict",
        [(rep.sup_margin, rep.argmax_y, rep.verdict.value)],
        deterministic,
    )
    print(f"sup margin = {rep.sup_margin} at y = {rep.argmax_y}: {rep.verdict.value}")
    if exp.svg:
        rows = list(zip(*margin_curve(trios, counts, 512)))
        _write_csv(out / "margin_curve.csv", "y_1ps2,margin", rows, deterministic)
        _write_svg(
            out / "margin.svg",
            [r[0] for r in rows],
            [r[1] for r in rows],
            "y (1/s^2)",
            "weighted log gain",
            "stability margin vs y",
        )
    return 0


def cmd_spectrum(exp: Experiment, out: Path, deterministic: bool) -> int:
    from .spectrum import Fleet, eigenvalues

    comp, eq = exp.composition, _equilibrium(exp)
    report = eigenvalues(Fleet(_trios_at(comp.classes, eq.v_bar), [p.count for p in comp.classes]))
    rows = [(z.real, z.imag) for z in report.eigenvalues]
    _write_csv(out / "spectrum.csv", "re_1ps,im_1ps", rows, deterministic)
    print(f"n = {comp.n}: abscissa = {report.abscissa}")
    return 0


def cmd_simulate(exp: Experiment, out: Path, deterministic: bool) -> int:
    from . import sim

    comp = exp.composition
    trace = sim.simulate(comp, _equilibrium(exp), exp.sim)
    rows = list(
        zip(trace.times, trace.speed_variance, trace.min_headway, trace.max_headway)
    )
    _write_csv(
        out / "trace.csv",
        "t_s,speed_variance_mps2,min_headway_m,max_headway_m",
        rows,
        deterministic,
    )
    print(
        f"simulated {comp.n} vehicles to t = {trace.times[-1]} s: "
        f"variance {trace.speed_variance[0]} -> {trace.speed_variance[-1]}"
    )
    if exp.svg and len(trace.times) >= 2:
        _write_svg(
            out / "trace.svg",
            list(trace.times),
            list(trace.speed_variance),
            "t (s)",
            "speed variance ((m/s)^2)",
            "speed variance over time",
        )
    return 0


def cmd_sweep(exp: Experiment, out: Path, deterministic: bool) -> int:
    from .spectrum import ABSCISSA_TOL, Fleet, rightmost_eigenvalues

    trios = _trios_at(exp.populations, exp.v_bar)
    rate, n_totals = exp.rate_class1, exp.n_totals

    rows = []
    # every size at once: if sizes fail, the first one's error is raised
    tops = rightmost_eigenvalues([Fleet.from_rates(trios, [rate, 1.0 - rate], n) for n in n_totals])
    for n, top in zip(n_totals, tops):
        ab = top.real
        if ab > ABSCISSA_TOL:
            verdict = "unstable"
        elif ab < -ABSCISSA_TOL:
            verdict = "stable"
        else:
            verdict = "marginal"
        rows.append((n, rate, ab, verdict))
    _write_csv(out / "sweep.csv", "n_total,rate_class1,abscissa_1ps,verdict", rows, deterministic)
    unstable = [n for n, _, ab, _ in rows if ab > ABSCISSA_TOL]
    if unstable:
        print(f"first unstable size in grid: n = {unstable[0]}")
    else:
        print("no unstable size in grid")
    if exp.svg and len(rows) >= 2:
        _write_svg(
            out / "sweep.svg",
            [float(r[0]) for r in rows],
            [r[2] for r in rows],
            "n (vehicles)",
            "spectral abscissa (1/s)",
            "abscissa vs fleet size",
        )
    return 0


_COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "linearize": cmd_linearize,
    "tau0": cmd_tau0,
    "margin": cmd_margin,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}

_NUMERIC_ERRORS = (
    FloatingPointError,
    OverflowError,
    ZeroDivisionError,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringwave",
        description="ring-road traffic stability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=".", help="output directory for CSV/SVG artifacts")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress the timestamp comment for byte-reproducible CSVs",
        )
    args = parser.parse_args(argv)

    try:
        config = jsonschema.load(Path(args.config).read_text(encoding="utf-8"))
        experiment = jsonschema.validate(config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeDecodeError, RecursionError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](experiment, out, args.deterministic)
    except TrafficError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
