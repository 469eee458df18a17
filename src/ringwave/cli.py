"""Command-line front end: JSON configs in, CSV (and optional SVG) out.

    ringwave <command> --config experiment.json [--out DIR] [--deterministic]

Exit codes: 0 success, 2 config error, 3 domain error (any other
:class:`~ringwave.errors.TrafficError`: no equilibrium, collision, invalid
model, a pole), 4 internal numeric failure.

Each command imports the layers it runs when it runs (``simulate`` the
simulator, ``spectrum`` and ``sweep`` the spectral layer, ``tau0`` and
``margin`` the stability margins), so a process compiles only those.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Sequence

import numpy as np

# bound as ``jsonschema``: the benchmark's tracer wraps ``cli.jsonschema.validate``
from . import _schema as jsonschema
from .equilibrium import (
    Composition,
    PopulationSpec,
    block_ordering,
    equilibrium_from_length,
    equilibrium_from_velocity,
    spread_ordering,
)
from .errors import ConfigError, TrafficError
from .linearize import LinearTrio, StabilityClass, classify, discriminant, linearize
from .model import (
    BandoFtl,
    VelocityPreference,
    eval_preference,
    preference_with_slope,
    preferred_headway,
)

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_INT = {"type": "integer"}


def _obj(properties: dict, optional: Sequence[str] = ()) -> dict:
    """A closed JSON object whose properties are all required except ``optional``."""
    return {
        "type": "object",
        "properties": properties,
        "required": [k for k in properties if k not in optional],
        "additionalProperties": False,
    }


_PREFERENCE = {
    "oneOf": [
        _obj({"v_max": _POS, "l_v": _NONNEG, "d0": _POS}),
        _obj({"calibrate": _obj({"h_ref": _POS, "slope": _POS, "l_v": _NONNEG, "d0": _POS})}),
    ]
}
_MODEL = _obj({"kind": {"const": "bando_ftl"}, "a": _POS, "b": _POS, "preference": _PREFERENCE})
_POPULATIONS = {
    "type": "array",
    "items": _obj({"class_id": _INT, "count": {"type": "integer", "minimum": 0}, "model": _MODEL}),
    "minItems": 1,
}
# tau0 and sweep take exactly two classes and no counts
_PAIR = {
    "type": "array",
    "items": _obj({"class_id": _INT, "model": _MODEL}),
    "minItems": 2,
    "maxItems": 2,
}
_ORDERING = {"oneOf": [{"enum": ["blocks", "spread"]}, {"type": "array", "items": _INT}]}
_EQ_V = {
    "oneOf": [
        _obj({"v_bar": _POS}),
        _obj({"class_headway": _obj({"class_id": _INT, "headway": _POS})}),
    ]
}
_EQ_FULL = {"oneOf": _EQ_V["oneOf"] + [_obj({"length": _POS})]}
# perturbation kind -> the ``sim`` class it builds and that class's integer parameters,
# all optional: a parameter a config leaves out takes the class's default
_PERT_KINDS = {
    "single_vehicle_kick": ("SingleVehicleKick", ()),
    "sinusoidal_mode": ("SinusoidalMode", ("mode",)),
    "seeded_random_zero_sum": ("SeededRandomZeroSum", ("seed",)),
}
_PERT_PARAMS = {key: _INT for _, params in _PERT_KINDS.values() for key in params}
_SIM = _obj(
    {
        "dt": _POS,
        "t_end": _POS,
        "record_every": {"type": "integer", "minimum": 1},
        "perturbation": _obj(
            {"amplitude": _NONNEG, "kind": {"enum": list(_PERT_KINDS)}, **_PERT_PARAMS},
            optional=list(_PERT_PARAMS),
        ),
    },
    optional=("dt", "record_every"),
)
_SWEEP = _obj(
    {
        "n_totals": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 1},
        "rate_class1": {"type": "number", "minimum": 0, "maximum": 1},
    }
)

_RING = {"composition": _obj({"populations": _POPULATIONS, "ordering": _ORDERING}), "equilibrium": _EQ_FULL}
_SVG = {"svg": {"type": "boolean"}}
# each command's required sections after schema_version, then its optional ones
_SECTIONS = {
    "equilibrium": (_RING, {}),
    "linearize": (_RING, {}),
    "spectrum": (_RING, {}),
    "simulate": ({**_RING, "sim": _SIM}, _SVG),
    "tau0": ({"populations": _PAIR, "equilibrium": _EQ_V}, {}),
    "margin": ({"populations": _POPULATIONS, "equilibrium": _EQ_V}, _SVG),
    "sweep": ({"populations": _PAIR, "equilibrium": _EQ_V, "sweep": _SWEEP}, _SVG),
}


def _config_schema(command: str) -> dict:
    required, optional = _SECTIONS[command]
    return _obj({"schema_version": {"const": 1}, **required, **optional}, optional=optional)


@contextlib.contextmanager
def _config_values():
    """Re-raise a constructor's ``ValueError`` as the config mistake it is."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _refuse_constant(name: str):
    raise ConfigError(f"{name} is not a number a config may hold")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _finite(parse):
    """A ``json.loads`` number hook that refuses literals beyond the finite doubles."""

    def hook(text: str):
        if not np.isfinite(float(text)):
            shown = text if len(text) <= 24 else text[:21] + "..."
            raise ConfigError(f"number {shown} does not fit a finite double")
        return parse(text)

    return hook


def _build_preference(cfg: dict) -> VelocityPreference:
    with _config_values():
        if "calibrate" in cfg:
            c = cfg["calibrate"]
            return preference_with_slope(c["slope"], c["h_ref"], c["l_v"], c["d0"])
        return VelocityPreference(v_max=cfg["v_max"], l_v=cfg["l_v"], d0=cfg["d0"])


def _build_model(cfg: dict) -> BandoFtl:
    return BandoFtl(a=cfg["a"], b=cfg["b"], pref=_build_preference(cfg["preference"]))


def _build_populations(cfgs: list[dict]) -> list[PopulationSpec]:
    ids = [int(c["class_id"]) for c in cfgs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate class ids: {ids}")
    return [
        PopulationSpec(class_id=i, model=_build_model(c["model"]), count=c.get("count", 0))
        for i, c in zip(ids, cfgs)
    ]


def _build_composition(cfg: dict) -> Composition:
    pops = tuple(_build_populations(cfg["populations"]))
    ordering = cfg["ordering"]
    if ordering == "blocks":
        ordering = block_ordering(pops)
    elif ordering == "spread":
        ordering = spread_ordering(pops)
    else:
        ordering = tuple(int(a) for a in ordering)
    with _config_values():
        return Composition(populations=pops, ordering=ordering)


def _resolve_v_bar(eq_cfg: dict, populations: Sequence[PopulationSpec]) -> float:
    """Common speed of an equilibrium given by ``v_bar`` or by ``class_headway``."""
    if "v_bar" in eq_cfg:
        return eq_cfg["v_bar"]
    ch = eq_cfg["class_headway"]
    for p in populations:
        if p.class_id == ch["class_id"]:
            return eval_preference(p.model.pref, ch["headway"])
    raise ConfigError(f"class_headway refers to unknown class {ch['class_id']}")


def _resolve_equilibrium(eq_cfg: dict, comp: Composition):
    if "length" in eq_cfg:
        return equilibrium_from_length(comp, eq_cfg["length"])
    return equilibrium_from_velocity(comp, _resolve_v_bar(eq_cfg, comp.populations))


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


def cmd_equilibrium(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    rows = [(p.class_id, eq.h_bar[p.class_id], eq.v_bar, eq.length) for p in comp.classes]
    _write_csv(out / "equilibrium.csv", "class_id,h_bar_m,v_bar_mps,L_m", rows, deterministic)
    print(f"equilibrium: v_bar = {eq.v_bar} m/s, L = {eq.length} m, {comp.n} vehicles")
    return 0


def cmd_linearize(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
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


def cmd_tau0(config: dict, out: Path, deterministic: bool) -> int:
    from .stability import critical_penetration

    pops = _build_populations(config["populations"])
    v_bar = _resolve_v_bar(config["equilibrium"], pops)
    trios = {p.class_id: t for p, t in zip(pops, _trios_at(pops, v_bar))}
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


def cmd_margin(config: dict, out: Path, deterministic: bool) -> int:
    from .stability import margin_curve, multi_phase_margin

    pops = _build_populations(config["populations"])
    counts = [p.count for p in pops]
    if not any(counts):
        raise ConfigError("populations must contain at least one vehicle")
    trios = _trios_at(pops, _resolve_v_bar(config["equilibrium"], pops))
    rep = multi_phase_margin(trios, counts)
    _write_csv(
        out / "margin.csv",
        "sup_margin,argmax_y_1ps2,verdict",
        [(rep.sup_margin, rep.argmax_y, rep.verdict.value)],
        deterministic,
    )
    print(f"sup margin = {rep.sup_margin} at y = {rep.argmax_y}: {rep.verdict.value}")
    if config.get("svg"):
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


def cmd_spectrum(config: dict, out: Path, deterministic: bool) -> int:
    from .spectrum import Fleet, eigenvalues

    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    report = eigenvalues(Fleet(_trios_at(comp.classes, eq.v_bar), [p.count for p in comp.classes]))
    rows = [(z.real, z.imag) for z in report.eigenvalues]
    _write_csv(out / "spectrum.csv", "re_1ps,im_1ps", rows, deterministic)
    print(f"n = {comp.n}: abscissa = {report.abscissa}")
    return 0


def cmd_simulate(config: dict, out: Path, deterministic: bool) -> int:
    from . import sim

    comp = _build_composition(config["composition"])
    # only the keys a config holds are passed, so every default is the simulator's own
    sim_cfg = dict(config["sim"])
    pert_cfg = sim_cfg.pop("perturbation")
    if "record_every" in sim_cfg:  # the schema admits an integral float such as 2.0
        sim_cfg["record_every"] = int(sim_cfg["record_every"])
    name, params = _PERT_KINDS[pert_cfg["kind"]]
    if stray := sorted(set(pert_cfg) - {"amplitude", "kind", *params}):
        raise ConfigError(f"$.sim.perturbation: key {stray[0]!r} does not apply to kind {pert_cfg['kind']!r}")
    with _config_values():
        kind = getattr(sim, name)(**{key: int(pert_cfg[key]) for key in params if key in pert_cfg})
        cfg = sim.SimConfig(perturbation=sim.Perturbation(pert_cfg["amplitude"], kind), **sim_cfg)
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    trace = sim.simulate(comp, eq, cfg)
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
    if config.get("svg") and len(trace.times) >= 2:
        _write_svg(
            out / "trace.svg",
            list(trace.times),
            list(trace.speed_variance),
            "t (s)",
            "speed variance ((m/s)^2)",
            "speed variance over time",
        )
    return 0


def cmd_sweep(config: dict, out: Path, deterministic: bool) -> int:
    from .spectrum import ABSCISSA_TOL, Fleet, rightmost_eigenvalues

    pops = _build_populations(config["populations"])
    trios = _trios_at(pops, _resolve_v_bar(config["equilibrium"], pops))
    rate = float(config["sweep"]["rate_class1"])
    n_totals = [int(n) for n in config["sweep"]["n_totals"]]

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
    if config.get("svg") and len(rows) >= 2:
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
    np.linalg.LinAlgError,
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
        raw = Path(args.config).read_text(encoding="utf-8")
        # repeated keys, NaN, +-Infinity (JSON extensions) and literals past the largest double are refused
        config = json.loads(
            raw,
            object_pairs_hook=_unique_keys,
            parse_constant=_refuse_constant,
            parse_float=_finite(float),
            parse_int=_finite(int),
        )
        jsonschema.validate(config, _config_schema(args.command))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](config, out, args.deterministic)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except TrafficError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
