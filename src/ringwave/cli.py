"""Command-line front end: JSON configs in, CSV (and optional SVG) out.

    ringwave <command> --config experiment.json [--out DIR] [--deterministic]

Exit codes: 0 success, 2 config error, 3 domain error (no equilibrium,
collision, invalid model), 4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import jsonschema
import numpy as np

from . import _svg
from .equilibrium import (
    Composition,
    PopulationSpec,
    block_ordering,
    equilibrium_from_length,
    equilibrium_from_velocity,
    spread_ordering,
)
from .errors import (
    AmbiguousHeadwayError,
    CollisionError,
    ConfigError,
    DegenerateSpectrumError,
    ModelInvalidError,
    NoEquilibriumError,
    PoleError,
)
from .linearize import TOL_ZERO, LinearTrio, classify, discriminant, linearize
from .model import (
    BandoFtl,
    VelocityPreference,
    eval_preference,
    preference_with_slope,
    preferred_headway,
)
from .sim import (
    Perturbation,
    SeededRandomZeroSum,
    SimConfig,
    SingleVehicleKick,
    SinusoidalMode,
    simulate,
)
from .spectrum import RingSystem, eigenvalues_on_H, ring_abscissa
from .stability import (
    ABSCISSA_TOL,
    critical_penetration,
    fleet_abscissa,
    margin_curve,
    multi_phase_margin,
)

# dense and certified abscissas further apart than this, relative to
# max(1, |certified|), mean the dense eigensolver lost the rightmost eigenvalue
_SPECTRUM_AGREE_RTOL = 1e-6

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_INT = {"type": "integer"}

_PREFERENCE = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"v_max": _POS, "l_v": _NONNEG, "d0": _POS},
            "required": ["v_max", "l_v", "d0"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "calibrate": {
                    "type": "object",
                    "properties": {
                        "h_ref": _POS,
                        "slope": _POS,
                        "l_v": _NONNEG,
                        "d0": _POS,
                    },
                    "required": ["h_ref", "slope", "l_v", "d0"],
                    "additionalProperties": False,
                }
            },
            "required": ["calibrate"],
            "additionalProperties": False,
        },
    ]
}

_MODEL = {
    "type": "object",
    "properties": {
        "kind": {"const": "bando_ftl"},
        "a": _POS,
        "b": _POS,
        "preference": _PREFERENCE,
    },
    "required": ["kind", "a", "b", "preference"],
    "additionalProperties": False,
}

_POPULATION = {
    "type": "object",
    "properties": {"class_id": _INT, "count": {"type": "integer", "minimum": 0}, "model": _MODEL},
    "required": ["class_id", "count", "model"],
    "additionalProperties": False,
}

_POPULATION_NC = {
    "type": "object",
    "properties": {"class_id": _INT, "model": _MODEL},
    "required": ["class_id", "model"],
    "additionalProperties": False,
}

_COMPOSITION = {
    "type": "object",
    "properties": {
        "populations": {"type": "array", "items": _POPULATION, "minItems": 1},
        "ordering": {
            "oneOf": [{"type": "array", "items": _INT}, {"enum": ["blocks", "spread"]}]
        },
    },
    "required": ["populations", "ordering"],
    "additionalProperties": False,
}

_CLASS_HEADWAY = {
    "type": "object",
    "properties": {
        "class_headway": {
            "type": "object",
            "properties": {"class_id": _INT, "headway": _POS},
            "required": ["class_id", "headway"],
            "additionalProperties": False,
        }
    },
    "required": ["class_headway"],
    "additionalProperties": False,
}

_EQ_V = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"v_bar": _POS},
            "required": ["v_bar"],
            "additionalProperties": False,
        },
        _CLASS_HEADWAY,
    ]
}

_EQ_FULL = {
    "oneOf": _EQ_V["oneOf"]
    + [
        {
            "type": "object",
            "properties": {"length": _POS},
            "required": ["length"],
            "additionalProperties": False,
        }
    ]
}

_PERTURBATION = {
    "type": "object",
    "properties": {
        "amplitude": _NONNEG,
        "kind": {
            "enum": ["single_vehicle_kick", "sinusoidal_mode", "seeded_random_zero_sum"]
        },
        "mode": _INT,
        "seed": _INT,
    },
    "required": ["amplitude", "kind"],
    "additionalProperties": False,
}

_SIM = {
    "type": "object",
    "properties": {
        "dt": _POS,
        "t_end": _POS,
        "record_every": {"type": "integer", "minimum": 1},
        "perturbation": _PERTURBATION,
    },
    "required": ["t_end", "perturbation"],
    "additionalProperties": False,
}

_SWEEP = {
    "type": "object",
    "properties": {
        "n_totals": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 1,
        },
        "rate_class1": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "required": ["n_totals", "rate_class1"],
    "additionalProperties": False,
}


def _config_schema(command: str) -> dict:
    version = {"const": 1}
    if command in ("equilibrium", "linearize", "spectrum"):
        return {
            "type": "object",
            "properties": {
                "schema_version": version,
                "composition": _COMPOSITION,
                "equilibrium": _EQ_FULL,
            },
            "required": ["schema_version", "composition", "equilibrium"],
            "additionalProperties": False,
        }
    if command == "simulate":
        return {
            "type": "object",
            "properties": {
                "schema_version": version,
                "composition": _COMPOSITION,
                "equilibrium": _EQ_FULL,
                "sim": _SIM,
                "svg": {"type": "boolean"},
            },
            "required": ["schema_version", "composition", "equilibrium", "sim"],
            "additionalProperties": False,
        }
    if command == "tau0":
        return {
            "type": "object",
            "properties": {
                "schema_version": version,
                "populations": {
                    "type": "array",
                    "items": _POPULATION_NC,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "equilibrium": _EQ_V,
            },
            "required": ["schema_version", "populations", "equilibrium"],
            "additionalProperties": False,
        }
    if command == "margin":
        return {
            "type": "object",
            "properties": {
                "schema_version": version,
                "populations": {"type": "array", "items": _POPULATION, "minItems": 1},
                "equilibrium": _EQ_V,
                "svg": {"type": "boolean"},
            },
            "required": ["schema_version", "populations", "equilibrium"],
            "additionalProperties": False,
        }
    if command == "sweep":
        return {
            "type": "object",
            "properties": {
                "schema_version": version,
                "populations": {
                    "type": "array",
                    "items": _POPULATION_NC,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "equilibrium": _EQ_V,
                "sweep": _SWEEP,
                "svg": {"type": "boolean"},
            },
            "required": ["schema_version", "populations", "equilibrium", "sweep"],
            "additionalProperties": False,
        }
    raise ValueError(command)


def _build_preference(cfg: dict) -> VelocityPreference:
    if "calibrate" in cfg:
        c = cfg["calibrate"]
        return preference_with_slope(c["slope"], c["h_ref"], c["l_v"], c["d0"])
    return VelocityPreference(v_max=cfg["v_max"], l_v=cfg["l_v"], d0=cfg["d0"])


def _build_model(cfg: dict) -> BandoFtl:
    return BandoFtl(a=cfg["a"], b=cfg["b"], pref=_build_preference(cfg["preference"]))


def _build_populations(cfgs: list[dict]) -> list[PopulationSpec]:
    return [
        PopulationSpec(
            class_id=c["class_id"],
            model=_build_model(c["model"]),
            count=c.get("count", 0),
        )
        for c in cfgs
    ]


def _build_composition(cfg: dict) -> Composition:
    pops = tuple(_build_populations(cfg["populations"]))
    ordering = cfg["ordering"]
    if ordering == "blocks":
        ordering = block_ordering(pops)
    elif ordering == "spread":
        ordering = spread_ordering(pops)
    else:
        ordering = tuple(ordering)
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


def _trios_at_common_speed(config: dict) -> tuple[list[PopulationSpec], list[LinearTrio]]:
    """The config's populations and the trio of each at the configured common speed."""
    pops = _build_populations(config["populations"])
    v_bar = _resolve_v_bar(config["equilibrium"], pops)
    return pops, [linearize(p.model, preferred_headway(p.model, v_bar), v_bar) for p in pops]


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: str, rows, deterministic: bool) -> None:
    lines = []
    if not deterministic:
        lines.append("# generated " + datetime.now(timezone.utc).isoformat())
    lines.append(header)
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def cmd_equilibrium(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    rows = [
        (p.class_id, eq.h_bar[p.class_id], eq.v_bar, eq.length)
        for p in comp.populations
        if p.count > 0
    ]
    _write_csv(out / "equilibrium.csv", "class_id,h_bar_m,v_bar_mps,L_m", rows, deterministic)
    print(f"equilibrium: v_bar = {eq.v_bar} m/s, L = {eq.length} m, {comp.n} vehicles")
    return 0


def cmd_linearize(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    rows = []
    for p in comp.populations:
        if p.count == 0:
            continue
        trio = linearize(p.model, eq.h_bar[p.class_id], eq.v_bar)
        rows.append(
            (
                p.class_id,
                trio.alpha,
                trio.beta,
                trio.gamma,
                discriminant(trio),
                classify(trio).value,
            )
        )
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
    pops, trio_list = _trios_at_common_speed(config)
    trios = {p.class_id: t for p, t in zip(pops, trio_list)}
    deltas = {cid: discriminant(t) for cid, t in trios.items()}
    ids = [p.class_id for p in pops]

    if all(d >= -TOL_ZERO for d in deltas.values()):
        print("verdict: stable for all counts and orderings")
        return 0
    stable_ids = [cid for cid in ids if deltas[cid] > TOL_ZERO]
    unstable_ids = [cid for cid in ids if deltas[cid] < -TOL_ZERO]
    if not stable_ids:
        print("verdict: unstable for sufficiently many vehicles")
        return 0

    sid, uid = stable_ids[0], unstable_ids[0]
    rep = critical_penetration(trios[sid], trios[uid])
    _write_csv(
        out / "tau0.csv",
        "delta1,delta2,gamma_sq,n0,tau0,bound_lower,bound_upper",
        [
            (
                rep.delta1,
                rep.delta2,
                rep.gamma_sq,
                rep.n0,
                rep.tau0,
                rep.bound_lower,
                rep.bound_upper,
            )
        ],
        deterministic,
    )
    print(f"stable class: {sid} (delta = {rep.delta1}); unstable class: {uid} (delta = {rep.delta2})")
    print(f"tau0 = {rep.tau0:.6f} (bounds: [{rep.bound_lower:.6f}, {rep.bound_upper:.6f}])")
    return 0


def cmd_margin(config: dict, out: Path, deterministic: bool) -> int:
    pops, trios = _trios_at_common_speed(config)
    counts = [p.count for p in pops]
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
        svg = _svg.line_plot(
            [r[0] for r in rows],
            [r[1] for r in rows],
            x_label="y (1/s^2)",
            y_label="weighted log gain",
            title="stability margin vs y",
        )
        (out / "margin.svg").write_text(svg, encoding="utf-8", newline="\n")
    return 0


def cmd_spectrum(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    present = [p for p in comp.populations if p.count > 0]
    trio_by_class = {
        p.class_id: linearize(p.model, eq.h_bar[p.class_id], eq.v_bar) for p in present
    }
    ring = RingSystem(tuple(trio_by_class[a] for a in comp.ordering))
    report = eigenvalues_on_H(ring)
    # the abscissa depends only on the class counts; dense eigvals on a very
    # non-normal ordering (such as blocks) can report spurious eigenvalues
    certified = ring_abscissa(list(trio_by_class.values()), [p.count for p in present])
    if abs(report.abscissa - certified) > _SPECTRUM_AGREE_RTOL * max(1.0, abs(certified)):
        raise FloatingPointError(
            f"dense eigenvalues give abscissa {report.abscissa}, but the class counts "
            f"fix it at {certified}: this ordering makes the ring matrix too "
            "ill-conditioned for a dense spectrum"
        )
    rows = [(lam.real, lam.imag) for lam in report.eigenvalues]
    _write_csv(out / "spectrum.csv", "re_1ps,im_1ps", rows, deterministic)
    print(f"n = {comp.n}: abscissa = {report.abscissa} (zero excluded: {report.zero_excluded})")
    return 0


_PERT_KINDS = {
    "single_vehicle_kick": lambda cfg: SingleVehicleKick(),
    "sinusoidal_mode": lambda cfg: SinusoidalMode(mode=cfg.get("mode", 1)),
    "seeded_random_zero_sum": lambda cfg: SeededRandomZeroSum(seed=cfg.get("seed", 0)),
}


def cmd_simulate(config: dict, out: Path, deterministic: bool) -> int:
    comp = _build_composition(config["composition"])
    eq = _resolve_equilibrium(config["equilibrium"], comp)
    sim_cfg = config["sim"]
    pert_cfg = sim_cfg["perturbation"]
    pert = Perturbation(
        amplitude=pert_cfg["amplitude"],
        kind=_PERT_KINDS[pert_cfg["kind"]](pert_cfg),
    )
    cfg = SimConfig(
        t_end=sim_cfg["t_end"],
        dt=sim_cfg.get("dt", 0.05),
        record_every=sim_cfg.get("record_every", 1),
        perturbation=pert,
    )
    trace = simulate(comp, eq, cfg)
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
        svg = _svg.line_plot(
            list(trace.times),
            list(trace.speed_variance),
            x_label="t (s)",
            y_label="speed variance ((m/s)^2)",
            title="speed variance over time",
        )
        (out / "trace.svg").write_text(svg, encoding="utf-8", newline="\n")
    return 0


def cmd_sweep(config: dict, out: Path, deterministic: bool) -> int:
    _, trios = _trios_at_common_speed(config)
    rate = float(config["sweep"]["rate_class1"])
    n_totals = config["sweep"]["n_totals"]

    rows = []
    for n in n_totals:
        ab = fleet_abscissa(trios, [rate, 1.0 - rate], n)
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
        svg = _svg.line_plot(
            [float(r[0]) for r in rows],
            [r[2] for r in rows],
            x_label="n (vehicles)",
            y_label="spectral abscissa (1/s)",
            title="abscissa vs fleet size",
        )
        (out / "sweep.svg").write_text(svg, encoding="utf-8", newline="\n")
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

_DOMAIN_ERRORS = (
    NoEquilibriumError,
    CollisionError,
    ModelInvalidError,
    AmbiguousHeadwayError,
    PoleError,
    ValueError,
)
_NUMERIC_ERRORS = (
    DegenerateSpectrumError,
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
        config = json.loads(raw)
        jsonschema.validate(config, _config_schema(args.command))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except jsonschema.ValidationError as err:
        print(f"config error: {err.message}", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](config, out, args.deterministic)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as err:
        print(f"domain error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
