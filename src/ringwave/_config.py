"""The CLI's config reader: each config is checked once, as its objects are built.

``load`` parses JSON, refusing a key given twice in one object, ``NaN``,
``+-Infinity`` and literals past the largest double.  ``validate`` walks the
parsed config once: it checks each field's type and range, the required and
unknown keys, and builds the :class:`Experiment` a command runs.  A mistake is
a :class:`~ringwave.errors.ConfigError` that starts with its JSON path, such as
``$.composition.populations[1].model.a: 0 must be > 0``.  As in JSON Schema
(Draft 2020-12), a bool is no number, a float with an integral value reads as
its integer, and ``true`` is not ``schema_version`` 1.  A ``ValueError`` of a
library constructor is refused at the path of the object it builds.  ``sim``
is imported only to read a ``sim`` section.
"""

from __future__ import annotations

import contextlib
import json
import math
from functools import partial
from typing import NamedTuple

from ._numerics import MAX_VEHICLES
from .equilibrium import Composition, PopulationSpec, block_ordering, spread_ordering
from .errors import ConfigError
from .model import BandoFtl, VelocityPreference, eval_preference, preference_with_slope

# perturbation kind -> the ``sim`` class it builds and that class's integer parameters,
# all optional: a parameter a config leaves out takes the class's default
_KINDS = {
    "single_vehicle_kick": ("SingleVehicleKick", ()),
    "sinusoidal_mode": ("SinusoidalMode", ("mode",)),
    "seeded_random_zero_sum": ("SeededRandomZeroSum", ("seed",)),
}
# the commands that run one ring, given by a composition
_RING = ("equilibrium", "linearize", "spectrum", "simulate")


class Experiment(NamedTuple):
    """What a config asks a command to run.  The equilibrium is given by ``v_bar``, or on a ring
    by its ``length``; ``composition`` is set for a ring, ``sim`` (a ``sim.SimConfig``) for
    ``simulate``, and ``n_totals`` and ``rate_class1`` for ``sweep``."""

    populations: tuple[PopulationSpec, ...]
    v_bar: float | None
    length: float | None
    composition: Composition | None = None
    sim: object = None
    n_totals: tuple[int, ...] = ()
    rate_class1: float = 0.0
    svg: bool = False


def _refuse(at: str, message: str) -> ConfigError:
    return ConfigError(f"{at}: {message}")


@contextlib.contextmanager
def _building(at: str):
    """Refuse a constructor's ``ValueError`` at config path ``at``."""
    try:
        yield
    except ValueError as err:
        raise _refuse(at, str(err)) from err


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A ``json.loads`` object hook that refuses a key given twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _refuse_constant(name: str):
    raise ConfigError(f"{name} is not a number a config may hold")


def _finite(parse):
    """A ``json.loads`` number hook that refuses literals beyond the finite doubles."""

    def hook(text: str):
        if not math.isfinite(float(text)):
            shown = text if len(text) <= 24 else text[:21] + "..."
            raise ConfigError(f"number {shown} does not fit a finite double")
        return parse(text)

    return hook


def load(text: str):
    """The JSON value of ``text``; :class:`ConfigError` for text that is no JSON config."""
    try:
        return json.loads(
            text,
            object_pairs_hook=_unique_keys,
            parse_constant=_refuse_constant,
            parse_float=_finite(float),
            parse_int=_finite(int),
        )
    except json.JSONDecodeError as err:
        raise ConfigError(str(err)) from err


# each reader takes a JSON value and its path, and returns the value read


def _fields(x, at: str, readers: dict, optional=()) -> dict:
    """An object with a key for each of ``readers`` but ``optional`` and no other, each value read by its reader."""
    if not isinstance(x, dict):
        raise _refuse(at, f"{x!r} is not of type 'object'")
    for key in x:
        if key not in readers:
            raise _refuse(at, f"unknown key {key!r}")
    for key in readers:
        if key not in x and key not in optional:
            raise _refuse(at, f"missing required key {key!r}")
    return {key: read(x[key], f"{at}.{key}") for key, read in readers.items() if key in x}


def _number(x, at: str, above=None, least=None, most=None):
    """A number within the bounds given, returned as it is: an int stays an int."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise _refuse(at, f"{x!r} is not of type 'number'")
    if above is not None and not x > above:
        raise _refuse(at, f"{x!r} must be > {above!r}")
    if least is not None and not x >= least:
        raise _refuse(at, f"{x!r} must be >= {least!r}")
    if most is not None and not x <= most:
        raise _refuse(at, f"{x!r} must be <= {most!r}")
    return x


_positive = partial(_number, above=0)
_nonnegative = partial(_number, least=0)


def _integer(x, at: str, least=None, most=None) -> int:
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise _refuse(at, f"{x!r} is not of type 'integer'")
    return int(_number(x, at, least=least, most=most))


def _items(x, at: str, read, least: int = 0, most: int | None = None) -> list:
    if not isinstance(x, list):
        raise _refuse(at, f"{x!r} is not of type 'array'")
    if len(x) < least:
        raise _refuse(at, f"has {len(x)} items, fewer than {least}")
    if most is not None and len(x) > most:
        raise _refuse(at, f"has {len(x)} items, more than {most}")
    return [read(item, f"{at}[{i}]") for i, item in enumerate(x)]


def _one_of(*values):
    """A reader of one of the scalars ``values``, by JSON equality: ``true`` is not 1."""

    def read(x, at: str):
        if not any(isinstance(x, bool) == isinstance(v, bool) and x == v for v in values):
            shown = repr(values[0]) if len(values) == 1 else f"one of {list(values)!r}"
            raise _refuse(at, f"{x!r} is not {shown}")
        return x

    return read


def _calibrated(x, at: str) -> VelocityPreference:
    c = _fields(x, at, {"h_ref": _positive, "slope": _positive, "l_v": _nonnegative, "d0": _positive})
    with _building(at):
        return preference_with_slope(c["slope"], c["h_ref"], c["l_v"], c["d0"])


def _preference(x, at: str) -> VelocityPreference:
    # the curve's own parameters, or a slope at a headway to calibrate v_max by
    if isinstance(x, dict) and "calibrate" in x:
        return _fields(x, at, {"calibrate": _calibrated})["calibrate"]
    p = _fields(x, at, {"v_max": _positive, "l_v": _nonnegative, "d0": _positive})
    with _building(at):
        return VelocityPreference(**p)


def _model(x, at: str) -> BandoFtl:
    m = _fields(x, at, {"kind": _one_of("bando_ftl"), "a": _positive, "b": _positive, "preference": _preference})
    with _building(at):
        return BandoFtl(a=m["a"], b=m["b"], pref=m["preference"])


def _populations(x, at: str, counted: bool = True, pair: bool = False) -> tuple[PopulationSpec, ...]:
    """The populations, each with a ``count`` if ``counted``; exactly two if ``pair``."""
    readers = {"class_id": _integer, "model": _model}
    if counted:
        readers["count"] = partial(_integer, least=0)
    rows = _items(x, at, partial(_fields, readers=readers), *((2, 2) if pair else (1, None)))
    ids = [row["class_id"] for row in rows]
    if len(set(ids)) != len(ids):
        raise _refuse(at, f"duplicate class ids: {ids}")
    with _building(at):
        return tuple(PopulationSpec(row["class_id"], row["model"], row.get("count", 0)) for row in rows)


def _ordering(x, at: str):
    if isinstance(x, list):
        return tuple(_items(x, at, _integer))
    return _one_of("blocks", "spread")(x, at)


def _composition(x, at: str) -> Composition:
    c = _fields(x, at, {"populations": _populations, "ordering": _ordering})
    pops, ordering = c["populations"], c["ordering"]
    if isinstance(ordering, str):
        try:
            ordering = (block_ordering if ordering == "blocks" else spread_ordering)(pops)
        except (MemoryError, OverflowError):
            total = float(sum(p.count for p in pops))
            raise _refuse(f"{at}.populations", f"too many vehicles to order in memory: {total:.3g}") from None
    with _building(at):
        return Composition(populations=pops, ordering=ordering)


_class_headway = partial(_fields, readers={"class_id": _integer, "headway": _positive})


def _equilibrium(x, at: str, pops, ring: bool) -> tuple[float | None, float | None]:
    """``(v_bar, None)``, or ``(None, length)`` where a ring command gives the ring length."""
    # three forms, told apart by their key
    if isinstance(x, dict) and "class_headway" in x:
        ch = _fields(x, at, {"class_headway": _class_headway})["class_headway"]
        at += ".class_headway"
        for p in pops:
            if p.class_id == ch["class_id"]:
                with _building(at):
                    return eval_preference(p.model.pref, ch["headway"]), None
        raise _refuse(f"{at}.class_id", f"class_headway refers to unknown class {ch['class_id']}")
    if ring and isinstance(x, dict) and "length" in x:
        return None, _fields(x, at, {"length": _positive})["length"]
    return _fields(x, at, {"v_bar": _positive})["v_bar"], None


def _perturbation(x, at: str):
    from . import sim

    params = {key: _integer for _, own in _KINDS.values() for key in own}
    p = _fields(x, at, {"amplitude": _nonnegative, "kind": _one_of(*_KINDS), **params}, optional=list(params))
    name, own = _KINDS[p["kind"]]
    if stray := sorted(set(p) - {"amplitude", "kind", *own}):
        raise _refuse(at, f"key {stray[0]!r} does not apply to kind {p['kind']!r}")
    with _building(at):
        return sim.Perturbation(p["amplitude"], getattr(sim, name)(**{key: p[key] for key in own if key in p}))


def _sim(x, at: str, n: int):
    """The ``sim.SimConfig`` for a ring of ``n``; each key left out takes the simulator's default."""
    from . import sim

    readers = {"dt": _positive, "t_end": _positive, "record_every": partial(_integer, least=1)}
    s = _fields(x, at, {**readers, "perturbation": _perturbation}, optional=("dt", "record_every"))
    if isinstance(kind := s["perturbation"].kind, sim.SinusoidalMode):
        with _building(f"{at}.perturbation.mode"):
            kind.profile(n)
    with _building(at):
        return sim.SimConfig(**s)


def validate(config, command: str) -> Experiment:
    """The :class:`Experiment` that ``config`` asks ``command`` to run; :class:`ConfigError` names a mistake's path."""
    ring = command in _RING
    # equilibrium and sim depend on the populations, so they are read after them
    readers = {"schema_version": _one_of(1), "equilibrium": lambda x, at: x}
    if ring:
        readers["composition"] = _composition
    else:
        # tau0 and sweep take exactly two classes and no counts
        readers["populations"] = partial(_populations, counted=command == "margin", pair=command != "margin")
    if command == "simulate":
        readers["sim"] = lambda x, at: x
    if command == "sweep":
        grid = {"n_totals": partial(_items, read=partial(_integer, least=2, most=MAX_VEHICLES), least=1)}
        readers["sweep"] = partial(_fields, readers={**grid, "rate_class1": partial(_number, least=0, most=1)})
    optional = ("svg",) if command in ("simulate", "margin", "sweep") else ()
    c = _fields(config, "$", {**readers, **dict.fromkeys(optional, _one_of(True, False))}, optional)
    comp = c.get("composition")
    pops = comp.populations if ring else c["populations"]
    if command == "margin" and not any(p.count for p in pops):
        raise _refuse("$.populations", "populations must contain at least one vehicle")
    v_bar, length = _equilibrium(c["equilibrium"], "$.equilibrium", pops, ring)
    sweep = c.get("sweep", {"n_totals": (), "rate_class1": 0.0})
    return Experiment(
        pops, v_bar, length, comp,
        sim=_sim(c["sim"], "$.sim", comp.n) if command == "simulate" else None,
        n_totals=tuple(sweep["n_totals"]),
        rate_class1=float(sweep["rate_class1"]),
        svg=c.get("svg", False),
    )
