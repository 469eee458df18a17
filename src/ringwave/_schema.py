"""The part of JSON Schema (Draft 2020-12) that the CLI's config schemas use.

``validate(instance, schema)`` raises :class:`~ringwave.errors.ConfigError`
whose message names the JSON path of a violation, such as
``$.composition.populations[1].model.a: 0 must be > 0``.  It implements the
keywords in :data:`KEYWORDS` and no others; ``additionalProperties`` may only
be ``false``, and ``const`` and ``enum`` values are scalars.  Draft 2020-12
rules kept: a bool is neither a number nor an integer, a float with an
integral value is an integer, ``const`` and ``enum`` do not take ``true``
for ``1``, and ``oneOf`` needs exactly one match.
"""

from __future__ import annotations

import operator

from .errors import ConfigError

KEYWORDS = frozenset(
    {
        "type", "const", "enum", "minimum", "maximum", "exclusiveMinimum", "properties",
        "required", "additionalProperties", "items", "minItems", "maxItems", "oneOf",
    }
)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "maximum": (operator.le, "<="),
    "exclusiveMinimum": (operator.gt, ">"),
}


def _same(x, value) -> bool:
    # JSON equality against a scalar: 1 == 1.0, but true != 1
    return isinstance(x, bool) == isinstance(value, bool) and x == value


def _errors(x, schema: dict, path: tuple):
    """Yield ``(path, message)`` for each violation; ``path`` holds the keys and indices from the root."""
    kind = schema.get("type")
    if kind is not None and not TYPES[kind](x):
        yield path, f"{x!r} is not of type {kind!r}"
        return
    if "const" in schema and not _same(x, schema["const"]):
        yield path, f"{x!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_same(x, v) for v in schema["enum"]):
        yield path, f"{x!r} is not one of {schema['enum']!r}"
    if _is_number(x):
        for key, (ok, op) in _BOUNDS.items():
            if key in schema and not ok(x, schema[key]):
                yield path, f"{x!r} must be {op} {schema[key]!r}"
    if isinstance(x, dict):
        properties = schema.get("properties", {})
        for key, value in x.items():
            if key in properties:
                yield from _errors(value, properties[key], path + (key,))
            elif schema.get("additionalProperties") is False:
                yield path, f"unknown key {key!r}"
        for key in schema.get("required", ()):
            if key not in x:
                yield path, f"missing required key {key!r}"
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            yield path, f"has {len(x)} items, fewer than {schema['minItems']}"
        if len(x) > schema.get("maxItems", len(x)):
            yield path, f"has {len(x)} items, more than {schema['maxItems']}"
        if "items" in schema:
            for i, item in enumerate(x):
                yield from _errors(item, schema["items"], path + (i,))
    if "oneOf" in schema:
        firsts = [next(_errors(x, s, path), None) for s in schema["oneOf"]]
        matched = firsts.count(None)
        if matched > 1:
            yield path, f"matches {matched} of its {len(firsts)} allowed forms, not exactly one"
        elif not matched:
            # the form that got furthest in is the one the config most likely meant
            yield max(firsts, key=lambda err: len(err[0]))


def _format(path: tuple) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def validate(instance, schema: dict) -> None:
    """Raise :class:`ConfigError` if ``instance`` violates ``schema``."""
    for path, message in _errors(instance, schema, ()):
        raise ConfigError(f"{_format(path)}: {message}")
