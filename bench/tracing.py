"""Layer tracing for the ringwave benchmark, installed from outside the package.

``install()`` wraps the public functions of every ringwave module and patches
each module namespace (and module-level dict) that binds one of them, since
``cli`` imports names directly and dispatches through a command table.  Two
callees are wrapped where one module calls them: ``numpy.linalg.eigvals`` as
seen from ``spectrum`` and ``jsonschema.validate`` as seen from ``cli``.

Every wrapped call pushes a frame on a per-thread stack, so self time (own
duration minus the time of wrapped callees) is exact for every function.
Functions in ``_LEAVES`` are called thousands of times per operation; they only
add to per-function totals.  All others also record a span: name, thread id,
start, end, parent span and the trace id of the operation that caused it.  A
span opened on a pool thread with an empty stack is parented to the open
``parallel_map`` span, so work fanned out to threads nests under the map.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types

LAYERS = ("model", "equilibrium", "linearize", "spectrum", "stability", "sim", "cli", "_numerics")

# called per bisection step, per grid refinement step or per vehicle class
_LEAVES = {
    "model.eval_preference",
    "model.eval_preference_slope",
    "model.preferred_headway",
    "model.accel",
    "model.model_partials",
    "_numerics.bisect_root",
    "_numerics.golden_max",
    "_numerics.largest_remainder",
    "_numerics.thread_count",
    "equilibrium.equilibrium_from_velocity",
    "equilibrium.block_ordering",
    "equilibrium.spread_ordering",
    "linearize.discriminant",
    "linearize.classify",
    "stability.log_gain",
    "stability.gamma_squared",
    "stability.tau0_bounds",
    "spectrum.char_poly_eval",
    "spectrum.transfer_product",
    "sim.step",
    "sim.initial_state",
    "sim.growth_rate",
}


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    out = 1
    for d in shape:
        out *= int(d)
    return out


def _sim_attrs(args, kwargs):
    comp, cfg = args[0], args[2]
    return {"n": comp.n, "steps": int(round(cfg.t_end / cfg.dt))}


# extra per-call measurements: points adds to a function's total, attrs go on its span
_POINTS = {"stability.log_gain": lambda args, kwargs: _size(args[1])}
_ATTRS = {
    "spectrum.eigvals": lambda args, kwargs: {"n": int(args[0].shape[0])},
    "sim.simulate": _sim_attrs,
}


class _Frame:
    """One active wrapped call: its span (or nearest spanned ancestor) and callee time."""

    __slots__ = ("span", "child")

    def __init__(self, span):
        self.span = span
        self.child = 0.0


class Tracer:
    """Spans and per-function totals of one process."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.enabled = True
        self.spans: list[dict] = []
        self._tls = threading.local()
        self._stats: list[dict] = []  # one dict per thread, merged on export
        self._errors: list[dict] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._pool_parent: int | None = None

    # -- per-thread state -------------------------------------------------
    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.stats = {}
            tls.errors = {}
            tls.last_exc = {}
            with self._lock:
                self._stats.append(tls.stats)
                self._errors.append(tls.errors)
        return tls

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- wrapping ---------------------------------------------------------
    def wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        leaf = key in _LEAVES
        points = _POINTS.get(key)
        attrs = _ATTRS.get(key)
        is_pool = key == "_numerics.parallel_map"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tls = tracer._local()
            stack = tls.stack
            parent = stack[-1] if stack else None
            span = None
            if not leaf:
                if parent is not None:
                    parent_span = parent.span
                else:
                    parent_span = tracer._pool_parent
                span = {
                    "id": tracer._new_id(),
                    "parent": parent_span,
                    "name": key,
                    "trace": tracer.trace_id,
                    "thread": threading.get_ident(),
                }
                if attrs is not None:
                    span.update(attrs(args, kwargs))
            if span is not None:
                frame = _Frame(span["id"])
            else:
                frame = _Frame(parent.span if parent else tracer._pool_parent)
            stack.append(frame)
            saved_pool = tracer._pool_parent
            if is_pool:
                tracer._pool_parent = span["id"]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if tls.last_exc.get(layer) is not exc:
                    tls.last_exc[layer] = exc
                    tls.errors[layer] = tls.errors.get(layer, 0) + 1
                if span is not None:
                    span["error"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                if is_pool:
                    tracer._pool_parent = saved_pool
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent.child += dur
                st = tls.stats.get(key)
                if st is None:
                    st = tls.stats[key] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame.child
                if points is not None:
                    st[3] += points(args, kwargs)
                if span is not None:
                    span["start"] = t0
                    span["end"] = t1
                    span["self"] = dur - frame.child
                    tracer.spans.append(span)

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    # -- export -----------------------------------------------------------
    def export(self) -> dict:
        totals: dict[str, list] = {}
        for stats in self._stats:
            for key, (calls, total, self_s, pts) in list(stats.items()):
                acc = totals.setdefault(key, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
                acc[3] += pts
        errors: dict[str, int] = {}
        for errs in self._errors:
            for layer, count in errs.items():
                errors[layer] = errors.get(layer, 0) + count
        return {
            "functions": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "points": v[3]}
                for k, v in totals.items()
            },
            "errors": errors,
            "spans": list(self.spans),
        }


class _Proxy(types.ModuleType):
    """Module stand-in that serves some attributes wrapped and forwards the rest."""

    def __init__(self, target, overrides: dict):
        super().__init__(target.__name__)
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Wrap every public ringwave function and rebind it in every namespace."""
    modules = {name: importlib.import_module(f"ringwave.{name}") for name in LAYERS}
    package = importlib.import_module("ringwave")
    originals: dict[int, object] = {}
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and not getattr(obj, "__wrapped_by_bench__", False)
            ):
                originals[id(obj)] = tracer.wrap(f"{name}.{attr}", obj)
    namespaces = [vars(m) for m in modules.values()] + [vars(package)]
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            if id(obj) in originals:
                ns[attr] = originals[id(obj)]
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in originals:
                        obj[k] = originals[id(v)]

    spectrum, cli = modules["spectrum"], modules["cli"]
    np = spectrum.np
    linalg = _Proxy(np.linalg, {"eigvals": tracer.wrap("spectrum.eigvals", np.linalg.eigvals)})
    spectrum.np = _Proxy(np, {"linalg": linalg})
    js = cli.jsonschema
    cli.jsonschema = _Proxy(js, {"validate": tracer.wrap("cli.validate", js.validate)})


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
