"""Benchmark of ringwave: closed-loop workloads timed end to end and per layer.

    python3 bench/run.py --workload {fleet_scan,wave_growth,design_scan}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --gate COMMIT [--seed N]

Run from the root of a source checkout; the package is taken from ``src/``.
One pass runs the workload's operations once, back to back, from a single
caller.  Passes repeat until the next one would end after ``--seconds``.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` first runs one untraced pass (the reference for the tracing
overhead), then traced passes, and prints the per-layer metrics, per traced
pass.  On ``fleet_scan`` it also runs one untraced pass with
``OPENBLAS_NUM_THREADS=1 RINGWAVE_THREADS=1`` as a single-threaded baseline.

``--gate COMMIT`` is the refactor gate: it runs every CLI command on the
seed's configs with ``--deterministic``, here and at COMMIT (exported with
``git archive``), and reports which CSVs differ byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A result file with the same numbers, the run's
environment and every operation's timing is written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 9
# time of the set-up probe (a fresh interpreter importing NumPy) on a quiet
# 2-core x86-64 with Python 3.11; see workloads.PROBE_REF_S for why times are scaled
SETUP_PROBE_REF_S = 0.2
TIER1_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# dense real nonsymmetric eigenvalues (Hessenberg + Francis QR) cost about 10 N^3 flops
EIG_FLOPS_PER_N3 = 10.0
LARGE_SIM_N = 1000

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RINGWAVE_THREADS")


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


# ---------------------------------------------------------------------------
# statistics


def _quantile(sorted_vals: list[float], p: float) -> float:
    pos = p / 100.0 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def summary(vals: list[float]) -> dict:
    """Median plus the highest percentile that has at least ten samples beyond it."""
    s = sorted(vals)
    out = {"median": statistics.median(s), "n": len(s)}
    for p in TAIL_PERCENTILES:
        if len(s) * (1.0 - p / 100.0) >= 10.0:
            out["tail_p"] = p
            out["tail"] = _quantile(s, p)
            break
    return out


def _fmt(name: str, summ: dict, unit: str, scale: float = 1.0) -> str:
    text = f"{name}: median {summ['median'] * scale:.6g} {unit}"
    if "tail" in summ:
        text += f", p{summ['tail_p']:g} {summ['tail'] * scale:.6g} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={summ['n']})"


# ---------------------------------------------------------------------------
# environment record


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older NumPy has no dict mode; the record says unknown
        pass
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "machine": platform.machine(),
        "tier1": _tier1(),
    }


def _tier1() -> dict:
    """Duration of the repository's test suite, measured once per checkout."""
    cache = BUILD / "tier1.json"
    if cache.exists():
        return json.loads(cache.read_text())
    if not (ROOT / "tests").is_dir():
        return {"status": "no tests directory"}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"--basetemp={BUILD / 'tier1_tmp'}", "--continue-on-collection-errors",
    ]
    t0 = time.perf_counter()
    try:
        out = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=TIER1_TIMEOUT_S
        )
        last = (out.stdout.strip().splitlines() or [""])[-1]
        rec = {"seconds": time.perf_counter() - t0, "exit": out.returncode, "summary": last}
    except subprocess.TimeoutExpired:
        rec = {"seconds": None, "status": f"timed out after {TIER1_TIMEOUT_S} s"}
    shutil.rmtree(BUILD / "tier1_tmp", ignore_errors=True)
    cache.write_text(json.dumps(rec))
    return rec


# ---------------------------------------------------------------------------
# set-up time


def _spawn_time(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[-1]!r} failed: {proc.stderr.decode(errors='replace')[-300:]}")
    return dt


def measure_setup(env: dict, samples: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing ``ringwave.cli``, after one warm-up.

    Each sample alternates with a probe interpreter that imports NumPy alone;
    the scaled time is the sample times SETUP_PROBE_REF_S / probe time.
    Returns the raw and the scaled times.
    """
    target = [sys.executable, "-c", "import ringwave.cli"]
    probe = [sys.executable, "-c", "import numpy"]
    raw, scaled = [], []
    for i in range(samples + 1):
        dt = _spawn_time(target, env)
        ref = _spawn_time(probe, env)
        if i:
            raw.append(dt)
            scaled.append(dt * SETUP_PROBE_REF_S / ref)
    return raw, scaled


# ---------------------------------------------------------------------------
# passes


def run_pass(runner: workloads.Runner, ops: list[workloads.Op]) -> tuple[float, list]:
    """One pass; returns the summed wall time of its operations and their timings."""
    outcomes, timings = {}, []
    for op in ops:
        outcome, timing = runner.run_op(op)
        outcomes[op.name] = outcome
        timings.append(timing)
    wall = sum(t.wall for t in timings)
    if runner.probing:
        runner.probe()
    for op, timing in zip(ops, timings):
        if op.check is None or not timing.ok:
            continue
        try:
            fails = op.check(outcomes[op.name], outcomes)
        except Exception as exc:  # a check that cannot read the output fails the operation
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            timing.ok = False
            timing.failures.extend(fails)
    return wall, timings


def run_passes(runner, ops, seconds: float) -> list[tuple[float, list]]:
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run_pass(runner, ops))
        if time.perf_counter() - start + passes[-1][0] > seconds:
            break
    for _, timings in passes:
        runner.rate_speeds(timings)
    return passes


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(passes, setup: tuple[list, list] | None, probes: list) -> tuple[dict, dict]:
    """Gated metrics (same names on every workload) and informational extras.

    Gated times are scaled by the probe speed (see ``workloads.PROBE_REF_S``);
    the raw times are reported beside them.  ``fail_frac`` and the per-kind
    operation times (scaled too) are reported, not gated: they are not the same
    metrics on every workload, and ``fail_frac`` is 0 when the program is correct.
    """
    walls = [w for w, _ in passes]
    cpus = [sum(t.cpu for t in ts) for _, ts in passes]
    walls_n = [sum(t.wall * t.speed for t in ts) for _, ts in passes]
    cpus_n = [sum(t.cpu * t.speed for t in ts) for _, ts in passes]
    all_ops = [t for _, ts in passes for t in ts]
    peak_kb = max(t.rss_kb for t in all_ops)
    metrics = {}
    if setup is not None:
        metrics["setup_s"] = {"value": statistics.median(setup[1]), "unit": "s"}
    metrics["wall_s"] = {"value": statistics.median(walls_n), "unit": "s"}
    metrics["cpu_s"] = {"value": statistics.median(cpus_n), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}

    info = {"wall_s": summary(walls_n), "cpu_s": summary(cpus_n),
            "raw_wall_s": summary(walls), "raw_cpu_s": summary(cpus),
            "probe_speed": summary([s for _, s in probes]) if probes else None}
    if setup is not None:
        info["setup_s"] = summary(setup[1])
        info["raw_setup_s"] = summary(setup[0])
    failed = sum(not t.ok for t in all_ops)
    info["fail_frac"] = failed / len(all_ops)
    kinds = {}
    for t in all_ops:
        kinds.setdefault(t.kind, []).append(t.wall * t.speed)
    for kind, vals in kinds.items():
        if kind == "scenario":
            info["scenario_ms"] = summary([v * 1000.0 for v in vals])
            info["scenarios_per_s"] = len(vals) / sum(vals)
        else:
            info[f"{kind}_s"] = summary(vals)
    return metrics, info


def report_end_to_end(metrics: dict, info: dict) -> None:
    for key in ("setup_s", "wall_s", "cpu_s", "raw_setup_s", "raw_wall_s", "raw_cpu_s"):
        if key in info:
            print(_fmt(key, info[key], "s"))
    if info["probe_speed"]:
        print(_fmt("probe_speed", info["probe_speed"], "x"))
    print(f"peak_rss_mb: {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"fail_frac: {info['fail_frac']:.4g} (failed / attempted operations)")
    for key in ("sweep_s", "min_unstable_s", "spectrum_s", "simulate_small_s", "simulate_large_s"):
        if key in info:
            print(_fmt(key, info[key], "s"))
    if "scenario_ms" in info:
        print(f"scenarios_per_s: {info['scenarios_per_s']:.6g} 1/s")
        print(_fmt("scenario_ms", info["scenario_ms"], "ms"))


# ---------------------------------------------------------------------------
# per-layer metrics

def _merge(exports: list[dict]) -> dict:
    functions, errors, spans = {}, {}, []
    for i, ex in enumerate(exports):
        for key, st in ex["functions"].items():
            acc = functions.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
            for f in acc:
                acc[f] += st[f]
        for layer, n in ex["errors"].items():
            errors[layer] = errors.get(layer, 0) + n
        for sp in ex["spans"]:
            sp = dict(sp)
            sp["id"] = (i, sp["id"])
            sp["parent"] = (i, sp["parent"]) if sp["parent"] is not None else None
            spans.append(sp)
    return {"functions": functions, "errors": errors, "spans": spans}


def per_layer(trace: dict, n_passes: int, csv_bytes: int) -> dict:
    fn = trace["functions"]
    spans = trace["spans"]
    by_id = {sp["id"]: sp for sp in spans}

    def f(key, field):
        return fn.get(key, {}).get(field, 0) / n_passes

    def dur(sp):
        return sp["end"] - sp["start"]

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def parent_name(sp):
        parent = by_id.get(sp["parent"])
        return parent["name"] if parent else None

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("model.preferred_headway.calls", f("model.preferred_headway", "calls"), "count")
    put("model.preferred_headway.self_s", f("model.preferred_headway", "self_s"), "s")
    # inclusive time: a closed-form inverse removes the bisection below it
    put("model.preferred_headway.total_s", f("model.preferred_headway", "total_s"), "s")
    put("equilibrium.from_length.calls", f("equilibrium.equilibrium_from_length", "calls"), "count")
    put("equilibrium.from_length.self_s", f("equilibrium.equilibrium_from_length", "self_s"), "s")
    put("equilibrium.from_length.total_s", f("equilibrium.equilibrium_from_length", "total_s"), "s")
    put("equilibrium.from_velocity.calls", f("equilibrium.equilibrium_from_velocity", "calls"), "count")
    put("numerics.bisect_root.calls", f("_numerics.bisect_root", "calls"), "count")
    put("linearize.linearize.self_s", f("linearize.linearize", "self_s"), "s")
    put("stability.log_gain.calls", f("stability.log_gain", "calls"), "count")
    put("stability.log_gain.points", f("stability.log_gain", "points"), "count")
    for name in ("critical_penetration", "multi_phase_margin", "multi_phase_tau1", "min_unstable_size"):
        put(f"stability.{name}.self_s", f(f"stability.{name}", "self_s"), "s")
    probed = [sp for sp in named("spectrum.eigenvalues_on_H") if parent_name(sp) == "stability.min_unstable_size"]
    put("stability.min_unstable_size.sizes_probed", len(probed) / n_passes, "count")

    put("spectrum.eigvals.self_s", f("spectrum.eigvals", "self_s"), "s")
    put("spectrum.assemble.self_s", f("spectrum.assemble", "self_s"), "s")
    put("spectrum.eigenvalues_on_H.calls", f("spectrum.eigenvalues_on_H", "calls"), "count")
    put("spectrum.eigenvalues_on_H.self_s", f("spectrum.eigenvalues_on_H", "self_s"), "s")
    put("spectrum.transfer_product.calls", f("spectrum.transfer_product", "calls"), "count")
    eig = named("spectrum.eigvals")
    eig_time = sum(dur(sp) for sp in eig)
    flops = sum(EIG_FLOPS_PER_N3 * sp["n"] ** 3 for sp in eig)
    put("spectrum.eig_gflops", flops / eig_time / 1e9 if eig_time > 0 else 0.0, "GFLOP/s")

    maps = named("_numerics.parallel_map")
    workers, busy, wall = 0, 0.0, 0.0
    for sp in maps:
        kids = [c for c in spans if c["parent"] == sp["id"]]
        workers = max(workers, len({c["thread"] for c in kids}))
        busy += sum(dur(c) for c in kids)
        wall += dur(sp)
    put("numerics.parallel_map.workers", workers, "count")
    put("numerics.parallel_map.speedup", busy / wall if wall > 0 else 0.0, "ratio")

    put("sim.simulate.self_s", f("sim.simulate", "self_s"), "s")
    sims = named("sim.simulate")
    for label, pick in (("small", lambda sp: sp["n"] < LARGE_SIM_N), ("large", lambda sp: sp["n"] >= LARGE_SIM_N)):
        chosen = [sp for sp in sims if pick(sp)]
        steps = sum(sp["steps"] for sp in chosen)
        put(f"sim.step_us.{label}", sum(dur(sp) for sp in chosen) / steps * 1e6 if steps else 0.0, "us")
    sim_time = sum(dur(sp) for sp in sims)
    vsteps = sum(sp["n"] * sp["steps"] for sp in sims)
    put("sim.vehicle_steps_per_s", vsteps / sim_time if sim_time > 0 else 0.0, "1/s")

    cli_self = sum(st["self_s"] for key, st in fn.items() if key == "cli.main" or key.startswith("cli.cmd_"))
    put("cli.main.self_s", cli_self / n_passes, "s")
    put("cli.validate.self_s", f("cli.validate", "self_s"), "s")
    put("cli.csv_bytes", csv_bytes / n_passes, "B")
    for layer in ("model", "equilibrium", "linearize", "spectrum", "stability", "sim", "cli", "_numerics"):
        put(f"{layer.lstrip('_')}.errors", trace["errors"].get(layer, 0) / n_passes, "count")
    return m


def _load_cli_traces(runner) -> tuple[list[dict], int]:
    exports, csv_bytes = [], 0
    for path in runner.trace_files:
        if path.exists():
            exports.append(json.loads(path.read_text()))
        csv_bytes += sum(p.stat().st_size for p in path.parent.glob("*.csv"))
    runner.trace_files.clear()
    return exports, csv_bytes


def run_traced(runner, ops, seconds: float, workload: str, seed: int) -> tuple[dict, dict, list]:
    """Traced passes, then one untraced pass as the reference for the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    runner.tracer = tracer
    runner.traced = True
    start = time.perf_counter()
    exports, csv_bytes, traced = [], 0, []
    while True:
        traced.append(run_pass(runner, ops))
        ex, nbytes = _load_cli_traces(runner)
        exports += ex
        csv_bytes += nbytes
        # leave room for the untraced pass, which takes about as long
        if time.perf_counter() - start + 2.0 * traced[-1][0] > seconds:
            break
    runner.traced = False
    reference = run_pass(runner, ops)
    exports.append(tracer.export())
    merged = _merge(exports)
    layers = per_layer(merged, len(traced), csv_bytes)

    traced_wall = statistics.median(w for w, _ in traced)
    fn = merged["functions"]
    layer_self = {}
    for key, st in fn.items():
        layer = key.split(".", 1)[0].lstrip("_")
        layer_self[layer] = layer_self.get(layer, 0.0) + st["self_s"] / len(traced)
    info = {
        "untraced_pass_s": reference[0],
        "untraced_pass_cpu_s": sum(t.cpu for t in reference[1]),
        "traced_pass_s": summary([w for w, _ in traced]),
        "tracing_overhead_frac": traced_wall / reference[0] - 1.0,
        "layer_self_s": layer_self,
    }
    if workload == "fleet_scan":
        info["eigvals_share_of_wall"] = layers["spectrum.eigvals.self_s"]["value"] / traced_wall
        info["single_thread_baseline"] = _single_thread_baseline(seed)
    elif workload == "wave_growth":
        sim_ops = [t.wall for _, ts in traced for t in ts if t.kind.startswith("simulate")]
        info["simulate_self_share_of_simulate_ops"] = (
            fn.get("sim.simulate", {}).get("self_s", 0.0) / sum(sim_ops)
        )
    elif workload == "design_scan":
        info["spectrum_and_sim_calls"] = sum(
            st["calls"] for key, st in fn.items() if key.startswith(("spectrum.", "sim."))
        )
    return layers, info, traced + [reference]


def _single_thread_baseline(seed: int) -> dict:
    env = _child_env({"OPENBLAS_NUM_THREADS": "1", "RINGWAVE_THREADS": "1"})
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", "fleet_scan",
            "--seed", str(seed), "--seconds", "1", "--trace", "0", "--single-pass"]
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        return {"error": out.stderr.strip()[-300:]}
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


# ---------------------------------------------------------------------------
# refactor gate

def run_gate(commit: str, seed: int) -> int:
    import io
    import tarfile

    if _git("rev-parse", "--verify", f"{commit}^{{commit}}") is None:
        print(f"gate: {commit!r} is not a commit of this repository", file=sys.stderr)
        return 2
    base = BUILD / "gate" / "base"
    shutil.rmtree(BUILD / "gate", ignore_errors=True)
    base.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(base, filter="data")

    work = BUILD / "gate" / "work"
    cfgs = workloads.gate_configs(seed, work / "configs")
    differ, same = [], []
    for name, (command, cfg) in cfgs.items():
        outs = {}
        for side, src in (("head", ROOT / "src"), ("base", base / "src")):
            out = work / side / name
            out.mkdir(parents=True)
            env = dict(os.environ, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-c", workloads.CLI_BOOT, command, "--config", str(cfg),
                 "--out", str(out), "--deterministic"],
                cwd=ROOT, env=env, capture_output=True,
            )
            outs[side] = (proc.returncode, {p.name: p.read_bytes() for p in out.glob("*.csv")})
        for fname in sorted(set(outs["head"][1]) | set(outs["base"][1])):
            key = f"{name}/{fname}"
            (same if outs["head"][1].get(fname) == outs["base"][1].get(fname) else differ).append(key)
        if outs["head"][0] != outs["base"][0]:
            differ.append(f"{name}: exit {outs['base'][0]} at base, {outs['head'][0]} here")
    print(f"refactor gate against {commit} (seed {seed}): {len(same)} CSVs identical, {len(differ)} differ")
    for key in differ:
        print(f"  differs: {key}")
    result = {"base": commit, "seed": seed, "identical": same, "differ": differ}
    _write_result(f"gate-seed{seed}", result)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------


def _write_result(stem: str, record: dict) -> Path:
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", metavar="COMMIT", help="report CSVs that differ from COMMIT")
    ap.add_argument("--single-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ringwave" / "__init__.py").is_file():
        print(f"no ringwave package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import ringwave  # noqa: F401  (imported before any timing)

    BUILD.mkdir(exist_ok=True)
    if args.gate:
        return run_gate(args.gate, args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    work = BUILD / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    env = environment(args.seed) if not args.single_pass else None
    runner = workloads.Runner(ROOT, work, _child_env())
    setup = None if args.single_pass else measure_setup(runner.env, SETUP_SAMPLES)
    ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), work)
    runner.probing = not args.trace
    workloads._probe_kernel()  # warm-up: the first call loads NumPy's lazy parts

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}
    if args.trace:
        metrics, info, passes = run_traced(runner, ops, args.seconds, args.workload, args.seed)
        print(f"{args.workload}: per traced pass, {len(passes) - 1} traced passes, seed {args.seed}")
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        for key, val in info.items():
            print(f"{key}: {val}")
    else:
        passes = run_passes(runner, ops, 0.0 if args.single_pass else args.seconds)
        metrics, info = end_to_end(passes, setup, runner.probes)
        print(f"{args.workload}: {len(passes)} passes of {len(ops)} operations, seed {args.seed}")
        report_end_to_end(metrics, info)
    all_ops = [t for _, ts in passes for t in ts]
    failures = [(t.name, f) for t in all_ops for f in t.failures]
    for name, msg in failures[:20]:
        print(f"FAILED {name}: {msg}")
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": sum(not t.ok for t in all_ops),
        "metrics": metrics,
    }
    if not args.single_pass:
        record.update(result=result, info=info, passes=[
            {"wall_s": w, "ops": [t.__dict__ for t in ts]} for w, ts in passes
        ])
        print(f"result file: {_write_result(f'{args.workload}-seed{args.seed}-trace{args.trace}', record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
