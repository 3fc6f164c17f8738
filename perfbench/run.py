"""The repository's benchmark: cold evaluation grids and ``repro-serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid-lightweight --seed 1 \
        --seconds 30 --trace 0

``perfbench/selftest.py`` checks the benchmark itself at a tiny scale.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``grid-lightweight``, ``grid-gorder``, ``sweep-policy`` — a cold
  ``run_grid`` (scale 4, ``workers=1``, one root) in a fresh process with
  an empty artifact store, then one warm replay of the whole grid from
  that store;
* ``serve-mixed`` — ``repro-serve`` (one pool worker, scale 1) on an
  empty store, driven over two keep-alive connections in a closed loop:
  120 distinct cold keys, then a warm replay of each key in seeded order.

A run spawns :data:`SETUP_PROBES` processes that only set up, then
repeats the workload on a fresh process and store until ``--seconds``
are used up, and reports medians over the repetitions (set-up: over the
probes and the repetitions).  Warm replays are checked but not timed
here: their speed is pure-Python speed, which on a shared host moved
between runs by about 1.5 times as much as the cold work's, past the
largest bound an end-to-end metric may have.  ``serve.warm_rps`` and the
serve per-request metrics of ``--trace 1`` time the warm path.

The seed permutes each grid axis and the serve key order.  Results are
checked independently of order against the digests in ``digests.json``
(a mismatch prints the new digest; replace the stored one only after a
deliberate change of the program's output); warm results must equal
their cold ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: on grids it runs one untraced and one traced
repetition of the same grid order and reports each layer's self time,
taken by rebinding the layer's public function (:mod:`layers`); on serve
it runs one repetition whose warm phase replays seeded uniform keys
until ``--seconds`` are used up, and reports, traced from outside the
server, the per-request mean of each part of the request time, split
from each response's ``meta``, cold and warm phase apart, the warm
throughput, and counters from ``/v1/stats``.  Layers that run inside the
serve pool worker are not timed and read 0 there, as do
``traced.wall_s`` and ``tracing.overhead_s``; serve layers read 0 on
grids.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment fingerprint, the operations sent, succeeded and failed in
each phase and, on a traced serve run, the latency percentiles with
their sample counts.  The exit code is 0 only when every operation
succeeded and checked out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
KERNEL_DIR = BUILD_DIR / "kernels"
WORK_DIR = BUILD_DIR / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"

#: Settings that would change which engine or store the program uses.
FORBIDDEN_ENV = re.compile(
    r"^REPRO_\w+_ENGINE$|^REPRO_(KERNEL_THREADS|FUSED_TRACE_BYTES|CACHE_DIR)$"
)

WORKLOADS: dict[str, dict] = {
    "grid-lightweight": {
        "kind": "grid",
        "apps": ["PR", "SSSP", "BFS"],
        "datasets": ["sd", "lj"],
        "techniques": ["Original", "Sort", "HubSort", "HubCluster", "DBG"],
        "policies": None,
        "scale": 4.0,
    },
    "grid-gorder": {
        "kind": "grid",
        "apps": ["PR", "BFS"],
        "datasets": ["sd", "lj"],
        "techniques": ["Original", "Gorder"],
        "policies": None,
        "scale": 4.0,
    },
    "sweep-policy": {
        "kind": "grid",
        "apps": ["PR", "BFS"],
        "datasets": ["sd", "lj"],
        "techniques": ["Original", "DBG"],
        "policies": ["lru", "lip", "grasp"],
        "scale": 4.0,
    },
    "serve-mixed": {
        "kind": "serve",
        "apps": ["PR", "BFS", "SSSP", "CC"],
        "datasets": ["sd", "lj", "wl", "kr", "pl"],
        "analyze_techniques": ["DBG", "Sort", "HubSort", "HubCluster", "BOBA"],
        "reorder_techniques": ["RCM", "Community", "RandomVertex", "BFS"],
        "scale": 1.0,
        "connections": 2,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "generate.s": "s",
    "generate.calls": "count",
    "mapping.s": "s",
    "mapping.calls": "count",
    "relabel.s": "s",
    "run.s": "s",
    "trace.s": "s",
    "trace.runs": "count",
    "simulate.s": "s",
    "simulate.accesses": "count",
    "model.s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.bytes_read": "B",
    "store.bytes_written": "B",
    "store.hit_ratio": "ratio",
    "grid.self_s": "s",
    "kernel.sim_s": "s",
    "kernel.trace_s": "s",
    "kernel.gorder_s": "s",
    "kernel.graph_s": "s",
    "http.cold_ms": "ms",
    "http.warm_ms": "ms",
    "serve.server_cold_ms": "ms",
    "serve.server_warm_ms": "ms",
    "serve.queue_cold_ms": "ms",
    "serve.compute_cold_ms": "ms",
    "serve.executions": "count",
    "serve.hit_ratio": "ratio",
    "serve.rejected": "count",
    "serve.warm_rps": "1/s",
    "traced.wall_s": "s",
    "tracing.overhead_s": "s",
}

#: Per-layer metric fed by each layer's self time (see :mod:`layers`).
LAYER_METRICS = {
    "grid": "grid.self_s",
    "generate": "generate.s",
    "mapping": "mapping.s",
    "relabel": "relabel.s",
    "run": "run.s",
    "trace": "trace.s",
    "simulate": "simulate.s",
    "model": "model.s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "kernel.sim": "kernel.sim_s",
    "kernel.trace": "kernel.trace_s",
    "kernel.gorder": "kernel.gorder_s",
    "kernel.graph": "kernel.graph_s",
}

#: Set-up-only spawns per run; each repetition adds its own set-up sample.
SETUP_PROBES = 3
#: Allowed gap between the summed layer self times and the traced wall.
#: The self times sum to the root span by construction, so this only
#: catches a layer timed outside ``run_grid``.
DECOMPOSITION_TOLERANCE = 0.01
#: Largest share of the traced wall that may stay in ``grid.self_s``,
#: i.e. in no named layer.
GRID_SELF_CAP = 0.10
#: Fewest samples a reported percentile must have beyond it.
MIN_BEYOND = 10
#: Serve latency percentiles recorded with a traced run, per phase.
SERVE_PERCENTILES = {"cold": (0.50, 0.90), "warm": (0.50, 0.99)}
#: Longest one grid repetition may take before it counts as hung.
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run as specified (no result is printed)."""


# -- helpers -----------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(samples: list[float], q: float) -> dict:
    """Nearest-rank ``q`` percentile, with its sample count and tail size.

    A failed operation enters as ``inf``, so it counts as missing every
    latency limit.  The value is ``None`` (not reported) when fewer than
    :data:`MIN_BEYOND` samples lie beyond the rank, or when the
    percentile itself falls on a failure.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    value = ordered[rank - 1] if ordered else math.inf
    if beyond < MIN_BEYOND or math.isinf(value):
        value = None
    return {"value_ms": value, "samples": len(ordered), "beyond": beyond}


def digest(rows: list[dict]) -> str:
    """Order-independent SHA-256 over canonical JSON rows."""
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_key(name: str, spec: dict) -> str:
    return f"{name}@{spec['scale']}"


def check_digest(name: str, spec: dict, rows: list[dict]) -> bool:
    """Whether ``rows`` match the stored digest (prints it when not)."""
    stored = json.loads(DIGESTS.read_text()).get(digest_key(name, spec))
    actual = digest(rows)
    if actual != stored:
        print(
            f"output check failed for {digest_key(name, spec)}: "
            f"digest {actual}, stored {stored}",
            file=sys.stderr,
        )
    return actual == stored


def store_totals(per_kind: dict) -> dict:
    totals = {"hits": 0, "misses": 0, "bytes_read": 0, "bytes_written": 0}
    for counters in per_kind.values():
        for field in totals:
            totals[field] += counters.get(field, 0)
    return totals


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def fingerprint(seed: int, engine_status: dict) -> dict:
    """Environment versions recorded with every result."""
    import numpy

    from repro import _compile

    compiler = _compile.find_compiler()
    version = None
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = (proc.stdout.splitlines() or [None])[0]
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler,
        "compiler_version": version,
        "cflags": list(_compile.BASE_CFLAGS),
        "kernels": sorted(p.name for p in KERNEL_DIR.glob("*.so")),
        "engines": engine_status,
        "git_sha": git_sha(),
        "seed": seed,
    }


def preflight() -> tuple[dict, dict]:
    """Refuse a misconfigured environment; build the kernels up front.

    Returns the environment for child processes and ``engines.status()``.
    Compiling here keeps kernel build time out of every timed set-up.
    """
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}")
    forbidden = sorted(name for name in os.environ if FORBIDDEN_ENV.match(name))
    if forbidden:
        raise BenchmarkError(f"refusing to run with {', '.join(forbidden)} set")
    for directory in (KERNEL_DIR, WORK_DIR / "tmp"):
        directory.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_KERNEL_DIR=str(KERNEL_DIR),
        TMPDIR=str(WORK_DIR / "tmp"),
    )
    os.environ["REPRO_KERNEL_DIR"] = env["REPRO_KERNEL_DIR"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import engines

    status = engines.status()
    for domain in ("sim", "trace", "graph"):
        if not status[domain]["fast_available"]:
            raise BenchmarkError(
                f"fast {domain} engine unavailable: "
                f"{status[domain]['unavailable_reason']}"
            )
    return env, status


def permuted(values: list | None, rng: random.Random) -> list | None:
    if values is None:
        return None
    values = list(values)
    rng.shuffle(values)
    return values


def tally(phases: dict, phase: str, sent: int, failed: int) -> None:
    """Add ``sent`` operations, ``failed`` of them failed, to ``phase``."""
    counts = phases.setdefault(phase, {"sent": 0, "succeeded": 0, "failed": 0})
    counts["sent"] += sent
    counts["succeeded"] += sent - failed
    counts["failed"] += failed


def repeat_until(deadline: float, rep) -> list:
    """``rep(index)`` for index 0, 1, ... while time is left.

    Another repetition starts while it would end no more than half a
    repetition (the last one's length) after ``deadline``, a
    ``time.monotonic()`` reading, so a run ends near it on any host.
    """
    out = []
    while True:
        start = time.monotonic()
        out.append(rep(len(out)))
        now = time.monotonic()
        if now + (now - start) / 2 > deadline:
            return out


# -- grid workloads ----------------------------------------------------------
def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


def _grid_child(env: dict, job: dict | None) -> tuple[float, dict | None]:
    """Spawn one grid child; returns ``(setup_s, result or None)``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "grid_child.py")],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        if _read_line(proc, CHILD_TIMEOUT_S).strip() != "READY":
            raise BenchmarkError("grid child failed during set-up")
        setup_s = time.perf_counter() - start
        payload = "" if job is None else json.dumps(job)
        out, _ = proc.communicate(payload + "\n", timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"grid child exited with {proc.returncode}")
        return setup_s, (json.loads(out.splitlines()[-1]) if job else None)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def grid_rep(
    name: str, spec: dict, seed: int, index: int, env: dict, trace: bool = False
) -> tuple[float, dict]:
    """One cold grid on an empty store in a fresh child: ``(setup_s, result)``.

    Each repetition permutes the axes with its own seed, so a run's
    median covers several execution orders.
    """
    rep_seed = seed * 1000 + index
    rng = random.Random(rep_seed)
    store = WORK_DIR / f"{name}-{os.getpid()}-{index}-{int(trace)}"
    shutil.rmtree(store, ignore_errors=True)
    job = {
        **{
            axis: permuted(spec[axis], rng)
            for axis in ("apps", "datasets", "techniques", "policies")
        },
        "scale": spec["scale"],
        "num_roots": 1,
        "store": str(store),
        "seed": rep_seed,
        "trace": trace,
    }
    try:
        return _grid_child(env, job)
    finally:
        shutil.rmtree(store, ignore_errors=True)


def check_grid_rep(name: str, spec: dict, result: dict, phases: dict) -> None:
    """Tally one repetition's cold cells and warm replay, checked.

    Every cold cell fails when the results miss the stored digest or the
    empty store reported a cell hit; the warm replay fails when it
    differs from the cold results.
    """
    cold_cell_hits = result["store"].get("cell", {}).get("hits", 0)
    if cold_cell_hits:
        print(f"cold pass recorded {cold_cell_hits} cell-store hits", file=sys.stderr)
    rows = result["rows"]
    bad = cold_cell_hits or not check_digest(name, spec, rows)
    tally(phases, "cold", len(rows), len(rows) if bad else 0)
    tally(phases, "warm", 1, 0 if result["warm_matches"] else 1)


def grid_end_to_end(name: str, spec: dict, seed: int, seconds: int, env: dict) -> tuple:
    start = time.monotonic()
    setups = [_grid_child(env, None)[0] for _ in range(SETUP_PROBES)]
    runs = repeat_until(
        start + seconds, lambda index: grid_rep(name, spec, seed, index, env)
    )
    setups += [setup for setup, _ in runs]
    results = [result for _, result in runs]
    phases: dict = {}
    for result in results:
        check_grid_rep(name, spec, result, phases)
    throughput = [
        sum(row["instructions"] for row in r["rows"]) / r["sim_s"] / 1e6
        for r in results
    ]
    summary = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "sim_minstr_per_s": statistics.median(throughput),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    notes = {"repetitions": len(results), "setup_samples": len(setups)}
    return summary, phases, notes


def grid_per_layer(name: str, spec: dict, seed: int, seconds: int, env: dict) -> tuple:
    _, plain = grid_rep(name, spec, seed, 0, env)
    _, traced = grid_rep(name, spec, seed, 0, env, trace=True)
    phases: dict = {}
    check_grid_rep(name, spec, plain, phases)
    check_grid_rep(name, spec, traced, phases)
    clock = traced["layers"]
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for layer, metric_name in LAYER_METRICS.items():
        values[metric_name] = clock["self_s"].get(layer, 0.0)
    values["generate.calls"] = clock["calls"].get("generate", 0)
    values["mapping.calls"] = clock["calls"].get("mapping", 0)
    values["trace.runs"] = clock["work"].get("trace", 0)
    values["simulate.accesses"] = clock["work"].get("simulate", 0)
    store = store_totals(traced["store"])
    values["store.bytes_read"] = store["bytes_read"]
    values["store.bytes_written"] = store["bytes_written"]
    values["store.hit_ratio"] = store["hits"] / max(1, store["hits"] + store["misses"])
    values["traced.wall_s"] = traced["wall_s"]
    values["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layer_sum = sum(clock["self_s"].values())
    gap = abs(layer_sum - traced["wall_s"]) / traced["wall_s"]
    self_share = values["grid.self_s"] / traced["wall_s"]
    notes = {
        "decomposition": {
            "layers_sum_s": layer_sum,
            "traced_wall_s": traced["wall_s"],
            "gap": gap,
            "tolerance": DECOMPOSITION_TOLERANCE,
            "grid_self_share": self_share,
            "grid_self_cap": GRID_SELF_CAP,
        }
    }
    if gap > DECOMPOSITION_TOLERANCE:
        print(f"layer self times miss the traced wall by {gap:.2%}", file=sys.stderr)
    if self_share > GRID_SELF_CAP:
        print(f"{self_share:.1%} of the traced wall is in no layer", file=sys.stderr)
    bad = gap > DECOMPOSITION_TOLERANCE or self_share > GRID_SELF_CAP
    tally(phases, "decomposition", 1, int(bad))
    return values, phases, notes


# -- serve workload ----------------------------------------------------------
def serve_keys(spec: dict, seed: int) -> list[tuple]:
    keys = [
        ("analyze", app, dataset, technique)
        for app in spec["apps"]
        for dataset in spec["datasets"]
        for technique in spec["analyze_techniques"]
    ]
    keys += [
        ("reorder", None, dataset, technique)
        for dataset in spec["datasets"]
        for technique in spec["reorder_techniques"]
    ]
    random.Random(seed).shuffle(keys)
    return keys


def serve_rep(
    name: str, spec: dict, seed: int, index: int, env: dict, warm_until: float = 0.0
) -> dict:
    """One fresh server on an empty store: cold phase, warm phase, checks.

    The warm phase replays every key once, then seeded uniform keys until
    ``warm_until`` (``time.monotonic()``).
    """
    import serveload

    rep_seed = seed * 1000 + index
    keys = serve_keys(spec, rep_seed)
    store = WORK_DIR / f"{name}-{os.getpid()}-{index}"
    shutil.rmtree(store, ignore_errors=True)
    try:
        proc, port, setup_s = serveload.start_server(env, ROOT, store, spec["scale"])
        try:
            out = serveload.drive(
                port, keys, warm_until, rep_seed, spec["connections"]
            )
            out["rss_mb"] = serveload.peak_rss_mb(proc.pid)
        finally:
            serveload.stop_server(proc)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    out["setup_s"] = setup_s

    cold_failed = 0
    cold_results: dict[int, dict] = {}
    for key_index, status, _, source, *_, result in out["cold"]:
        if status != 200 or source != "cold":
            cold_failed += 1
        else:
            cold_results[key_index] = result
    rows = [
        {"key": list(keys[i]), "result": result} for i, result in cold_results.items()
    ]
    cell_hits = out["stats_after_cold"]["store"].get("cell", {}).get("hits", 0)
    if cell_hits:
        print(f"cold phase recorded {cell_hits} cell-store hits", file=sys.stderr)
    if len(rows) == len(keys) and (cell_hits or not check_digest(name, spec, rows)):
        cold_failed = len(rows)
    # A failed or wrong reply misses every latency limit.
    out["cold_ms"] = [
        1000.0 * rtt_s if i in cold_results else math.inf
        for i, _, rtt_s, *_ in out["cold"]
    ]
    out["warm_ms"] = [
        1000.0 * rtt_s if status == 200 and source == "warm" and matched else math.inf
        for _, status, rtt_s, source, *_, matched in out["warm"]
    ]
    out["phases"] = {}
    tally(out["phases"], "cold", len(out["cold"]), cold_failed)
    tally(
        out["phases"], "warm", len(out["warm_ms"]), sum(map(math.isinf, out["warm_ms"]))
    )
    # The simulator runs in the pool worker, out of sight of the client:
    # on serve, instructions are divided by the pool compute time of the
    # analyze requests that simulated them.
    analyzed = [
        (cold_results[i]["instructions"], compute_ms)
        for i, *_, compute_ms, _ in out["cold"]
        if i in cold_results and keys[i][0] == "analyze"
    ]
    out["instructions"] = sum(instr for instr, _ in analyzed)
    out["sim_s"] = sum(ms for _, ms in analyzed) / 1000.0
    return out


def serve_setup_probe(spec: dict, env: dict) -> float:
    import serveload

    store = WORK_DIR / f"probe-{os.getpid()}"
    try:
        proc, _, setup_s = serveload.start_server(env, ROOT, store, spec["scale"])
        serveload.stop_server(proc)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return setup_s


def serve_end_to_end(
    name: str, spec: dict, seed: int, seconds: int, env: dict
) -> tuple:
    start = time.monotonic()
    setups = [serve_setup_probe(spec, env) for _ in range(SETUP_PROBES)]
    results = repeat_until(
        start + seconds, lambda index: serve_rep(name, spec, seed, index, env)
    )
    setups += [r["setup_s"] for r in results]
    summary = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["cold_wall_s"] for r in results),
        "sim_minstr_per_s": statistics.median(
            r["instructions"] / r["sim_s"] / 1e6 for r in results
        ),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    phases: dict = {}
    for result in results:
        for phase, counts in result["phases"].items():
            tally(phases, phase, counts["sent"], counts["failed"])
    notes = {"repetitions": len(results), "setup_samples": len(setups)}
    return summary, phases, notes


def serve_per_layer(name: str, spec: dict, seed: int, seconds: int, env: dict) -> tuple:
    deadline = time.monotonic() + seconds
    result = serve_rep(name, spec, seed, 0, env, warm_until=deadline)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    # Per-request means, so that a layer twice as slow reads twice as
    # high whatever the number of requests in the timed warm phase.
    for phase in ("cold", "warm"):
        parts = [
            (1000.0 * rtt_s - total_ms, total_ms - queue_ms - compute_ms)
            for _, status, rtt_s, _, total_ms, queue_ms, compute_ms, _ in result[phase]
            if status == 200
        ]
        count = max(1, len(parts))
        values[f"http.{phase}_ms"] = sum(http for http, _ in parts) / count
        values[f"serve.server_{phase}_ms"] = sum(own for _, own in parts) / count
    cold = [record for record in result["cold"] if record[1] == 200]
    values["serve.queue_cold_ms"] = sum(r[5] for r in cold) / max(1, len(cold))
    values["serve.compute_cold_ms"] = sum(r[6] for r in cold) / max(1, len(cold))
    counters = result["stats"]["counters"]
    values["serve.executions"] = counters.get("serve.executions", 0)
    values["serve.rejected"] = counters.get("serve.rejected", 0)
    warm_sources = [record[3] for record in result["warm"]]
    values["serve.hit_ratio"] = warm_sources.count("warm") / max(1, len(warm_sources))
    values["serve.warm_rps"] = (
        sum(map(math.isfinite, result["warm_ms"])) / result["warm_wall_s"]
    )
    # Store traffic of the cold phase, whose work is fixed (120 keys).
    store = store_totals(result["stats_after_cold"]["store"])
    values["store.bytes_read"] = store["bytes_read"]
    values["store.bytes_written"] = store["bytes_written"]
    values["store.hit_ratio"] = store["hits"] / max(1, store["hits"] + store["misses"])
    notes = {
        "percentiles": {
            phase: {
                f"p{round(q * 100)}": percentile(result[f"{phase}_ms"], q)
                for q in quantiles
            }
            for phase, quantiles in SERVE_PERCENTILES.items()
        }
    }
    return values, result["phases"], notes


# -- entry point ---------------------------------------------------------------
def run(
    name: str, spec: dict, seed: int, seconds: int, trace: bool, env: dict
) -> tuple:
    """``(metrics, phases, notes)`` for one workload run; ``phases`` counts
    the operations sent, succeeded and failed in each phase."""
    grid = spec["kind"] == "grid"
    if trace:
        measure = grid_per_layer if grid else serve_per_layer
        units = PER_LAYER_UNITS
    else:
        measure = grid_end_to_end if grid else serve_end_to_end
        units = END_TO_END_UNITS
    values, phases, notes = measure(name, spec, seed, seconds, env)
    metrics = {k: metric(values[k], unit) for k, unit in units.items()}
    return metrics, phases, notes


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    workloads = workloads or WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env, engine_status = preflight()
        print(json.dumps({"fingerprint": fingerprint(args.seed, engine_status)}))
        metrics, phases, notes = run(
            args.workload,
            workloads[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            env,
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    notes["phases"] = phases
    print(json.dumps({"workload": args.workload, "notes": notes}))
    attempted = sum(counts["sent"] for counts in phases.values())
    failed = sum(counts["failed"] for counts in phases.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
