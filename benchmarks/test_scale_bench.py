"""Paper-scale benchmark — emits ``BENCH_scale.json``.

**fused_scale_smoke** backs the scaling claim of the fused-streaming
work: a 1M-vertex PageRank super-step taken through the fused streaming
trace→simulate path and through the materialized two-stage path, each
in its own subprocess (``ru_maxrss`` is a process-lifetime high-water
mark, so per-path peaks need separate processes).  Asserts the two paths
produce identical cache counters and that the fused path's trace-phase
RSS growth stays under ``RSS_TARGET_FRACTION`` of the materialized
path's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cachesim import fast_available
from repro.framework import fasttrace

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_scale.json"

#: Acceptance: fused trace-phase RSS growth vs materialized.
RSS_TARGET_FRACTION = 0.25

#: Smoke scale: 1M vertices, 4M edges (estimated trace ~128 MiB, which
#: is exactly the regime the fused stage exists for).
SMOKE_VERTICES = 1_000_000
SMOKE_DEGREE = 4
SMOKE_CHUNK_EDGES = 1 << 18

needs_kernels = pytest.mark.skipif(
    not fast_available() or not fasttrace.fast_available(),
    reason="no C compiler for the compiled kernels",
)


def _store_bench(section: str, payload: dict) -> None:
    bench = {}
    if BENCH_PATH.exists():
        try:
            bench = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            bench = {}
    bench[section] = payload
    bench["environment"] = {
        "cpu_count": os.cpu_count(),
        "fast_available": fast_available(),
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


#: Child program: one path (fused | materialized) of the smoke cell in a
#: fresh process, reporting counters and the trace-phase RSS growth.
_SMOKE_CHILD = textwrap.dedent(
    """
    import json, resource, sys
    import numpy as np
    from repro.apps import make_app
    from repro.cachesim import DEFAULT_HIERARCHY, simulate_trace
    from repro.graph import from_edges

    mode, n, deg, chunk = (
        sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    )
    rng = np.random.default_rng(42)
    m = n * deg
    edges = np.stack(
        [rng.integers(0, n, size=m), rng.integers(0, n, size=m)], axis=1
    )
    graph = from_edges(n, edges)
    del edges
    app = make_app("PR")
    plan = app.plan(graph)
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "fused":
        app_trace = app.trace_streaming(graph, plan, chunk_edges=chunk)
        stats = simulate_trace(app_trace.trace, DEFAULT_HIERARCHY)
        runs = app_trace.trace.runs_streamed
    else:
        app_trace = app.trace(graph, plan)
        stats = simulate_trace(app_trace.trace, DEFAULT_HIERARCHY)
        runs = len(app_trace.trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "mode": mode,
        "runs": int(runs),
        "instructions": int(app_trace.instructions),
        "accesses": int(stats.accesses),
        "l1_misses": int(stats.l1_misses),
        "l2_misses": int(stats.l2_misses),
        "l3_misses": int(stats.l3_misses),
        "l2_breakdown": dict(stats.l2_miss_breakdown),
        "base_rss_kb": int(base_kb),
        "peak_rss_kb": int(peak_kb),
        "trace_phase_rss_kb": int(peak_kb - base_kb),
    }))
    """
)


def _run_smoke_child(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, "-c", _SMOKE_CHILD, mode,
            str(SMOKE_VERTICES), str(SMOKE_DEGREE), str(SMOKE_CHUNK_EDGES),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=1800,
    )
    assert proc.returncode == 0, f"{mode} child failed:\n{proc.stderr[-4000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_kernels
def test_fused_scale_smoke():
    fused = _run_smoke_child("fused")
    materialized = _run_smoke_child("materialized")

    counters = (
        "runs", "instructions", "accesses",
        "l1_misses", "l2_misses", "l3_misses", "l2_breakdown",
    )
    for name in counters:
        assert fused[name] == materialized[name], (
            f"fused {name} diverged: {fused[name]} != {materialized[name]}"
        )

    fused_growth = fused["trace_phase_rss_kb"]
    mat_growth = materialized["trace_phase_rss_kb"]
    ratio = fused_growth / mat_growth if mat_growth > 0 else 0.0
    payload = {
        "vertices": SMOKE_VERTICES,
        "edges": SMOKE_VERTICES * SMOKE_DEGREE,
        "chunk_edges": SMOKE_CHUNK_EDGES,
        "rss_target_fraction": RSS_TARGET_FRACTION,
        "rss_ratio_fused_over_materialized": ratio,
        "fused": fused,
        "materialized": materialized,
    }
    _store_bench("fused_scale_smoke", payload)
    print(
        f"\nfused smoke ({SMOKE_VERTICES:,} vertices): trace-phase RSS "
        f"fused {fused_growth / 1024:.0f} MiB vs materialized "
        f"{mat_growth / 1024:.0f} MiB -> {ratio:.1%}"
    )
    assert mat_growth > 0, "materialized path recorded no trace-phase RSS growth"
    assert ratio < RSS_TARGET_FRACTION, (
        f"fused trace-phase RSS is {ratio:.1%} of materialized "
        f"(target < {RSS_TARGET_FRACTION:.0%})"
    )
