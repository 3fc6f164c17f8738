"""One cold grid repetition in a fresh process (spawned by ``run.py``).

Protocol over stdin/stdout, so the parent can time set-up on its own:

1. import the program, check the engines, then print ``READY``;
2. read one JSON job line (an empty line means "set-up probe only: exit");
3. run the cold grid through ``run_grid`` on the job's empty store, then
   replay the whole grid once from the now warm store, as a warm caller
   (``ExperimentRunner``, the ablation sweeps) does, to check that it
   returns the cold results; then print one JSON result line.

A fresh process per repetition keeps the grid cold: ``load_dataset`` is
memoized per process, and the job's store directory starts empty.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from run import permuted


def _check_engines() -> None:
    from repro import engines
    from repro.pipeline import stages
    from repro.pipeline.stages import PIPELINE

    status = engines.status()
    for domain in ("sim", "trace", "graph"):
        if not status[domain]["fast_available"]:
            raise SystemExit(
                f"fast {domain} engine unavailable: "
                f"{status[domain]['unavailable_reason']}"
            )
    PIPELINE.validate_engines()
    stages.fused_trace_budget()


def _plain(value):
    """JSON form of the numpy scalars a ``CellResult`` may hold."""
    return value.item()


def _cell_dict(result, policy) -> dict:
    row = {name: getattr(result, name) for name in result.__dataclass_fields__}
    row["policy"] = policy
    return row


def _grid_cells(apps, datasets, techniques, policies) -> list[tuple]:
    """Cell keys in the order ``run_grid`` returns its results."""
    return [
        (app, dataset, technique, policy)
        for policy in (policies or [None])
        for app in apps
        for dataset in datasets
        for technique in techniques
    ]


def run_job(job: dict) -> dict:
    from repro.pipeline.cells import CellPipeline, ExperimentConfig
    from repro.pipeline.grid import run_grid
    from repro.pipeline.profiler import PROFILER, diff_snapshots
    from repro.pipeline.store import ArtifactStore

    clock = None
    if job["trace"]:
        import layers

        clock = layers.LayerClock()
        layers.install(clock)
        run_grid = clock.wrap("grid", run_grid)

    config = ExperimentConfig(scale=job["scale"], num_roots=job["num_roots"])
    pipeline = CellPipeline(config, store=ArtifactStore(job["store"]))
    policies = job["policies"]

    profile_before = PROFILER.snapshot()
    start = time.perf_counter()
    results = run_grid(
        pipeline,
        job["apps"],
        job["datasets"],
        job["techniques"],
        workers=1,
        policies=policies,
    )
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    store = pipeline.store.stats.as_dict()
    # Host seconds spent simulating, as the program's own profiler
    # records them; the fused stage streams the trace into the simulator.
    profile = diff_snapshots(PROFILER.snapshot(), profile_before)
    sim_s = sum(
        profile[stage].seconds
        for stage in ("simulate", "trace+simulate")
        if stage in profile
    )
    # Layer times of the cold grid alone, taken before the warm replay.
    layer_times = None
    if clock is not None:
        layer_times = {
            "self_s": dict(clock.self_s),
            "calls": dict(clock.calls),
            "work": dict(clock.work),
        }

    axes = [job["apps"], job["datasets"], job["techniques"], policies]
    cold_cells = _grid_cells(*axes)
    rows = [_cell_dict(r, cell[3]) for r, cell in zip(results, cold_cells)]
    expected = dict(zip(cold_cells, rows))

    # One warm replay, its axes in a seeded order, from the warm store.
    rng = random.Random(job["seed"])
    order = [permuted(axis, rng) for axis in axes]
    replayed = run_grid(pipeline, *order[:3], workers=1, policies=order[3])
    cells = _grid_cells(*order)
    warm_matches = len(replayed) == len(cells) and all(
        _cell_dict(r, cell[3]) == expected[cell] for r, cell in zip(replayed, cells)
    )

    out = {
        "wall_s": wall_s,
        "sim_s": sim_s,
        "rss_mb": rss_mb,
        "rows": rows,
        "store": store,
        "warm_matches": warm_matches,
    }
    if layer_times is not None:
        out["layers"] = layer_times
    return out


def main() -> int:
    _check_engines()
    print("READY", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    result = run_job(json.loads(line))
    sys.stdout.write(json.dumps(result, default=_plain) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
