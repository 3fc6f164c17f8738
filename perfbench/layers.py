"""Per-layer self-time accounting for the traced benchmark run.

The program is not instrumented for this: :func:`install` rebinds the
public function of each layer, at the name its callers bind, to a
wrapper that keeps a span stack.  A layer's *self time* is its span's
duration minus the time of the wrapped spans nested inside it, so the
self times of every layer plus the root (``grid``) add up to the root's
wall time by construction; the root's own self time is what no named
layer accounts for.  Only the calling thread's stack is kept:
grids run with ``workers=1``, so every layer runs on the main thread.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class LayerClock:
    """Self time, call counts and work counters per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[list] = []

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as ``layer``; ``count(result)`` adds to its work counter."""
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                self.work[layer] += count(result)
            return result

        return timed


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(clock: LayerClock) -> None:
    """Rebind every layer's public function to ``clock``'s wrappers."""
    from repro.apps import base as apps_base
    from repro.cachesim import fast as sim_fast
    from repro.framework import engine as framework_engine
    from repro.framework import fasttrace
    from repro.graph import fastgraph
    from repro.graph.csr import Graph
    from repro.perfmodel.cost import ReorderCostModel
    from repro.pipeline import cells
    from repro.pipeline.store import ArtifactStore
    from repro.reorder.base import ReorderingTechnique

    def rebind(owner, name: str, layer: str, count=None) -> None:
        setattr(owner, name, clock.wrap(layer, getattr(owner, name), count))

    rebind(cells, "load_dataset", "generate")
    for technique in {ReorderingTechnique, *_subclasses(ReorderingTechnique)}:
        if "compute_mapping" in vars(technique):
            rebind(technique, "compute_mapping", "mapping")
    rebind(Graph, "relabel", "relabel")
    rebind(apps_base.GraphApp, "plan", "run")
    rebind(apps_base.GraphApp, "trace", "trace", count=lambda t: len(t.trace))
    rebind(cells, "simulate_trace", "simulate", count=lambda s: s.accesses)
    rebind(cells, "superstep_cycles", "model")
    rebind(ReorderCostModel, "total_cycles", "model")
    rebind(ArtifactStore, "get", "store.get")
    rebind(ArtifactStore, "put", "store.put")
    rebind(sim_fast, "simulate_trace_fast", "kernel.sim")
    rebind(fasttrace, "trace_build_fast", "kernel.trace")
    rebind(apps_base, "ragged_gather", "kernel.trace")
    rebind(framework_engine, "ragged_gather", "kernel.trace")
    rebind(fasttrace, "gorder_place_fast", "kernel.gorder")
    rebind(fastgraph, "relabel_arrays", "kernel.graph")
    rebind(fastgraph, "build_csr_arrays", "kernel.graph")
