"""Streaming super-step trace generation for the fused trace→simulate path.

:meth:`GraphApp.trace <repro.apps.base.GraphApp.trace>` materializes the
whole super-step trace — concatenated keyed streams, one global stable
sort, run-length compression — before the simulator sees a single run.
At paper-scale graphs (tens of millions of vertices) that intermediate is
multiple GiB.  :func:`streaming_trace` produces the *same* trace as a
:class:`~repro.framework.trace.StreamingTrace` of bounded chunks instead,
so the fused pipeline stage can feed it straight into the simulator's
persistent state and peak memory stays one chunk, not one trace.

Why chunking is exact
---------------------

The global time keys are ``local_index + quantum * 2 * E`` (plus small
per-stream fractional offsets), where ``quantum = local_index //
INTERLEAVE_QUANTUM`` within each core's contiguous edge segment.  All
keys of quantum ``q`` lie in ``[q*2E - 1, q*2E + E + 1)`` — *disjoint
ranges per quantum*.  The globally key-sorted trace is therefore the
concatenation of per-quantum sorted sub-traces, so building batches of
whole quantum slices and sorting each batch independently reproduces the
monolithic order run for run:

* **same keys** — every access keeps the key the monolithic builder
  would assign (global edge indices, global per-vertex anchors);
* **same tie order** — equal keys imply equal quanta (anchors differ by
  less than ``E`` while quanta are ``2E`` apart), so ties never straddle
  a batch, and within a batch streams are added in the monolithic order
  with each stream's entries in original stream order;
* **same accesses** — the block-transition elision that drops guaranteed
  L1 hits compares each stream entry to its *stream-order* predecessor,
  which at a batch boundary is computed analytically from the CSR
  instead of being carried in memory;
* **seam runs** — a run split across two chunks is re-merged by
  :meth:`StreamingTrace.chunks`, restoring the exact run sequence.

The differential suite asserts the materialized stream equals the
monolithic trace array-for-array, and the fused simulate path is
counter-identical to the two-stage path.
"""

from __future__ import annotations

import numpy as np

from repro.framework.trace import AddressSpace, AppTrace, StreamingTrace, TraceBuilder

__all__ = ["streaming_trace", "DEFAULT_CHUNK_EDGES"]

#: Edge-stream entries targeted per chunk (the O(chunk) working set of
#: the fused stage).  ~1M edges keeps a chunk's packed arrays in the
#: tens of MB while amortizing per-batch setup.
DEFAULT_CHUNK_EDGES = 1 << 20


def _transitions(blocks: np.ndarray) -> np.ndarray:
    """Block-transition emit mask over one full stream (first entry True)."""
    mask = np.empty(blocks.size, dtype=bool)
    if blocks.size:
        mask[0] = True
        mask[1:] = blocks[1:] != blocks[:-1]
    return mask


class _StreamPlan:
    """O(V) geometry shared by every batch of one super-step stream."""

    def __init__(self, app, graph, step) -> None:
        from repro.apps import base

        self.app = app
        self.graph = graph
        self.step = step
        self.quantum = base.INTERLEAVE_QUANTUM
        space = AddressSpace()
        self.vertex_region = space.region(
            "vertex", graph.num_vertices + 1, base.VERTEX_ENTRY_BYTES
        )
        self.edge_region = space.region("edge", graph.num_edges, base.EDGE_ENTRY_BYTES)
        self.prop_region = space.region(
            "property", graph.num_vertices, app.irregular_property_bytes
        )
        self.out_region = space.region("out_property", graph.num_vertices, 8)
        self.weight_region = (
            space.region("weights", graph.num_edges, 8) if graph.is_weighted else None
        )

        self.pull = step.direction == "pull"
        self.csr_offsets = np.ascontiguousarray(
            graph.in_offsets if self.pull else graph.out_offsets, dtype=np.int64
        )
        self.endpoints = graph.in_sources if self.pull else graph.out_targets
        if step.active is None:
            ids = np.arange(graph.num_vertices, dtype=np.int64)
        else:
            ids = np.asarray(step.active, dtype=np.int64)
        self.ids = ids
        lengths = (self.csr_offsets[ids + 1] - self.csr_offsets[ids]).astype(np.int64)
        self.lengths = lengths
        self.edges = int(lengths.sum())
        first_edge = np.zeros(ids.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=first_edge[1:])
        self.first_edge = first_edge
        last_edge = first_edge + np.maximum(lengths - 1, 0)
        self.cores_v = base.core_of_vertices(ids, graph.num_vertices)

        # Per-core contiguous segments of the edge enumeration — exactly
        # the runs `_interleave_offsets` detects on the per-edge core
        # stream (cores with no edges contribute no segment).
        nz = lengths > 0
        nz_cores = self.cores_v[nz]
        nz_first = first_edge[nz]
        if nz_cores.size:
            change = np.empty(nz_cores.size, dtype=bool)
            change[0] = True
            change[1:] = nz_cores[1:] != nz_cores[:-1]
            self.seg_start = nz_first[change]
            self.seg_end = np.append(self.seg_start[1:], self.edges)
        else:
            self.seg_start = np.empty(0, dtype=np.int64)
            self.seg_end = np.empty(0, dtype=np.int64)
        seg_len = self.seg_end - self.seg_start
        self.num_quanta = (
            int(((seg_len + self.quantum - 1) // self.quantum).max())
            if seg_len.size
            else 1
        )

        # Per-vertex anchors: the monolithic builder keys vertex-array and
        # output-array accesses to the time offset of the vertex's
        # first/last edge.
        if self.edges:
            fidx = np.minimum(first_edge, self.edges - 1)
            lidx = np.minimum(last_edge, self.edges - 1)
            self.q_first = self._quantum_of(fidx)
            self.q_last = self._quantum_of(lidx)
            first_off = self.q_first * (2.0 * self.edges)
            last_off = self.q_last * (2.0 * self.edges)
        else:
            self.q_first = self.q_last = np.zeros(ids.size, dtype=np.int64)
            first_off = last_off = np.zeros(ids.size)
        self.vkeys = first_edge - 0.7 + first_off
        if self.pull:
            self.okeys = last_edge + 0.3 + last_off
            self.oq = self.q_last
        else:
            self.okeys = first_edge - 0.6 + first_off
            self.oq = self.q_first
        self.emit_v = _transitions(self.vertex_region.block_of(ids))
        self.emit_o = _transitions(self.out_region.block_of(ids))

        # Push-mode write mask over the whole edge stream (identical RNG
        # draw to the monolithic path), sliced per batch.
        self.write_mask: np.ndarray | None = None
        if not self.pull and step.write_fraction < 1.0:
            rng = np.random.default_rng(self.edges)
            self.write_mask = rng.random(self.edges) < step.write_fraction

    def _quantum_of(self, k: np.ndarray) -> np.ndarray:
        """Interleave quantum of global edge indices ``k``."""
        seg = np.searchsorted(self.seg_start, k, side="right") - 1
        return (k - self.seg_start[seg]) // self.quantum

    def _positions_of(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edge-array positions and owner-vertex indices of edge indices."""
        owner = np.searchsorted(self.first_edge, k, side="right") - 1
        pos = self.csr_offsets[self.ids[owner]] + (k - self.first_edge[owner])
        return pos, owner

    def _stream_elided(self, region, pos: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Block-transition emit mask for a batch of one edge-level stream.

        Entry ``i`` is kept iff its block differs from its stream-order
        predecessor's — edge ``k[i] - 1`` — whether that predecessor sits
        in this batch or a previous one.
        """
        blocks = region.block_of(pos)
        emit = np.empty(k.size, dtype=bool)
        emit[1:] = blocks[1:] != blocks[:-1]
        # Where k jumps (batch head, segment boundary inside the batch)
        # the in-array predecessor is not the stream predecessor.
        jump = np.empty(k.size, dtype=bool)
        jump[0] = True
        jump[1:] = k[1:] != k[:-1] + 1
        jidx = np.flatnonzero(jump)
        kprev = k[jidx] - 1
        has_prev = kprev >= 0
        if has_prev.any():
            ppos, _ = self._positions_of(kprev[has_prev])
            emit[jidx[has_prev]] = blocks[jidx[has_prev]] != region.block_of(ppos)
        emit[jidx[~has_prev]] = True
        return emit

    def batch_trace(self, q0: int, q1: int, engine=None):
        """Build the sub-trace of quantum slices ``[q0, q1)``."""
        builder = TraceBuilder()
        parts_k = []
        parts_off = []
        for s0, e0 in zip(self.seg_start, self.seg_end):
            s = s0 + q0 * self.quantum
            e = min(s0 + q1 * self.quantum, e0)
            if s >= e:
                continue
            k = np.arange(s, e, dtype=np.int64)
            parts_k.append(k)
            parts_off.append(
                ((k - s0) // self.quantum).astype(np.float64) * (2.0 * self.edges)
            )
        if parts_k:
            k = np.concatenate(parts_k)
            ekeys = k.astype(np.float64) + np.concatenate(parts_off)
            pos, owner = self._positions_of(k)
            cores_k = self.cores_v[owner]
            emit = self._stream_elided(self.edge_region, pos, k)
            builder.add(
                self.edge_region, pos[emit], ekeys[emit] - 0.5, core=cores_k[emit]
            )
            if not self.pull and self.weight_region is not None:
                emit_w = self._stream_elided(self.weight_region, pos, k)
                builder.add(
                    self.weight_region,
                    pos[emit_w],
                    ekeys[emit_w] - 0.4,
                    core=cores_k[emit_w],
                )
            others = self.endpoints[pos].astype(np.int64)
            if self.pull:
                write: np.ndarray | bool = False
            elif self.write_mask is None:
                write = True
            else:
                write = self.write_mask[k]
            builder.add(self.prop_region, others, ekeys, write=write, core=cores_k)
        sel = (self.q_first >= q0) & (self.q_first < q1) & self.emit_v
        builder.add(
            self.vertex_region, self.ids[sel], self.vkeys[sel], core=self.cores_v[sel]
        )
        osel = (self.oq >= q0) & (self.oq < q1) & self.emit_o
        builder.add(
            self.out_region,
            self.ids[osel],
            self.okeys[osel],
            write=self.pull,
            core=self.cores_v[osel],
        )
        return builder.build(engine=engine)


def streaming_trace(
    app,
    graph,
    plan,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    engine: str | None = None,
) -> AppTrace:
    """Streaming equivalent of :meth:`GraphApp.trace`.

    Returns an :class:`AppTrace` whose ``trace`` is a
    :class:`StreamingTrace`: consuming its chunks yields the exact run
    sequence of the monolithic build while holding only ``chunk_edges``
    worth of trace in memory at a time.  ``engine`` selects the
    per-batch merge kernel, same contract as ``TraceBuilder.build``.
    """
    if chunk_edges <= 0:
        raise ValueError("chunk_edges must be positive")
    step = plan.traced
    sp = _StreamPlan(app, graph, step)
    segments = max(1, int(sp.seg_start.size))
    quanta_per_batch = max(1, chunk_edges // (sp.quantum * segments))

    def chunk_factory():
        for q0 in range(0, sp.num_quanta, quanta_per_batch):
            yield sp.batch_trace(q0, min(q0 + quanta_per_batch, sp.num_quanta), engine)

    active_count = graph.num_vertices if step.active is None else int(step.active.size)
    instructions = int(
        app.instructions_per_edge * sp.edges
        + app.instructions_per_vertex * active_count
    )
    trace = StreamingTrace(
        chunk_factory,
        detail={
            "chunk_edges": chunk_edges,
            "quanta_per_batch": quanta_per_batch,
            "num_quanta": sp.num_quanta,
        },
    )
    return AppTrace(
        app=app.name,
        trace=trace,
        instructions=instructions,
        superstep_multiplier=plan.multiplier,
        detail={
            "direction": step.direction,
            "edges": sp.edges,
            "active": active_count,
            "streaming": True,
        },
    )
