"""Fast-path trace-construction engines: compiled kernels + dispatch.

PR 1 made the cache simulator compiled-fast, which moved every grid
cell's hot path upstream into pure-numpy trace construction: ragged CSR
gathers, the global float64 ``argsort`` over all keyed streams in
:meth:`~repro.framework.trace.TraceBuilder.build`, run-length
compression, and the per-vertex Python heap loop in Gorder.  This module
extends the same compiled-engine pattern (shared build machinery in
:mod:`repro._compile`) to those kernels via ``_fasttrace.c``:

* :func:`ragged_gather` — CSR range expansion behind
  :meth:`repro.apps.base.GraphApp._gather` and ``edge_map``'s
  ``gather_out``/``gather_in``;
* :func:`trace_build_fast` — stable keyed multi-stream merge (an LSD
  radix sort over an order-preserving bit transform of the float64 keys)
  fused with run-length compression;
* :func:`gorder_place_fast` — the Gorder greedy placement loop.

Every kernel is bit-identical to its numpy/Python reference (the
equivalence suites enforce it) for all finite keys; dispatch follows the
cache simulator's contract: ``auto`` (kernel when a C compiler is
available, else reference), ``fast`` (kernel or error) or ``reference``,
selectable per call and campaign-wide via ``REPRO_TRACE_ENGINE``.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._compile import KernelUnavailable, LazyKernel
from repro.cachesim.stats import CounterRegistry

__all__ = [
    "KernelUnavailable",
    "BUILD_STATS",
    "resolve_trace_engine",
    "fast_available",
    "kernel_unavailable_reason",
    "ragged_gather",
    "trace_build_fast",
    "gorder_place_fast",
]

#: Throughput counters for ``TraceBuilder.build`` calls, per engine
#: (``runs`` = compressed output runs, ``accesses`` = input stream
#: entries).  ``repro-simbench`` and the microbench print them.
BUILD_STATS = CounterRegistry("tracebuild")

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _configure(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    lib.repro_gather.argtypes = [_I64, _I32, _I64, i64, _I64, _I64, _I64]
    lib.repro_gather.restype = None
    lib.repro_trace_build.argtypes = [_I64, _F64, _U8, _I64, i64, _I64, _I64, _U8, _I64]
    lib.repro_trace_build.restype = i64
    lib.repro_gorder.argtypes = [
        _I64,
        _I32,
        _I64,
        _I32,
        i64,
        i64,
        ctypes.c_double,
        i64,
        _I64,
    ]
    lib.repro_gorder.restype = ctypes.c_int32


_KERNEL = LazyKernel(Path(__file__).with_name("_fasttrace.c"), "fasttrace", _configure)


def resolve_trace_engine(engine: str | None = None) -> str:
    """Pick the engine: explicit arg > ``REPRO_TRACE_ENGINE`` > auto.

    Delegates to the unified registry (:func:`repro.engines.resolve`,
    domain ``"trace"``); unknown values raise, never fall back silently.
    """
    from repro import engines

    return engines.resolve("trace", engine)


def fast_available() -> bool:
    """Whether the compiled trace kernels can be used in this environment."""
    return _KERNEL.available()


def kernel_unavailable_reason() -> str | None:
    """Why ``fast_available()`` is False (``None`` when it is True)."""
    return _KERNEL.unavailable_reason()


def _reset_kernel_cache() -> None:
    """Forget the cached load result (test hook)."""
    _KERNEL.reset()


def use_fast(engine: str | None = None) -> bool:
    """Resolve dispatch: True to run the kernel, False for the reference.

    Raises :class:`KernelUnavailable` when ``fast`` is requested
    explicitly but the kernel cannot be built.
    """
    choice = resolve_trace_engine(engine)
    if choice == "reference":
        return False
    if choice == "fast":
        _KERNEL.load()  # raise with the real reason when unavailable
        return True
    return fast_available()


# ---------------------------------------------------------------- gather


def _ragged_gather_reference(offsets, endpoints, ids):
    starts = offsets[ids]
    lengths = (offsets[ids + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return lengths, empty, empty, empty
    seg_starts = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - seg_starts, lengths) + np.arange(total)
    others = endpoints[positions].astype(np.int64)
    repeats = np.repeat(ids, lengths)
    return lengths, positions, others, repeats


def _ragged_gather_fast(offsets, endpoints, ids):
    lib = _KERNEL.load()
    lengths = (offsets[ids + 1] - offsets[ids]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return lengths, empty, empty, empty
    positions = np.empty(total, dtype=np.int64)
    others = np.empty(total, dtype=np.int64)
    repeats = np.empty(total, dtype=np.int64)
    lib.repro_gather(
        offsets.ctypes.data_as(_I64),
        endpoints.ctypes.data_as(_I32),
        ids.ctypes.data_as(_I64),
        ids.size,
        positions.ctypes.data_as(_I64),
        others.ctypes.data_as(_I64),
        repeats.ctypes.data_as(_I64),
    )
    return lengths, positions, others, repeats


def ragged_gather(
    offsets: np.ndarray,
    endpoints: np.ndarray,
    ids: np.ndarray,
    engine: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Expand the CSR ranges of ``ids``, in order.

    Returns ``(lengths, positions, others, repeats)``: per-id range
    lengths, each edge's index into the edge array, its endpoint, and the
    id it belongs to (``np.repeat(ids, lengths)``).  Engines are
    element-for-element identical.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    endpoints = np.ascontiguousarray(endpoints, dtype=np.int32)
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    try:
        if use_fast(engine):
            return _ragged_gather_fast(offsets, endpoints, ids)
    except KernelUnavailable:
        if resolve_trace_engine(engine) == "fast":
            raise
    return _ragged_gather_reference(offsets, endpoints, ids)


# ----------------------------------------------------------- trace build


def trace_build_fast(blocks, keys, writes, cores):
    """Merge + run-length-compress concatenated keyed streams (kernel).

    Inputs are the concatenated per-stream arrays; keys must be finite.
    Returns ``(blocks, counts, writes, cores)`` exactly as the numpy
    reference in :meth:`TraceBuilder.build` produces them.  Raises
    :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = int(blocks.size)
    blocks = np.ascontiguousarray(blocks, dtype=np.int64)
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if writes.dtype == np.bool_ and writes.flags.c_contiguous:
        writes_u8 = writes.view(np.uint8)
    else:
        writes_u8 = np.ascontiguousarray(writes, dtype=np.uint8)
    cores = np.ascontiguousarray(cores, dtype=np.int64)
    out_blocks = np.empty(n, dtype=np.int64)
    out_counts = np.empty(n, dtype=np.int64)
    out_writes = np.empty(n, dtype=np.uint8)
    out_cores = np.empty(n, dtype=np.int64)
    runs = lib.repro_trace_build(
        blocks.ctypes.data_as(_I64),
        keys.ctypes.data_as(_F64),
        writes_u8.ctypes.data_as(_U8),
        cores.ctypes.data_as(_I64),
        n,
        out_blocks.ctypes.data_as(_I64),
        out_counts.ctypes.data_as(_I64),
        out_writes.ctypes.data_as(_U8),
        out_cores.ctypes.data_as(_I64),
    )
    if runs < 0:
        raise MemoryError("trace-build kernel ran out of memory")
    if 2 * runs >= n:
        # Light compression: slicing views keeps at most ~2x the payload
        # resident and skips a full output copy.
        return (
            out_blocks[:runs],
            out_counts[:runs],
            out_writes[:runs].view(np.bool_),
            out_cores[:runs],
        )
    return (
        out_blocks[:runs].copy(),
        out_counts[:runs].copy(),
        out_writes[:runs].copy().view(np.bool_),
        out_cores[:runs].copy(),
    )


# ----------------------------------------------------------------- gorder


def gorder_place_fast(graph, window: int, hub_cap: float, start: int) -> np.ndarray:
    """Gorder placement order via the compiled kernel.

    Returns the placement order (old vertex ids in placement sequence),
    identical to the Python heap loop in
    :meth:`repro.reorder.gorder.Gorder.compute_mapping`.  Raises
    :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = graph.num_vertices
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return order
    out_offsets = np.ascontiguousarray(graph.out_offsets, dtype=np.int64)
    out_targets = np.ascontiguousarray(graph.out_targets, dtype=np.int32)
    in_offsets = np.ascontiguousarray(graph.in_offsets, dtype=np.int64)
    in_sources = np.ascontiguousarray(graph.in_sources, dtype=np.int32)
    rc = lib.repro_gorder(
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        in_offsets.ctypes.data_as(_I64),
        in_sources.ctypes.data_as(_I32),
        n,
        int(window),
        float(hub_cap),
        int(start),
        order.ctypes.data_as(_I64),
    )
    if rc != 0:
        raise MemoryError("gorder kernel ran out of memory")
    return order
