"""Fast-path graph-structure engines: compiled kernels + dispatch.

PR 1 compiled the cache simulator and PR 2 the trace constructors, which
left ``Graph.relabel`` — two O(E log E) stable ``argsort`` passes per
technique per dataset — as the dominant stage of a cold grid cell.  This
module completes the compiled-engine trilogy on the graph layer via
``_fastgraph.c`` (built through the shared machinery in
:mod:`repro._compile`):

* :func:`relabel_arrays` — permutation relabel: scatter each old
  vertex's edge block straight into the slot range its new id owns
  (offsets prefix-summed from permuted degree counts), fusing the
  reference's ``edge_array`` expansion, mapping gather and both stable
  sorts into one O(E) pass;
* :func:`build_csr_arrays` — dual-CSR build from parallel edge arrays:
  a stable counting-sort placement replacing both stable ``argsort``
  calls in :func:`repro.graph.csr._build_dual_csr`.

Both kernels are bit-identical to their numpy references (the
equivalence suites enforce it) and preserve the canonical-representation
guarantee: the in-CSR is derived from the out-CSR edge order exactly as
the reference's stable by-target sort does.  Dispatch follows the
simulator/trace contract: ``auto`` (kernel when a C compiler is
available, else reference), ``fast`` (kernel or error) or ``reference``,
selectable per call and campaign-wide via ``REPRO_GRAPH_ENGINE``.

This module deliberately traffics in raw CSR arrays, not
:class:`~repro.graph.csr.Graph` instances, so :mod:`repro.graph.csr`
can dispatch to it without a circular import.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._compile import KernelUnavailable, LazyKernel

__all__ = [
    "KernelUnavailable",
    "resolve_graph_engine",
    "fast_available",
    "kernel_unavailable_reason",
    "use_fast",
    "relabel_arrays",
    "build_csr_arrays",
]

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)


def _configure(lib: ctypes.CDLL) -> None:
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    lib.repro_relabel.argtypes = [
        _I64, _I32, _F64, _I32, i64, _I64, _I32, _F64, _I64, _I32, _F64,
    ]
    lib.repro_relabel.restype = i32
    lib.repro_build_csr.argtypes = [
        _I64, _I64, _F64, i64, i64, _I64, _I32, _F64, _I64, _I32, _F64,
    ]
    lib.repro_build_csr.restype = i32


_KERNEL = LazyKernel(Path(__file__).with_name("_fastgraph.c"), "fastgraph", _configure)


def resolve_graph_engine(engine: str | None = None) -> str:
    """Pick the engine: explicit arg > ``REPRO_GRAPH_ENGINE`` > auto.

    Delegates to the unified registry (:func:`repro.engines.resolve`,
    domain ``"graph"``); unknown values raise, never fall back silently.
    """
    from repro import engines

    return engines.resolve("graph", engine)


def fast_available() -> bool:
    """Whether the compiled graph kernels can be used in this environment."""
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
    choice = resolve_graph_engine(engine)
    if choice == "reference":
        return False
    if choice == "fast":
        _KERNEL.load()  # raise with the real reason when unavailable
        return True
    return fast_available()


def _null(ptr_type):
    return ctypes.cast(None, ptr_type)


def relabel_arrays(
    out_offsets: np.ndarray,
    out_targets: np.ndarray,
    out_weights: np.ndarray | None,
    mapping: np.ndarray,
) -> tuple:
    """Relabelled dual-CSR arrays under a (pre-validated) permutation.

    Returns ``(out_offsets, out_targets, in_offsets, in_sources,
    out_weights, in_weights)`` byte-identical to what the numpy
    reference in :meth:`Graph.relabel` produces.  ``mapping`` must be a
    validated permutation — the kernel scatters through it unchecked.
    Raises :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = int(out_offsets.size - 1)
    num_edges = int(out_targets.size)
    out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
    out_targets = np.ascontiguousarray(out_targets, dtype=np.int32)
    mapping = np.ascontiguousarray(mapping, dtype=np.int32)
    new_out_offsets = np.empty(n + 1, dtype=np.int64)
    new_out_targets = np.empty(num_edges, dtype=np.int32)
    new_in_offsets = np.empty(n + 1, dtype=np.int64)
    new_in_sources = np.empty(num_edges, dtype=np.int32)
    if out_weights is not None:
        out_weights = np.ascontiguousarray(out_weights, dtype=np.float64)
        new_out_weights = np.empty(num_edges, dtype=np.float64)
        new_in_weights = np.empty(num_edges, dtype=np.float64)
        w_in = out_weights.ctypes.data_as(_F64)
        w_out = new_out_weights.ctypes.data_as(_F64)
        w_in_csr = new_in_weights.ctypes.data_as(_F64)
    else:
        new_out_weights = new_in_weights = None
        w_in = w_out = w_in_csr = _null(_F64)
    rc = lib.repro_relabel(
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        w_in,
        mapping.ctypes.data_as(_I32),
        n,
        new_out_offsets.ctypes.data_as(_I64),
        new_out_targets.ctypes.data_as(_I32),
        w_out,
        new_in_offsets.ctypes.data_as(_I64),
        new_in_sources.ctypes.data_as(_I32),
        w_in_csr,
    )
    if rc != 0:
        raise MemoryError("relabel kernel ran out of memory")
    return (
        new_out_offsets,
        new_out_targets,
        new_in_offsets,
        new_in_sources,
        new_out_weights,
        new_in_weights,
    )


def build_csr_arrays(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
) -> tuple:
    """Dual-CSR arrays built from parallel edge-endpoint arrays.

    Returns ``(out_offsets, out_targets, in_offsets, in_sources,
    out_weights, in_weights)`` byte-identical to the stable numpy path
    of :func:`repro.graph.csr._build_dual_csr`.  Endpoints are
    range-checked here (the kernel scatters through them), matching the
    reference's failure mode with a clearer message.  Raises
    :class:`KernelUnavailable` when the kernel cannot be built.
    """
    lib = _KERNEL.load()
    n = int(num_vertices)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    num_edges = int(src.size)
    if num_edges:
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
            raise ValueError("edge endpoint out of range")
    out_offsets = np.empty(n + 1, dtype=np.int64)
    out_targets = np.empty(num_edges, dtype=np.int32)
    in_offsets = np.empty(n + 1, dtype=np.int64)
    in_sources = np.empty(num_edges, dtype=np.int32)
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        out_weights = np.empty(num_edges, dtype=np.float64)
        in_weights = np.empty(num_edges, dtype=np.float64)
        w_in = weights.ctypes.data_as(_F64)
        w_out = out_weights.ctypes.data_as(_F64)
        w_in_csr = in_weights.ctypes.data_as(_F64)
    else:
        out_weights = in_weights = None
        w_in = w_out = w_in_csr = _null(_F64)
    rc = lib.repro_build_csr(
        src.ctypes.data_as(_I64),
        dst.ctypes.data_as(_I64),
        w_in,
        num_edges,
        n,
        out_offsets.ctypes.data_as(_I64),
        out_targets.ctypes.data_as(_I32),
        w_out,
        in_offsets.ctypes.data_as(_I64),
        in_sources.ctypes.data_as(_I32),
        w_in_csr,
    )
    if rc != 0:
        raise MemoryError("CSR-build kernel ran out of memory")
    return out_offsets, out_targets, in_offsets, in_sources, out_weights, in_weights
