"""Run-level observability for the experiment pipeline.

Three cooperating pieces, each with one process-global instance:

* :mod:`repro.observability.tracing` — :class:`Tracer`/:class:`Span`:
  nested spans with wall/CPU durations and tags, plus zero-duration
  point events, buffered per process and merged across grid workers.
  :func:`fold_stage_event` is the one fold from ``kind="stage"`` spans
  and ``kind="cache_hit"`` events to per-stage
  ``{calls, seconds, cpu_seconds, cache_hits}``; the tracer keeps a
  live total with it (the stage profiler's only clock), the run
  manifest and :func:`stage_totals` rebuild the same totals from the
  event log;
* :mod:`repro.observability.metrics` — :class:`MetricsRegistry`:
  counters / gauges / histograms with the snapshot / diff / merge
  lifecycle, absorbing the store and engine counters behind one API;
* :mod:`repro.observability.run` — :class:`RunContext`: the per-run
  directory ``runs/<run_id>/`` with the append-only ``events.jsonl``
  and the atomically published ``manifest.json``.

``repro-status`` (:mod:`repro.tools.status_tool`) inspects and compares
the run directories this package writes.
"""

from repro.observability.metrics import (
    METRICS,
    MetricsRegistry,
    absorb_engine_counters,
    absorb_store_stats,
    diff_metrics,
)
from repro.observability.run import (
    MANIFEST_SCHEMA,
    RECOMPUTE_STAGES,
    RunContext,
    current_run,
    default_runs_dir,
    format_stage_table,
    iter_events,
    list_runs,
    load_manifest,
    manifest_recompute_spans,
    new_run_id,
    recompute_spans,
    stage_totals,
    start_run,
)
from repro.observability.tracing import TRACER, Span, Tracer, fold_stage_event

__all__ = [
    "MANIFEST_SCHEMA",
    "METRICS",
    "RECOMPUTE_STAGES",
    "MetricsRegistry",
    "RunContext",
    "Span",
    "TRACER",
    "Tracer",
    "absorb_engine_counters",
    "absorb_store_stats",
    "current_run",
    "default_runs_dir",
    "diff_metrics",
    "fold_stage_event",
    "format_stage_table",
    "iter_events",
    "list_runs",
    "load_manifest",
    "manifest_recompute_spans",
    "new_run_id",
    "recompute_spans",
    "stage_totals",
    "start_run",
]
