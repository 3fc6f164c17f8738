"""Per-cell pipeline stage profiler for the experiment engine.

Producing one grid cell walks a fixed pipeline — generate the dataset,
compute the mapping, relabel the CSR, build the super-step trace, simulate
it, convert counters to cycles.  Which stage dominates decides what is
worth optimizing next, so :class:`ExperimentRunner` times every stage it
executes against the process-global :data:`PROFILER`.

The profiler keeps no state of its own.  :meth:`StageProfiler.stage`
opens a ``kind="stage"`` span on the process-global
:data:`repro.observability.TRACER` and :meth:`StageProfiler.count_cache_hit`
emits the matching ``kind="cache_hit"`` point event; the tracer folds
both into live per-stage totals (:func:`repro.observability.fold_stage_event`),
and :meth:`StageProfiler.snapshot` reads those totals back.  The same
fold builds the run manifest's ``timings`` block from ``events.jsonl``,
so the breakdown and the event log can never disagree about where the
time went.

Grid workers ship their drained events with each job result and the
parent merges them into its tracer, so one breakdown covers every stage
no matter how the cells were distributed.  Cache hits count as (cheap)
calls of the stage they short-circuit — a warm cache shows up as
near-zero stage time, not as missing data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.run import format_stage_table
from repro.observability.tracing import TRACER

__all__ = [
    "StageStats",
    "StageProfiler",
    "PROFILER",
    "diff_snapshots",
]


@dataclass
class StageStats:
    """Accumulated wall time and call count for one stage."""

    calls: int = 0
    seconds: float = 0.0
    #: Calls served from the disk cache instead of computed.
    cache_hits: int = 0
    #: Thread CPU time of the stage's spans.
    cpu_seconds: float = 0.0


class StageProfiler:
    """Stage-timing view over the tracer's live per-stage totals."""

    def stage(self, name: str, **tags):
        """Time a ``with`` block as one ``kind="stage"`` span named ``name``."""
        return TRACER.span(name, kind="stage", **tags)

    def count_cache_hit(self, name: str, **tags) -> None:
        """Mark one call of ``name`` as served from cache (no extra time)."""
        TRACER.event(name, kind="cache_hit", **tags)

    def snapshot(self) -> dict[str, StageStats]:
        """Per-stage counters accumulated since the last :meth:`reset`."""
        return {
            name: StageStats(**entry) for name, entry in TRACER.stage_totals().items()
        }

    def reset(self) -> None:
        TRACER.reset_stage_totals()

    def format_snapshot(self) -> str:
        """Human-readable breakdown (the table ``repro-status`` prints)."""
        return format_stage_table(TRACER.stage_totals())


def diff_snapshots(
    after: dict[str, StageStats], before: dict[str, StageStats]
) -> dict[str, StageStats]:
    """Per-stage difference ``after - before``."""
    delta: dict[str, StageStats] = {}
    for name, s in after.items():
        b = before.get(name, StageStats())
        calls = s.calls - b.calls
        seconds = s.seconds - b.seconds
        hits = s.cache_hits - b.cache_hits
        if calls or hits or seconds > 0:
            delta[name] = StageStats(calls, seconds, hits, s.cpu_seconds - b.cpu_seconds)
    return delta


#: Process-global profiler the experiment engine records into.
PROFILER = StageProfiler()
