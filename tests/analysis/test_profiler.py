"""Unit tests for the pipeline stage profiler.

The profiler keeps no state: it reads the process tracer's live
per-stage totals, which fold every stage span and cache-hit event as it
is emitted or merged.
"""

import pytest

from repro.observability import tracing
from repro.observability.tracing import TRACER, Tracer
from repro.pipeline.profiler import (
    PROFILER,
    StageProfiler,
    StageStats,
    diff_snapshots,
)


@pytest.fixture(autouse=True)
def fresh_totals():
    PROFILER.reset()
    yield
    PROFILER.reset()


class TestStageProfiler:
    def test_stage_context_accumulates(self):
        with PROFILER.stage("trace"):
            pass
        with PROFILER.stage("trace"):
            pass
        snap = PROFILER.snapshot()
        assert snap["trace"].calls == 2
        assert snap["trace"].seconds >= 0.0
        assert snap["trace"].cpu_seconds >= 0.0

    def test_cache_hits_count_without_calls(self):
        PROFILER.count_cache_hit("simulate")
        snap = PROFILER.snapshot()
        assert snap["simulate"].calls == 0
        assert snap["simulate"].cache_hits == 1
        assert snap["simulate"].seconds == 0.0

    def test_stage_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with PROFILER.stage("mapping"):
                raise RuntimeError("boom")
        assert PROFILER.snapshot()["mapping"].calls == 1

    def test_merged_worker_events_fold_into_snapshot(self):
        worker = Tracer()
        with worker.span("simulate", kind="stage"):
            pass
        worker.event("simulate", kind="cache_hit")
        TRACER.merge(worker.drain())
        snap = PROFILER.snapshot()
        assert snap["simulate"].calls == 1
        assert snap["simulate"].cache_hits == 1

    def test_snapshot_counts_every_call_past_buffer_cap(self, monkeypatch):
        """The breakdown is folded live, never read off the bounded buffer."""
        monkeypatch.setattr(tracing, "MAX_BUFFERED_EVENTS", 5)
        TRACER.reset()
        for _ in range(20):
            with PROFILER.stage("trace"):
                pass
        assert TRACER.dropped > 0
        assert len(TRACER.snapshot()) == 5
        assert PROFILER.snapshot()["trace"].calls == 20

    def test_reset(self):
        with PROFILER.stage("trace"):
            pass
        PROFILER.reset()
        assert PROFILER.snapshot() == {}

    def test_diff_snapshots(self):
        before = {"trace": StageStats(1, 1.0)}
        after = {
            "trace": StageStats(3, 2.5, 1, cpu_seconds=2.0),
            "model": StageStats(1, 0.1),
        }
        delta = diff_snapshots(after, before)
        assert delta["trace"].calls == 2
        assert delta["trace"].seconds == pytest.approx(1.5)
        assert delta["trace"].cache_hits == 1
        assert delta["trace"].cpu_seconds == pytest.approx(2.0)
        assert delta["model"].calls == 1
        assert diff_snapshots(after, after) == {}

    def test_format_orders_known_stages_first(self):
        for name in ("model", "generate", "custom"):
            with PROFILER.stage(name):
                pass
        text = PROFILER.format_snapshot()
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("generate")
        assert lines[-1].lstrip().startswith("custom")
        assert "%" in text

    def test_format_empty(self):
        assert "no stage spans" in PROFILER.format_snapshot()

    def test_global_profiler_exists(self):
        assert isinstance(PROFILER, StageProfiler)
