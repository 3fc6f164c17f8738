"""Unit tests for the pipeline stage profiler."""

import pytest

from repro.pipeline.profiler import (
    PROFILER,
    StageProfiler,
    StageStats,
    diff_snapshots,
)


class TestStageProfiler:
    def test_stage_context_accumulates(self):
        prof = StageProfiler()
        with prof.stage("trace"):
            pass
        with prof.stage("trace"):
            pass
        snap = prof.snapshot()
        assert snap["trace"].calls == 2
        assert snap["trace"].seconds >= 0.0

    def test_record_and_cache_hits(self):
        prof = StageProfiler()
        prof.record("simulate", 1.5)
        prof.count_cache_hit("simulate")
        snap = prof.snapshot()
        assert snap["simulate"].calls == 1
        assert snap["simulate"].cache_hits == 1
        assert snap["simulate"].seconds == pytest.approx(1.5)

    def test_stage_records_on_exception(self):
        prof = StageProfiler()
        with pytest.raises(RuntimeError):
            with prof.stage("mapping"):
                raise RuntimeError("boom")
        assert prof.snapshot()["mapping"].calls == 1

    def test_merge_folds_delta(self):
        prof = StageProfiler()
        prof.record("trace", 1.0)
        prof.merge({"trace": StageStats(2, 3.0, 1), "model": StageStats(1, 0.5)})
        snap = prof.snapshot()
        assert snap["trace"].calls == 3
        assert snap["trace"].seconds == pytest.approx(4.0)
        assert snap["trace"].cache_hits == 1
        assert snap["model"].calls == 1

    def test_reset(self):
        prof = StageProfiler()
        prof.record("trace", 1.0)
        prof.reset()
        assert prof.snapshot() == {}

    def test_diff_snapshots(self):
        before = {"trace": StageStats(1, 1.0)}
        after = {"trace": StageStats(3, 2.5, 1), "model": StageStats(1, 0.1)}
        delta = diff_snapshots(after, before)
        assert delta["trace"].calls == 2
        assert delta["trace"].seconds == pytest.approx(1.5)
        assert delta["trace"].cache_hits == 1
        assert delta["model"].calls == 1
        assert diff_snapshots(after, after) == {}

    def test_format_orders_known_stages_first(self):
        prof = StageProfiler()
        prof.record("model", 1.0)
        prof.record("generate", 2.0)
        prof.record("custom", 0.5)
        text = prof.format_snapshot()
        lines = text.splitlines()
        assert lines[0].lstrip().startswith("generate")
        assert lines[-1].lstrip().startswith("custom")
        assert "%" in text

    def test_format_empty(self):
        assert "no stages" in StageProfiler().format_snapshot()

    def test_global_profiler_exists(self):
        assert isinstance(PROFILER, StageProfiler)
