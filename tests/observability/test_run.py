"""Run lifecycle tests: event log, manifest provenance, partial runs."""

from __future__ import annotations

import json

import pytest

from repro import observability
from repro.observability import (
    MANIFEST_SCHEMA,
    TRACER,
    current_run,
    iter_events,
    list_runs,
    load_manifest,
    stage_totals,
    start_run,
)
from repro.pipeline.cells import ExperimentConfig


@pytest.fixture
def runs(tmp_path):
    return tmp_path / "runs"


class TestLifecycle:
    def test_start_makes_run_current_and_finish_clears(self, runs):
        run = start_run(runs, run_id="r1")
        try:
            assert current_run() is run
        finally:
            run.finish()
        assert current_run() is None
        assert (runs / "r1" / "events.jsonl").exists()
        assert (runs / "r1" / "manifest.json").exists()

    def test_spans_stream_into_event_log(self, runs):
        with start_run(runs, run_id="r2") as run:
            with TRACER.span("mapping", kind="stage", dataset="lj"):
                pass
            TRACER.event("cell", kind="cache_hit")
        names = [e["name"] for e in iter_events(run.run_dir)]
        assert "mapping" in names
        assert "cell" in names

    def test_events_stop_after_finish(self, runs):
        with start_run(runs, run_id="r3") as run:
            pass
        TRACER.event("late", kind="cache_hit")
        assert all(e["name"] != "late" for e in iter_events(run.run_dir))

    def test_exception_in_context_records_failure(self, runs):
        with pytest.raises(RuntimeError):
            with start_run(runs, run_id="r4") as run:
                raise RuntimeError("boom")
        manifest = load_manifest(run.run_dir)
        assert manifest["status"] == "failed"
        assert manifest["failures"][0]["phase"] == "run"
        assert "boom" in manifest["failures"][0]["detail"]

    def test_double_finish_is_harmless(self, runs):
        run = start_run(runs, run_id="r5")
        run.finish()
        run.finish()
        assert load_manifest(run.run_dir)["status"] == "ok"


class TestManifest:
    def test_core_fields(self, runs):
        with start_run(runs, run_id="r6") as run:
            run.set_config(ExperimentConfig(scale=0.5, num_roots=1))
            run.add_grid(["PR"], ["wl"], ["DBG", "Sort"], workers=2)
        manifest = load_manifest(run.run_dir)
        assert manifest["manifest_schema"] == MANIFEST_SCHEMA
        assert manifest["run_id"] == "r6"
        assert manifest["status"] == "ok"
        assert len(manifest["config"]["hash"]) == 32
        assert manifest["config"]["scale"] == 0.5
        assert manifest["grids"][0]["cells"] == 2
        assert manifest["grids"][0]["workers"] == 2
        # Dataset provenance: the generator seed is recorded.
        assert "wl" in manifest["datasets"]
        assert "sim" in manifest["engines"]
        assert manifest["events_file"] == "events.jsonl"

    def test_wall_time_matches_created_and_finished(self, runs):
        with start_run(runs, run_id="clock"):
            pass
        manifest = load_manifest(runs / "clock")
        assert manifest["finished"] - manifest["created"] == manifest["wall_s"]

    def test_same_config_hashes_identically(self, runs):
        hashes = []
        for rid in ("ha", "hb"):
            with start_run(runs, run_id=rid) as run:
                run.set_config(ExperimentConfig(scale=0.5, num_roots=1))
            hashes.append(load_manifest(run.run_dir)["config"]["hash"])
        assert hashes[0] == hashes[1]

    def test_timings_derived_from_event_stream(self, runs):
        with start_run(runs, run_id="r7") as run:
            with TRACER.span("trace", kind="stage"):
                pass
            with TRACER.span("trace", kind="stage"):
                pass
            TRACER.event("trace", kind="cache_hit")
        manifest = load_manifest(run.run_dir)
        entry = manifest["timings"]["stages"]["trace"]
        assert entry["calls"] == 2
        assert entry["cache_hits"] == 1
        # The reconciliation primitive: recomputing from the raw events
        # must reproduce the manifest block exactly.
        assert stage_totals(run.run_dir) == manifest["timings"]["stages"]
        assert manifest["timings"]["staged_seconds"] == pytest.approx(
            entry["seconds"]
        )

    def test_worker_batches_fold_into_timings(self, runs):
        """Events shipped from a worker tracer count like local ones."""
        from repro.observability.tracing import Tracer

        worker = Tracer()
        with worker.span("simulate", kind="stage"):
            pass
        with start_run(runs, run_id="r8") as run:
            run.write_events(worker.drain())
        manifest = load_manifest(run.run_dir)
        assert manifest["timings"]["stages"]["simulate"]["calls"] == 1


class TestPartialRuns:
    def test_load_manifest_none_when_missing_or_garbage(self, tmp_path):
        assert load_manifest(tmp_path / "nope") is None
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        assert load_manifest(bad) is None

    def test_iter_events_skips_truncated_tail(self, runs):
        with start_run(runs, run_id="r9") as run:
            TRACER.event("ok", kind="cache_hit")
        with open(run.run_dir / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "trunc')  # killed mid-write
        events = list(iter_events(run.run_dir))
        assert [e["name"] for e in events] == ["ok"]

    def test_iter_events_missing_file_yields_nothing(self, tmp_path):
        empty = tmp_path / "empty-run"
        empty.mkdir()
        assert list(iter_events(empty)) == []
        assert stage_totals(empty) == {}

    def test_list_runs_newest_first(self, runs):
        for rid in ("20260101T000000-1-0", "20260102T000000-1-0"):
            start_run(runs, run_id=rid).finish()
        names = [p.name for p in list_runs(runs)]
        assert names == ["20260102T000000-1-0", "20260101T000000-1-0"]
        assert list_runs(runs / "missing") == []

    def test_fresh_run_truncates_reused_id(self, runs):
        with start_run(runs, run_id="reused"):
            TRACER.event("first", kind="cache_hit")
        with start_run(runs, run_id="reused") as run:
            TRACER.event("second", kind="cache_hit")
        names = [e["name"] for e in iter_events(run.run_dir)]
        assert names == ["second"]


class TestCLIIntegration:
    def test_cli_records_observed_run(self, runs, monkeypatch, capsys):
        from repro.analysis.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(runs.parent / "store"))
        monkeypatch.setenv(observability.run.RUNS_DIR_ENV, str(runs))
        assert main(["table2", "--scale", "0.15"]) == 0
        (run_dir,) = list_runs(runs)
        manifest = load_manifest(run_dir)
        assert manifest["status"] == "ok"
        # table2 is graph characterization: only the generate stage runs.
        stages = manifest["timings"]["stages"]
        assert stages["generate"]["calls"] > 0
        spans = [
            e
            for e in iter_events(run_dir)
            if e.get("tags", {}).get("kind") == "experiment"
        ]
        assert [s["tags"]["experiment"] for s in spans] == ["table2"]
        assert f"run manifest: {run_dir / 'manifest.json'}" in capsys.readouterr().out
