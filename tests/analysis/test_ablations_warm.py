"""Warm-rerun guarantees for the ablation sweeps and speed-up figures.

These sweeps once built private ``ExperimentRunner``s per call, so every
invocation recomputed everything from scratch.  They now route through
the shared store-backed ``run_grid``; this suite pins the payoff — a
second observed invocation replays entirely from the store, which
``repro-status diff`` reports as zero recompute spans.
"""

from __future__ import annotations

import pytest

from repro import observability
from repro.analysis import ablations, figures
from repro.analysis.experiments import ExperimentConfig, ExperimentRunner
from repro.pipeline import ArtifactStore
from repro.tools.status_tool import main as status_main

SCALE = 0.12


def observed(runs_root, run_id, fn):
    """Run ``fn`` under an observed run; return its recompute-span count."""
    context = observability.start_run(runs_root, run_id=run_id)
    try:
        fn()
    finally:
        path = context.finish()
    return observability.manifest_recompute_spans(path.parent)


def make_runner(tmp_path):
    config = ExperimentConfig(scale=SCALE, num_roots=1)
    return ExperimentRunner(config, store=ArtifactStore(tmp_path / "store"))


@pytest.mark.parametrize(
    "name,sweep",
    [
        (
            "dbg_group_sweep",
            lambda runner: ablations.dbg_group_sweep(runner, group_counts=(2, 6)),
        ),
        (
            "replacement_policy_sweep",
            lambda runner: ablations.replacement_policy_sweep(
                runner, policies=("lru", "lip"), datasets=("sd",)
            ),
        ),
        ("fig3", figures.fig3),
        (
            "extension_apps",
            lambda runner: ablations.extension_apps(
                runner, apps=("CC",), techniques=("DBG",)
            ),
        ),
    ],
)
def test_second_invocation_replays_from_store(tmp_path, capsys, name, sweep):
    runner = make_runner(tmp_path)
    runs = tmp_path / "runs"
    cold = observed(runs, "cold", lambda: sweep(runner))
    warm = observed(runs, "warm", lambda: sweep(runner))
    assert cold > 0, f"{name}: cold run recorded no pipeline work"
    assert warm == 0, f"{name}: warm rerun recomputed {warm} stage spans"

    # The user-facing check: repro-status diff counts the same spans.
    assert status_main(["--runs-dir", str(runs), "diff", "cold", "warm"]) == 0
    out = capsys.readouterr().out
    assert f"recompute spans: {cold} -> 0" in out
    assert "replayed entirely from the store" in out


def test_sweeps_share_cells_between_each_other(tmp_path):
    """Both sweeps include the (PR, sd, Original/DBG) cells — running one
    after the other must not recompute the shared work."""
    runner = make_runner(tmp_path)
    runs = tmp_path / "runs"
    observed(runs, "groups", lambda: ablations.dbg_group_sweep(
        runner, group_counts=(2, 6)))
    spans = observed(runs, "policies", lambda: ablations.replacement_policy_sweep(
        runner, policies=("lru",), datasets=("sd",)))
    assert spans == 0, "policy sweep recomputed cells the group sweep cached"
