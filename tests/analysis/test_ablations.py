"""Small-scale structural tests for the ablation studies."""

import dataclasses

import pytest

from repro.analysis import ablations
from repro.pipeline import ArtifactStore
from repro.analysis.experiments import (
    ExperimentConfig,
    ExperimentRunner,
    geomean_speedup,
)
from repro.graph.generators import SKEWED_DATASETS
from repro.perfmodel import LatencyModel


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    config = ExperimentConfig(scale=0.2, num_roots=1)
    return ExperimentRunner(config, store=ArtifactStore(tmp_path_factory.mktemp("abl")))


class TestGroupSweep:
    def test_shape_and_labels(self, runner):
        result = ablations.dbg_group_sweep(runner, group_counts=(1, 6))
        assert result["headers"] == ["dataset", "1 groups", "6 groups"]
        assert result["rows"][-1][0] == "GMean"
        assert len(result["rows"]) == 9

    def test_more_groups_pack_better_on_unstructured(self, runner):
        result = ablations.dbg_group_sweep(runner, group_counts=(1, 6))
        by_dataset = {row[0]: row[1:] for row in result["rows"]}
        assert by_dataset["sd"][1] > by_dataset["sd"][0]


class TestGMeanRows:
    """GMean rows aggregate the unrounded speed-ups, as every figure does.

    At scale 0.12 the geomean of the cells rounded to 0.1 lands on a
    different tenth than the geomean of the exact speed-ups for both
    sweeps below, so taking the GMean over rounded cells shows up here.
    """

    @pytest.mark.parametrize(
        "sweep,labels",
        [
            (
                lambda r: ablations.dbg_group_sweep(r, group_counts=(1, 6)),
                ["DBG-g1", "DBG"],
            ),
            (
                lambda r: ablations.degree_kind_sweep(r, kinds=("out", "both")),
                ["DBG@out", "DBG@both"],
            ),
        ],
        ids=["dbg_group_sweep", "degree_kind_sweep"],
    )
    def test_gmean_of_unrounded_speedups(self, tmp_path, sweep, labels):
        config = ExperimentConfig(scale=0.12, num_roots=1)
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path))
        result = sweep(runner)
        expected = [
            round(
                geomean_speedup(
                    [runner.speedup("PR", d, label) for d in SKEWED_DATASETS]
                ),
                1,
            )
            for label in labels
        ]
        assert result["rows"][-1] == ["GMean", *expected]


class TestThresholdSweep:
    def test_labels(self, runner):
        result = ablations.dbg_threshold_sweep(runner, scales=(0.5, 1.0))
        assert result["headers"][1:] == ["x0.5", "x1.0"]


class TestCacheScaleSweep:
    def test_runs_with_distinct_hierarchies(self, runner):
        result = ablations.cache_scale_sweep(
            runner, factors=(1, 4), datasets=("sd",)
        )
        (row,) = result["rows"]
        assert row[0] == "sd"
        assert row[1] != row[2]

    def test_scaled_columns_keep_base_config(self, tmp_path):
        """Every column but the hierarchy follows the base config."""
        config = ExperimentConfig(
            scale=0.2, num_roots=1, latencies=LatencyModel(memory=600.0)
        )
        runner = ExperimentRunner(config, store=ArtifactStore(tmp_path))
        result = ablations.cache_scale_sweep(
            runner, factors=(1, 4), datasets=("sd",)
        )
        scaled = ExperimentRunner(
            dataclasses.replace(config, hierarchy=config.hierarchy.scaled(4)),
            store=runner.store,
        )
        (row,) = result["rows"]
        assert row[2] == round(scaled.speedup("PR", "sd", "DBG"), 1)


class TestExtendedTechniques:
    def test_includes_traversal_orderings(self, runner):
        result = ablations.extended_techniques(
            runner, techniques=("DBG", "RCM")
        )
        assert result["headers"][1:] == ["DBG", "RCM"]
        assert result["rows"][-1][0] == "GMean"


class TestExtensionApps:
    def test_covers_both_apps(self, runner):
        result = ablations.extension_apps(
            runner, apps=("CC",), techniques=("DBG",)
        )
        datasets = {row[1] for row in result["rows"] if row[0] == "CC"}
        assert len(datasets) == 8
