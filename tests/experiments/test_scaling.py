"""Tests for the scaling and seed-robustness studies."""

import pytest

from repro.experiments.scaling import run_scaling, run_seed_study


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling(
            apps=("moldyn",), node_counts=(4, 16), depth=1, quick=True
        )

    def test_one_point_per_size(self, result):
        assert [p.n_nodes for p in result.points["moldyn"]] == [4, 16]

    def test_workloads_repartition(self, result):
        # More nodes, more boundary traffic.
        small, large = result.points["moldyn"]
        assert large.messages > small.messages

    def test_accuracy_does_not_collapse(self, result):
        for point in result.points["moldyn"]:
            assert point.overall > 40.0

    def test_format(self, result):
        text = result.format()
        assert "nodes" in text and "moldyn" in text

    def test_accuracy_varies_gently_from_4_to_32_nodes(self):
        result = run_scaling(
            apps=("moldyn", "unstructured"),
            node_counts=(4, 8, 16, 32),
            depth=2,
            seed=0,
            quick=True,
        )
        for app, points in result.points.items():
            overall = [p.overall for p in points]
            assert max(overall) - min(overall) < 20.0, app


class TestSeedStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_seed_study(
            apps=("appbt", "barnes", "moldyn"),
            seeds=(0, 1, 2, 3, 4),
            depth=1,
            quick=True,
        )

    def test_all_seeds_measured(self, result):
        assert sorted(result.accuracies) == ["appbt", "barnes", "moldyn"]
        for accuracies in result.accuracies.values():
            assert len(accuracies) == 5

    def test_spread_is_small(self, result):
        # Calibration must not hinge on one lucky seed.
        for app in result.accuracies:
            assert result.spread(app) < 8.0, app

    def test_format(self, result):
        assert "spread" in result.format()
