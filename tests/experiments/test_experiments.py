"""Tests for the experiment drivers (quick mode)."""

import pytest

from repro.experiments import (
    clear_trace_cache,
    get_trace,
    run_figure2,
    run_mispredict_profile,
    run_figure5,
    run_figure8,
    run_figures6_7,
    run_integration,
    run_sensitivity,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from repro.experiments.common import iterations_for, workload_for
from repro.protocol.messages import Role
from repro.workloads.registry import BENCHMARK_NAMES


@pytest.fixture(scope="module", autouse=True)
def _clear_cache_after():
    yield
    clear_trace_cache()


class TestCommon:
    def test_trace_memoized(self):
        a = get_trace("moldyn", iterations=4, quick=True)
        b = get_trace("moldyn", iterations=4, quick=True)
        assert a is b

    def test_different_seed_not_shared(self):
        a = get_trace("moldyn", iterations=4, quick=True, seed=0)
        b = get_trace("moldyn", iterations=4, quick=True, seed=1)
        assert a is not b

    def test_quick_workloads_are_smaller(self):
        assert (
            workload_for("moldyn", quick=True).force_blocks_count
            < workload_for("moldyn", quick=False).force_blocks_count
        )

    def test_quick_iterations_reduced(self):
        assert iterations_for("dsmc", quick=True) < iterations_for("dsmc")


class TestTableExperiments:
    def test_table5_structure(self):
        result = run_table5(
            apps=("moldyn",), depths=(1, 2), quick=True
        )
        assert set(result.rows) == {"moldyn"}
        cell = result.cell("moldyn", 1)
        assert 0 <= cell.overall <= 100
        text = result.format()
        assert "moldyn" in text and "Paper" in text

    def test_table5_every_app_in_range(self):
        result = run_table5(quick=True, seed=0)
        assert set(result.rows) == set(BENCHMARK_NAMES)
        for rows in result.rows.values():
            for row in rows:
                assert 0.0 <= row.overall <= 100.0

    def test_table5_unknown_cell(self):
        result = run_table5(apps=("moldyn",), depths=(1,), quick=True)
        with pytest.raises(KeyError):
            result.cell("moldyn", 4)

    def test_table6_structure(self):
        result = run_table6(apps=("moldyn",), quick=True)
        assert set(result.cells["moldyn"][1]) == {0, 1, 2}
        assert "filter" in result.format()

    def test_table6_every_app(self):
        result = run_table6(quick=True, seed=0)
        assert set(result.cells) == set(BENCHMARK_NAMES)
        for app, by_depth in result.cells.items():
            for depth, by_filter in by_depth.items():
                # Filters never swing accuracy catastrophically.
                assert abs(by_filter[2] - by_filter[0]) < 20.0, (app, depth)
        # Filters and history are alternative noise treatments: a filter
        # helps barnes' depth-1 predictor at least as much as depth 2's.
        barnes = result.cells["barnes"]
        assert barnes[1][1] - barnes[1][0] >= barnes[2][1] - barnes[2][0] - 1.5

    def test_table7_structure(self):
        result = run_table7(apps=("moldyn",), depths=(1, 2), quick=True)
        rows = result.rows["moldyn"]
        assert rows[0].mhr_entries > 0
        assert "Ratio" in result.format()

    def test_table7_every_app(self):
        result = run_table7(quick=True, seed=0)
        assert set(result.rows) == set(BENCHMARK_NAMES)
        for rows in result.rows.values():
            for row in rows:
                assert row.ratio >= 0.0
                assert row.overhead_percent >= 0.0

    def test_table8_quick(self):
        result = run_table8(quick=True, seed=0)
        assert result.progress
        assert result.curves

    def test_table8_structure(self):
        result = run_table8(
            checkpoints=(2, 4), curve_apps=("moldyn",), quick=True
        )
        assert result.progress
        for snapshots in result.progress.values():
            assert [s.iteration for s in snapshots] == [2, 4]
        assert "dsmc" in result.format()


class TestFigureExperiments:
    @pytest.mark.parametrize("iterations", [25, 40])
    def test_figure2_signatures(self, iterations):
        result = run_figure2(iterations=iterations)
        assert result.steady_accuracy > 0.9
        assert Role.CACHE in result.signatures
        assert "producer-consumer" in result.format()

    def test_figure5_exact(self):
        result = run_figure5()
        assert result.example_speedup_percent == pytest.approx(56.25, abs=0.3)
        assert "56" in result.format()

    def test_figures6_7_structure(self):
        result = run_figures6_7(apps=("moldyn",), quick=True)
        data = result.apps["moldyn"]
        assert data.arcs
        assert "->" in result.format()

    def test_figures6_7_every_app_has_arcs(self):
        result = run_figures6_7(quick=True, seed=0)
        assert set(result.apps) == set(BENCHMARK_NAMES)
        for app, data in result.apps.items():
            assert data.arcs, app

    def test_figure8_unstructured(self):
        result = run_figure8(
            iterations=30, seed=0, include_apps=("unstructured",), quick=True
        )
        migratory = {s.predictor: s for s in result.scores["migratory-micro"]}
        assert migratory["migratory"].precision > 0.9
        assert (
            migratory["cosmos-d1"].accuracy > migratory["migratory"].accuracy
        )
        # Section 7's headline: no directed predictor tracks
        # unstructured's composite migratory <-> producer-consumer pattern.
        unstructured = {s.predictor: s for s in result.scores["unstructured"]}
        for directed in ("migratory", "dsi"):
            assert (
                unstructured["cosmos-d2"].accuracy
                > unstructured[directed].accuracy + 0.2
            ), directed

    def test_figure8_cosmos_vs_directed(self):
        result = run_figure8(iterations=20, quick=True, include_apps=())
        migratory_scores = {
            s.predictor: s for s in result.scores["migratory-micro"]
        }
        # The directed migratory predictor is precise on its home turf...
        assert migratory_scores["migratory"].precision > 0.9
        # ...but Cosmos covers everything and wins on accuracy.
        assert (
            migratory_scores["cosmos-d1"].accuracy
            > migratory_scores["migratory"].accuracy
        )
        dsi_scores = {s.predictor: s for s in result.scores["dsi-micro"]}
        assert dsi_scores["dsi"].precision > 0.9
        assert dsi_scores["cosmos-d1"].accuracy > dsi_scores["dsi"].accuracy


class TestMispredictProfile:
    def test_structure_and_format(self):
        result = run_mispredict_profile(apps=("moldyn",), quick=True, top=3)
        assert set(result.reports) == {"moldyn"}
        report = result.reports["moldyn"]
        assert report.total_refs > 0
        assert len(report.top_patterns(3)) <= 3
        text = result.format()
        assert "Misprediction forensics profile" in text
        assert "moldyn:" in text
        assert "history pattern" in text

    def test_deterministic_output(self):
        a = run_mispredict_profile(apps=("moldyn",), quick=True)
        b = run_mispredict_profile(apps=("moldyn",), quick=True)
        assert a.format() == b.format()


class TestSensitivityAndIntegration:
    @pytest.mark.parametrize(
        "apps", [("moldyn",), ("appbt", "dsmc")], ids=["moldyn", "appbt-dsmc"]
    )
    def test_latency_insensitivity(self, apps):
        result = run_sensitivity(apps=apps, quick=True)
        # Section 5's claim: stretching latency 25x barely moves accuracy.
        assert result.max_delta() < 8.0
        assert "latency" in result.format()

    def test_integration_reports(self):
        result = run_integration(
            model_apps=("moldyn",),
            inline_apps=("moldyn",),
            quick=True,
        )
        assert 0.0 < result.accuracies["moldyn"] < 1.0
        assert "model speedup" in result.format()
        assert set(result.inline_comparisons) == {
            "moldyn/grant",
            "moldyn/push",
            "moldyn/both",
        }
        assert result.inline_comparisons["moldyn/grant"].exclusive_grants > 0
        assert result.inline_comparisons["moldyn/push"].pushes > 0
        assert "Inline integration" in result.format()

    def test_integration_pays_off_on_appbt_and_moldyn(self):
        result = run_integration(
            model_apps=("moldyn",),
            inline_apps=("appbt", "moldyn"),
            seed=0,
            quick=True,
        )
        assert result.model_speedup("moldyn") > 1.0
        assert len(result.inline_comparisons) == 6
        for label, comparison in result.inline_comparisons.items():
            # Inline prediction never inflates traffic catastrophically,
            # and every mode acts on some of its predictions.
            assert comparison.message_reduction > -0.05, label
            assert comparison.exclusive_grants + comparison.pushes > 0, label
