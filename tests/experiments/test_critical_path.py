"""Tests for the critical-path composition experiment."""

import pytest

from repro.experiments.critical_path import (
    PREDICTOR_NAMES,
    run_critical_path,
)
from repro.experiments.runner import EXPERIMENT_TRACES, EXPERIMENTS
from repro.obs.log import OBS


@pytest.fixture(autouse=True)
def spans_off_after():
    yield
    OBS.disable()
    OBS.set_clock(None)


@pytest.fixture(scope="module")
def result():
    return run_critical_path(apps=["moldyn"], quick=True, seed=0)


class TestRunCriticalPath:
    def test_every_predictor_row_is_present(self, result):
        assert set(result.summaries) == {"moldyn"}
        assert set(result.summaries["moldyn"]) == set(PREDICTOR_NAMES)

    def test_rows_cover_the_same_transactions(self, result):
        by_predictor = result.summaries["moldyn"]
        counts = {s.transactions for s in by_predictor.values()}
        assert len(counts) == 1 and counts.pop() > 0

    def test_prediction_shrinks_indirection_share(self, result):
        by_predictor = result.summaries["moldyn"]
        none = by_predictor["none"]
        cosmos = by_predictor["cosmos"]
        assert none.hits == none.misses == 0
        assert cosmos.hits > 0
        assert cosmos.mean_share("indirection") < none.mean_share(
            "indirection"
        )
        assert cosmos.mean_share("predicted-shortcut") > 0
        assert cosmos.saved_ns > 0

    def test_format_renders_one_table_per_app(self, result):
        text = result.format()
        assert "moldyn: mean critical-path shares" in text
        for predictor in PREDICTOR_NAMES:
            assert predictor in text

    def test_tracing_is_left_disabled(self, result):
        assert not OBS.spans

    def test_registered_with_the_runner(self):
        assert "critical-path" in EXPERIMENTS
        assert EXPERIMENT_TRACES["critical-path"] == ()
