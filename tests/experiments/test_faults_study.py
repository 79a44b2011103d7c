"""Tests for the fault study and runner-level fault propagation."""

import random

import pytest

from repro.experiments.common import (
    clear_trace_cache,
    configure_faults,
    configure_trace_cache,
    current_faults,
)
from repro.experiments.faults import run_fault_study
from repro.experiments.runner import report_text, run_experiments
from repro.sim.faults import PRESETS
from repro.trace.cache import TraceCache


class TestFaultStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_fault_study(apps=["moldyn"], quick=True)

    def test_one_row_per_profile(self, study):
        assert [row.profile for row in study.rows] == list(PRESETS)

    def test_fault_free_row_is_clean(self, study):
        row = study.row("moldyn", "none")
        assert row.counters["net.fault.dropped"] == 0
        assert row.counters["proto.retry.requests"] == 0

    def test_faulty_rows_record_faults(self, study):
        for profile in ("light", "moderate", "heavy"):
            row = study.row("moldyn", profile)
            assert row.events > 0
            assert row.counters["net.fault.sent"] > 0
            assert row.counters["net.fault.dropped"] > 0

    def test_heavier_profiles_drop_more(self, study):
        drops = [
            study.row("moldyn", p).counters["net.fault.dropped"]
            for p in ("light", "moderate", "heavy")
        ]
        assert drops == sorted(drops)

    def test_accuracy_degrades_under_faults(self, study):
        clean = study.row("moldyn", "none").overall_accuracy
        heavy = study.row("moldyn", "heavy").overall_accuracy
        assert 0.0 < heavy < clean <= 1.0

    def test_every_accuracy_is_a_fraction(self, study):
        for row in study.rows:
            assert 0.0 <= row.overall_accuracy <= 1.0

    def test_format_renders_both_tables(self, study):
        text = study.format()
        assert "fault rate" in text
        assert "vs fault-free run" in text
        for profile in PRESETS:
            assert profile in text


class TestRunnerFaultPropagation:
    NAMES = ["table5"]

    def test_sequential_and_parallel_identical_under_faults(
        self, tmp_path_factory
    ):
        cache_dir = str(tmp_path_factory.mktemp("fault-cache"))
        sequential, _ = run_experiments(
            self.NAMES,
            quick=True,
            seed=0,
            jobs=1,
            cache_dir=None,
            fault_spec="light",
            fault_seed=3,
        )
        clear_trace_cache()
        parallel, _ = run_experiments(
            self.NAMES,
            quick=True,
            seed=0,
            jobs=4,
            cache_dir=cache_dir,
            fault_spec="light",
            fault_seed=3,
        )
        assert report_text(parallel) == report_text(sequential)

    def test_faulty_text_differs_from_reliable_text(self):
        reliable, _ = run_experiments(
            self.NAMES, quick=True, seed=0, jobs=1, cache_dir=None
        )
        clear_trace_cache()
        faulty, _ = run_experiments(
            self.NAMES,
            quick=True,
            seed=0,
            jobs=1,
            cache_dir=None,
            fault_spec="moderate",
            fault_seed=1,
        )
        assert report_text(faulty) != report_text(reliable)

    def test_sequential_path_restores_ambient_faults(self, tmp_path):
        before = current_faults()
        caller_cache = TraceCache(tmp_path)
        previous_cache = configure_trace_cache(caller_cache)
        random.seed(11)
        caller_random = random.getstate()
        try:
            run_experiments(
                ["tables1-3-4"],
                quick=True,
                jobs=1,
                fault_spec="heavy",
                fault_seed=2,
            )
            assert random.getstate() == caller_random
        finally:
            assert configure_trace_cache(previous_cache) is caller_cache
        assert current_faults() == before


@pytest.fixture(autouse=True)
def _bound_memory():
    yield
    clear_trace_cache()
