"""Tests for the hardware-budget experiment."""

import pytest

from repro.experiments.hardware import run_hardware


@pytest.fixture(scope="module")
def result():
    return run_hardware(
        app="moldyn",
        capacities=(None, 256, 64, 16, 4),
        thresholds=(0, 1, 2, 3),
        quick=True,
    )


class TestCapacitySweep:
    def test_unbounded_never_evicts(self, result):
        unbounded = result.capacity_points[0]
        assert unbounded.capacity is None
        assert unbounded.evictions == 0

    def test_accuracy_monotone_in_capacity(self, result):
        overall = [p.overall for p in result.capacity_points]
        assert overall == sorted(overall, reverse=True)

    def test_tiny_table_thrashes(self, result):
        tiny = result.capacity_points[-1]
        assert tiny.evictions > 0
        assert tiny.overall < result.capacity_points[0].overall


class TestConfidenceSweep:
    def test_precision_rises_with_threshold(self, result):
        precision = [p.precision for p in result.confidence_points]
        assert precision == sorted(precision)
        assert precision[-1] > precision[0]

    def test_coverage_falls_with_threshold(self, result):
        coverage = [p.coverage for p in result.confidence_points]
        assert coverage == sorted(coverage, reverse=True)
        assert coverage[-1] < coverage[0]

    def test_threshold_zero_has_full_coverage_of_known_patterns(self, result):
        base = result.confidence_points[0]
        assert base.coverage > 0.5


class TestFormat:
    def test_both_tables_rendered(self, result):
        text = result.format()
        assert "MHT capacity" in text
        assert "Confidence gating" in text
        assert "unbounded" in text
