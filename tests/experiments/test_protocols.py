"""Tests for the protocol-comparison experiment."""

import pytest

from repro.experiments.protocols import run_protocol_comparison


@pytest.fixture(scope="module")
def comparison():
    return run_protocol_comparison(apps=("moldyn",), depth=1, quick=True)


class TestProtocolComparison:
    def test_both_protocols_measured(self, comparison):
        assert set(comparison.points["moldyn"]) == {"stache", "origin"}

    def test_accuracies_are_percentages(self, comparison):
        for by_proto in comparison.points.values():
            for point in by_proto.values():
                assert 0.0 <= point.overall <= 100.0
                assert 0.0 <= point.cache <= 100.0
                assert 0.0 <= point.directory <= 100.0

    def test_no_first_order_effect(self, comparison):
        # The paper's claim, on a small run: same accuracy band.
        assert comparison.max_overall_delta() < 15.0

    def test_format(self, comparison):
        text = comparison.format()
        assert "stache" in text and "origin" in text
        assert "moldyn" in text


class TestProtocolComparisonAtDepth2:
    def test_no_first_order_effect_on_appbt_and_moldyn(self):
        # Section 2.1: forwarding makes cache-side senders vary, yet
        # accuracy stays within 10 points of Stache's.
        result = run_protocol_comparison(
            apps=("appbt", "moldyn"), depth=2, seed=0, quick=True
        )
        assert result.max_overall_delta() < 10.0
        for app, by_proto in result.points.items():
            for point in by_proto.values():
                assert point.messages > 0, app
