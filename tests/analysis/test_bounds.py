"""Tests for the offline optimality reference."""

import pytest

from repro.analysis.bounds import measure_bounds, optimal_table_accuracy
from repro.experiments.bounds import run_bounds
from repro.protocol.messages import MessageType, Role
from repro.trace.events import TraceEvent

A = MessageType.GET_RO_REQUEST
B = MessageType.UPGRADE_REQUEST


def event(i, mtype, sender=1, block=0x40):
    return TraceEvent(10 * i, 1 + i // 4, 0, Role.DIRECTORY, block, sender,
                      mtype)


def stream(types):
    return [event(i, t) for i, t in enumerate(types)]


class TestOptimalAccuracy:
    def test_deterministic_cycle_is_fully_predictable(self):
        events = stream([A, B] * 10)
        accuracy, contexts, references = optimal_table_accuracy(events, 1)
        # Only the very first reference lacks a context.
        assert references == 20
        assert contexts == 2
        assert accuracy == pytest.approx(19 / 20)

    def test_pure_noise_is_half_predictable(self):
        # After A, successors alternate A/B evenly: best static choice
        # gets half of them.
        events = stream([A, A, A, B] * 10)
        accuracy, _contexts, _refs = optimal_table_accuracy(events, 1)
        # Context (A,): successors A,A,B repeated -> 2/3 of those; the
        # context (B,) -> always A.  Overall well under 1.
        assert 0.5 < accuracy < 0.95

    def test_depth_two_can_beat_depth_one_ceiling(self):
        # A A B A A B ...: after one A the successor is ambiguous (A or
        # B); after (A, A) it is always B and after (B, A) always A.
        events = stream([A, A, B] * 12)
        d1, _, _ = optimal_table_accuracy(events, 1)
        d2, _, _ = optimal_table_accuracy(events, 2)
        assert d2 > d1

    def test_empty_trace(self):
        accuracy, contexts, references = optimal_table_accuracy([], 1)
        assert accuracy == 0.0
        assert contexts == 0
        assert references == 0

    def test_contexts_distinguish_blocks(self):
        events = stream([A, A, A, A]) + [
            event(10 + i, B, block=0x80) for i in range(4)
        ]
        _, contexts, _ = optimal_table_accuracy(events, 1)
        assert contexts == 2


class TestMeasureBounds:
    def test_ceiling_dominates_cosmos_on_stationary_stream(self):
        events = stream([A, B] * 30)
        for bound in measure_bounds(events, depths=(1, 2)):
            assert bound.bound_accuracy >= bound.cosmos_accuracy
            assert 0.0 <= bound.efficiency <= 1.0

    def test_gap_definition(self):
        events = stream([A, B] * 30)
        bound = measure_bounds(events, depths=(1,))[0]
        assert bound.gap == pytest.approx(
            bound.bound_accuracy - bound.cosmos_accuracy
        )

    def test_cosmos_near_ceiling_on_clean_cycle(self, producer_consumer_trace):
        bound = measure_bounds(producer_consumer_trace, depths=(1,))[0]
        assert bound.efficiency > 0.85


class TestRunBounds:
    @pytest.fixture(scope="class")
    def result(self):
        return run_bounds(
            apps=("appbt", "barnes", "dsmc"), depths=(1, 2), seed=0,
            quick=True,
        )

    def test_ceiling_dominates_cosmos_on_real_apps(self, result):
        for app, bounds in result.bounds.items():
            for bound in bounds:
                assert bound.bound_accuracy >= bound.cosmos_accuracy - 0.02, (
                    app, bound.depth,
                )

    def test_barnes_loses_most_to_training(self, result):
        # barnes' address churn is training loss: its gap to the static
        # ceiling dwarfs dsmc's.
        assert result.bounds["barnes"][0].gap > result.bounds["dsmc"][0].gap
