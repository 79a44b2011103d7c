"""Tests for the Section 3.7 replacement / history-loss study."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.experiments.replacement import (
    ReadMostlyMicro,
    evaluate_with_history_loss,
    run_replacement_study,
)
from repro.protocol.messages import MessageType, Role
from repro.sim.machine import simulate
from repro.trace.events import TraceEvent

A = (0, MessageType.GET_RO_RESPONSE)


class TestForget:
    def test_forget_erases_block_history(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        for _ in range(3):
            predictor.update(0x40, A)
        assert predictor.predict(0x40) == A
        predictor.forget(0x40)
        assert predictor.predict(0x40) is None
        assert predictor.mhr_entries == 0

    def test_forget_is_per_block(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        for block in (0x40, 0x80):
            for _ in range(3):
                predictor.update(block, A)
        predictor.forget(0x40)
        assert predictor.predict(0x80) == A

    def test_forget_unknown_block_is_noop(self):
        predictor = CosmosPredictor()
        predictor.forget(0x40)  # no error


class TestEvaluateWithHistoryLoss:
    def _events(self, n=12):
        return [
            TraceEvent(10 * i, 1 + i // 4, 1, Role.CACHE, 0x40, 0,
                       MessageType.GET_RO_RESPONSE)
            for i in range(n)
        ]

    def test_without_replacements_matches_plain(self):
        events = self._events()
        accuracy = evaluate_with_history_loss(events, [])
        # Constant stream: everything after the two cold misses hits.
        assert accuracy == pytest.approx(10 / 12)

    def test_replacements_reduce_accuracy(self):
        events = self._events()
        # Erase history mid-stream, twice.
        replacements = [(45, 1, 0x40), (85, 1, 0x40)]
        lossy = evaluate_with_history_loss(events, replacements)
        assert lossy < evaluate_with_history_loss(events, [])

    def test_directory_history_untouched(self):
        events = [
            TraceEvent(10 * i, 1, 0, Role.DIRECTORY, 0x40, 1,
                       MessageType.GET_RO_REQUEST)
            for i in range(10)
        ]
        # Cache-side replacements never affect directory predictors.
        replacements = [(35, 0, 0x40)]
        assert evaluate_with_history_loss(
            events, replacements
        ) == evaluate_with_history_loss(events, [])


class TestReadMostlyMicro:
    def test_runs_and_generates_traffic(self):
        collector = simulate(ReadMostlyMicro(), iterations=10, seed=0)
        assert collector.events

    def test_rare_writes(self):
        collector = simulate(
            ReadMostlyMicro(write_period=5), iterations=10, seed=0
        )
        upgrades = [
            e for e in collector.events
            if e.mtype in (MessageType.UPGRADE_REQUEST,
                           MessageType.GET_RW_REQUEST)
        ]
        reads = [
            e for e in collector.events
            if e.mtype is MessageType.GET_RO_REQUEST
        ]
        assert len(reads) > len(upgrades)


class TestReplacementStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_replacement_study(cache_blocks=(None, 32, 16), depth=1)

    def test_infinite_cache_never_replaces(self, study):
        infinite = study.points[0]
        assert infinite.cache_blocks is None
        assert infinite.replacements == 0
        assert infinite.history_loss_cost == pytest.approx(0.0)

    def test_small_cache_replaces_and_inflates_traffic(self, study):
        infinite, small = study.points[0], study.points[-1]
        assert small.replacements > 0
        assert small.messages > infinite.messages
        # Shrinking the cache inflates traffic monotonically.
        messages = [p.messages for p in study.points]
        assert messages == sorted(messages)

    def test_merged_history_costs_accuracy(self, study):
        small = study.points[-1]
        assert small.accuracy_merged < small.accuracy_persistent
        # More than a point of accuracy at the smallest size.
        assert small.history_loss_cost > 1.0

    def test_format(self, study):
        text = study.format()
        assert "replacement" in text.lower()
        assert "inf" in text
