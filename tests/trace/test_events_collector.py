"""Tests for trace events and the collector."""

import pytest

from repro.protocol.messages import MessageType, Role
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent

#: The collector takes the receiving module as its receiver bit.
CACHE_BIT, DIRECTORY_BIT = 0, 1


def event(time=0, iteration=1, node=1, role=Role.CACHE, block=0, sender=0,
          mtype=MessageType.GET_RO_RESPONSE):
    return TraceEvent(
        time=time,
        iteration=iteration,
        node=node,
        role=role,
        block=block,
        sender=sender,
        mtype=mtype,
    )


class TestTraceEvent:
    def test_tuple_property(self):
        e = event(sender=5, mtype=MessageType.INVAL_RO_REQUEST)
        assert e.tuple == (5, MessageType.INVAL_RO_REQUEST)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            event().time = 99


class TestCollector:
    def test_record_and_iterate(self):
        collector = TraceCollector()
        collector.iteration = 1
        collector.record(10, 1, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        collector.record(20, 0, DIRECTORY_BIT, 64, 1, MessageType.GET_RO_REQUEST)
        events = list(collector)
        assert len(events) == 2
        assert events[0].time == 10
        assert events[1].role is Role.DIRECTORY
        assert all(e.iteration == 1 for e in events)

    def test_startup_events_excluded(self):
        collector = TraceCollector()
        collector.record(1, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        collector.mark_startup_complete()
        collector.record(2, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        assert len(collector.events) == 1
        assert len(collector.all_events) == 2
        assert collector.events[0].time == 2

    def test_rows_are_a_copy_of_the_main_phase(self):
        collector = TraceCollector()
        collector.record(1, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        collector.mark_startup_complete()
        collector.iteration = 3
        collector.record(2, 1, DIRECTORY_BIT, 64, 0, MessageType.GET_RO_REQUEST)
        rows = collector.rows
        assert list(rows) == [
            2, 3, 1, DIRECTORY_BIT, 64, 0, MessageType.GET_RO_REQUEST,
        ]
        rows[0] = 99
        assert collector.events[0].time == 2

    def test_len_respects_startup_boundary(self):
        collector = TraceCollector()
        collector.record(1, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        collector.mark_startup_complete()
        assert len(collector) == 0

    def test_clear(self):
        collector = TraceCollector()
        collector.record(1, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        collector.mark_startup_complete()
        collector.iteration = 5
        collector.clear()
        assert len(collector.all_events) == 0
        assert collector.iteration == 0
        collector.record(1, 0, CACHE_BIT, 0, 0, MessageType.GET_RO_RESPONSE)
        assert len(collector.events) == 1
