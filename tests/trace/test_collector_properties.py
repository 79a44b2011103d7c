"""Property tests: the collector's column-wise hand-off equals a row-by-row
build of the same records, through every read/checkpoint/clear order."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.messages import MessageType, Role
from repro.trace.collector import TraceCollector
from repro.trace.events import TraceEvent, events_from_flat

records = st.tuples(
    st.integers(min_value=0, max_value=2**40),  # time
    st.integers(min_value=0, max_value=15),  # node
    st.integers(min_value=0, max_value=1),  # role bit
    st.integers(min_value=0, max_value=2**48),  # block
    st.integers(min_value=0, max_value=15),  # sender
    st.sampled_from(list(MessageType)),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), records),
        st.tuples(st.just("iteration"), st.integers(0, 50)),
        st.tuples(st.just("events")),
        st.tuples(st.just("all_events")),
        st.tuples(st.just("mark")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def reference_event(iteration, record):
    """The row-by-row build: keyword ``__init__`` and the enum constructor."""
    time, node, role_bit, block, sender, mtype = record
    return TraceEvent(
        time=time,
        iteration=iteration,
        node=node,
        role=Role.DIRECTORY if role_bit else Role.CACHE,
        block=block,
        sender=sender,
        mtype=MessageType(int(mtype)),
    )


def assert_same_events(got, expected):
    assert got == expected
    for event, reference in zip(got, expected):
        assert type(event) is TraceEvent
        assert event.role is reference.role
        assert event.mtype is reference.mtype
        assert hash(event) == hash(reference)
        assert pickle.loads(pickle.dumps(event)) == reference
        with pytest.raises(FrozenInstanceError):
            event.time = 0


@settings(max_examples=150, deadline=None)
@given(operations)
def test_hand_off_matches_row_by_row_reference(ops):
    collector = TraceCollector()
    rows = []  # reference events, all phases
    boundary = None
    saved = None
    for op in ops:
        kind = op[0]
        if kind == "record":
            collector.record(*op[1])
            rows.append(reference_event(collector.iteration, op[1]))
        elif kind == "iteration":
            collector.iteration = op[1]
        elif kind == "events":
            expected = rows if boundary is None else rows[boundary:]
            assert_same_events(collector.events, expected)
            assert_same_events(events_from_flat(collector.rows), expected)
            assert len(collector) == len(expected)
        elif kind == "all_events":
            assert_same_events(collector.all_events, rows)
        elif kind == "mark":
            collector.mark_startup_complete()
            boundary = len(rows)
        elif kind == "snapshot":
            saved = (pickle.dumps(collector), list(rows), boundary)
        elif kind == "restore" and saved is not None:
            blob, saved_rows, boundary = saved
            collector = pickle.loads(blob)
            # The pickle carries the rows, the iteration and the
            # start-up boundary, and nothing else.
            assert set(vars(collector)) == {
                "_flat",
                "iteration",
                "_startup_boundary",
            }
            rows = list(saved_rows)
        elif kind == "clear":
            collector.clear()
            rows = []
            boundary = None
    assert_same_events(collector.all_events, rows)
    expected = rows if boundary is None else rows[boundary:]
    assert_same_events(collector.events, expected)


def test_message_type_table_is_the_enum():
    """The hand-off decodes types by indexing ``tuple(MessageType)``."""
    table = tuple(MessageType)
    for value in range(len(table)):
        assert table[value] is MessageType(value)
