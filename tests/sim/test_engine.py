"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(30, log.append, "c")
        engine.schedule(10, log.append, "a")
        engine.schedule(20, log.append, "b")
        engine.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        log = []
        for tag in "abcde":
            engine.schedule(5, log.append, tag)
        engine.run()
        assert log == list("abcde")

    def test_now_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_nested_scheduling(self):
        engine = Engine()
        log = []

        def outer():
            log.append(("outer", engine.now))
            engine.schedule(5, inner)

        def inner():
            log.append(("inner", engine.now))

        engine.schedule(10, outer)
        engine.run()
        assert log == [("outer", 10), ("inner", 15)]

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        log = []
        engine.schedule_at(100, log.append, "x")
        engine.run()
        assert log == ["x"]
        assert engine.now == 100

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5, lambda: None)


class TestRun:
    def test_run_returns_dispatched_count(self):
        engine = Engine()
        for _ in range(4):
            engine.schedule(1, lambda: None)
        assert engine.run() == 4

    def test_max_events_bounds_dispatch(self):
        engine = Engine()
        log = []
        for index in range(5):
            engine.schedule(index, log.append, index)
        assert engine.run(max_events=2) == 2
        assert log == [0, 1]
        assert engine.pending() == 3
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_events_processed_accumulates(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        engine.run()
        engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_empty_run_is_noop(self):
        engine = Engine()
        assert engine.run() == 0
        assert engine.now == 0

    def test_zero_budget_dispatches_nothing(self):
        engine = Engine()
        log = []
        engine.schedule(1, log.append, "heap")
        engine.schedule_fifo(2, log.append, "fifo")
        assert engine.run(max_events=0) == 0
        assert log == [] and engine.pending() == 2
        assert engine.now == 0 and engine.events_processed == 0


#: One scheduled event: its lane, its delay, and the events its callback
#: schedules in turn when it runs.
LANES = ("schedule", "schedule_at", "schedule_fifo")
EVENTS = st.recursive(
    st.tuples(st.sampled_from(LANES), st.integers(0, 30), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(LANES),
        st.integers(0, 30),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=30,
)


class _Schedule:
    """Feeds an engine a tree of events and logs each ``(time, seq)``.

    Every ``schedule*`` call takes the engine's next sequence number, so
    counting the calls here numbers each event by its engine ``seq``.
    The callback of the ``raise_at``-th dispatched event raises.
    """

    def __init__(self, engine, raise_at):
        self.engine = engine
        self.raise_at = raise_at
        self.seq = 0
        self.log = []

    def add(self, spec):
        lane, delay, children = spec
        seq = self.seq
        self.seq += 1
        if lane == "schedule_at":
            self.engine.schedule_at(
                self.engine.now + delay, self.fire, seq, children
            )
        else:
            getattr(self.engine, lane)(delay, self.fire, seq, children)

    def fire(self, seq, children):
        if len(self.log) == self.raise_at:
            raise ValueError("planted failure")
        self.log.append((self.engine.now, seq))
        for child in children:
            self.add(child)


def _drain(roots, max_events, raise_at):
    """Drain a fresh engine fed ``roots``: one ``run()`` when
    ``max_events`` is None, else repeated ``run(max_events=...)``."""
    engine = Engine()
    schedule = _Schedule(engine, raise_at)
    for spec in roots:
        schedule.add(spec)
    chunks = []
    raised = False
    try:
        if max_events is None:
            chunks.append(engine.run())
        else:
            while engine.pending():
                chunks.append(engine.run(max_events=max_events))
    except SimulationError:
        raised = True
    return schedule.log, engine.now, engine.events_processed, raised, chunks


class TestBoundedDrainProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        roots=st.lists(EVENTS, max_size=8),
        max_events=st.integers(1, 12),
        raise_at=st.none() | st.integers(0, 40),
    )
    def test_chunked_drain_matches_one_run(self, roots, max_events, raise_at):
        whole = _drain(roots, None, raise_at)
        chunked = _drain(roots, max_events, raise_at)
        log, now, processed, raised, _chunks = whole
        assert chunked[:4] == whole[:4]
        # The lane merge dispatches in strictly increasing (time, seq).
        assert log == sorted(set(log))
        # A raising event is not counted, bounded or not.
        assert processed == len(log)
        assert not raised or raise_at == len(log)
        assert all(0 < chunk <= max_events for chunk in chunked[4])
        if not raised:
            assert sum(chunked[4]) == processed == whole[4][0]


class TestDeterminism:
    """Two engines fed the same schedule dispatch identically.

    The protocol relies on deterministic tie-breaking (insertion order)
    for per-channel FIFO; these tests pin that contract for interleaved
    ``schedule``/``schedule_at`` calls with equal-time ties.
    """

    @staticmethod
    def _drive(engine, log):
        # Mix relative and absolute scheduling with deliberate ties:
        # everything below lands at t=5, t=7, or t=9.
        engine.schedule(5, log.append, "rel-5a")
        engine.schedule_at(5, log.append, "abs-5b")
        engine.schedule(7, log.append, "rel-7a")
        engine.schedule_at(5, log.append, "abs-5c")
        engine.schedule_at(9, log.append, "abs-9a")
        engine.schedule(5, log.append, "rel-5d")
        engine.schedule_at(7, log.append, "abs-7b")
        engine.schedule(9, log.append, "rel-9b")

    def test_interleaved_ties_dispatch_in_insertion_order(self):
        engine = Engine()
        log = []
        self._drive(engine, log)
        engine.run()
        assert log == [
            "rel-5a", "abs-5b", "abs-5c", "rel-5d",
            "rel-7a", "abs-7b",
            "abs-9a", "rel-9b",
        ]

    def test_two_engines_replay_identically(self):
        first_log, second_log = [], []
        for log in (first_log, second_log):
            engine = Engine()
            self._drive(engine, log)
            # Nested scheduling at dispatch time must also replay: each
            # t=5 event schedules a follow-up at the same future time.
            engine.schedule(1, engine.schedule, 4, log.append, "nested-5")
            engine.run()
        assert first_log == second_log

    def test_ties_created_at_dispatch_time_follow_insertion_order(self):
        engine = Engine()
        log = []

        def spawn(tag):
            log.append(tag)
            # Scheduled mid-run with delay 0: same timestamp, later seq.
            engine.schedule(0, log.append, f"{tag}-child")

        engine.schedule(3, spawn, "a")
        engine.schedule(3, spawn, "b")
        engine.run()
        assert log == ["a", "b", "a-child", "b-child"]


class TestErrorPaths:
    def test_negative_delay_message_names_offender(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="-7"):
            engine.schedule(-7, lambda: None)

    def test_rejected_schedule_leaves_queue_untouched(self):
        engine = Engine()
        engine.schedule(1, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)
        assert engine.pending() == 1

    def test_schedule_at_past_message_names_times(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="5.*10"):
            engine.schedule_at(5, lambda: None)
        assert engine.pending() == 0

    def test_schedule_at_current_time_is_allowed(self):
        engine = Engine()
        engine.schedule(10, lambda: None)
        engine.run()
        log = []
        engine.schedule_at(10, log.append, "now")
        engine.run()
        assert log == ["now"] and engine.now == 10

    def test_rejected_calls_do_not_advance_sequence_visibly(self):
        # A rejected schedule between two accepted ties must not change
        # their dispatch order.
        engine = Engine()
        log = []
        engine.schedule(5, log.append, "first")
        with pytest.raises(SimulationError):
            engine.schedule(-1, log.append, "never")
        engine.schedule(5, log.append, "second")
        engine.run()
        assert log == ["first", "second"]


class TestCallbackFailureContext:
    def test_repro_errors_keep_their_type_and_gain_context(self):
        from repro.errors import ProtocolError

        engine = Engine()

        def bad_callback():
            raise ProtocolError("two owners for block 0x40")

        engine.schedule(25, bad_callback)
        with pytest.raises(ProtocolError) as excinfo:
            engine.run()
        context = excinfo.value.event_context
        assert context["time_ns"] == 25
        assert context["seq"] == 0
        assert context["callback"].endswith("bad_callback")

    def test_first_dispatch_context_wins(self):
        from repro.errors import ProtocolError

        engine = Engine()
        original = ProtocolError("inner failure")

        def inner():
            raise original

        engine.schedule(5, inner)
        with pytest.raises(ProtocolError):
            engine.run()
        first = dict(original.event_context)

        # Re-dispatching the same exception object (as a re-raise through
        # an outer drain would) must not overwrite the innermost event.
        engine2 = Engine()

        def reraiser():
            raise original

        engine2.schedule(999, reraiser)
        with pytest.raises(ProtocolError):
            engine2.run()
        assert original.event_context == first

    def test_foreign_exceptions_become_simulation_errors(self):
        engine = Engine()

        def boom():
            raise ValueError("divide by zero-ish")

        engine.schedule(7, boom)
        with pytest.raises(SimulationError, match="boom.*t=7.*seq 0") as excinfo:
            engine.run()
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestIntegerTimeEnforcement:
    """Simulated time is integer nanoseconds, enforced at scheduling.

    A float delay would silently drift event ordering (and replay
    determinism) long before anything crashed, so the engine rejects it
    immediately with an error naming the offending callback.
    """

    def test_float_delay_rejected_naming_callback(self):
        engine = Engine()

        def my_timeout_handler():
            pass  # pragma: no cover

        with pytest.raises(
            SimulationError, match="float.*2.5.*my_timeout_handler"
        ):
            engine.schedule(2.5, my_timeout_handler)
        assert engine.pending() == 0

    def test_whole_valued_float_still_rejected(self):
        # 10.0 == 10 but the type, not the value, is the contract: a
        # float that happens to be whole today drifts tomorrow.
        engine = Engine()
        with pytest.raises(SimulationError, match="float"):
            engine.schedule(10.0, lambda: None)

    def test_bool_delay_rejected(self):
        # bool passes isinstance(int) checks; the engine wants real ints.
        engine = Engine()
        with pytest.raises(SimulationError, match="bool"):
            engine.schedule(True, lambda: None)

    def test_schedule_at_float_time_rejected_naming_callback(self):
        engine = Engine()

        def deadline_check():
            pass  # pragma: no cover

        with pytest.raises(
            SimulationError, match="float.*99.9.*deadline_check"
        ):
            engine.schedule_at(99.9, deadline_check)

    def test_schedule_fifo_float_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="float.*1.5"):
            engine.schedule_fifo(1.5, lambda: None)

    def test_int_delays_still_accepted(self):
        engine = Engine()
        log = []
        engine.schedule(0, log.append, "zero")
        engine.schedule(10, log.append, "ten")
        engine.run()
        assert log == ["zero", "ten"]


class TestFifoLane:
    """schedule_fifo merges with the heap in exact (time, seq) order."""

    def test_fifo_only_dispatch_order(self):
        engine = Engine()
        log = []
        for index in range(5):
            engine.schedule_fifo(index, log.append, index)
        engine.run()
        assert log == [0, 1, 2, 3, 4]

    def test_interleaved_lanes_dispatch_in_global_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(30, log.append, "heap-30")
        engine.schedule_fifo(10, log.append, "fifo-10")
        engine.schedule(5, log.append, "heap-5")
        engine.schedule_fifo(20, log.append, "fifo-20")
        engine.run()
        assert log == ["heap-5", "fifo-10", "fifo-20", "heap-30"]

    def test_equal_times_across_lanes_keep_insertion_order(self):
        engine = Engine()
        log = []
        engine.schedule(7, log.append, "heap-a")
        engine.schedule_fifo(7, log.append, "fifo-b")
        engine.schedule(7, log.append, "heap-c")
        engine.schedule_fifo(7, log.append, "fifo-d")
        engine.run()
        assert log == ["heap-a", "fifo-b", "heap-c", "fifo-d"]

    def test_out_of_order_fifo_falls_back_to_heap(self):
        # An earlier-than-tail fifo event must not be reordered: it falls
        # back to the heap internally and still dispatches by (time, seq).
        engine = Engine()
        log = []
        engine.schedule_fifo(50, log.append, "late")
        engine.schedule_fifo(10, log.append, "early")
        engine.run()
        assert log == ["early", "late"]

    def test_pending_and_describe_cover_both_lanes(self):
        engine = Engine()
        engine.schedule(5, lambda: None)
        engine.schedule_fifo(10, lambda: None)
        assert engine.pending() == 2
        description = engine.describe_pending()
        assert "t=5" in description and "t=10" in description

    def test_iter_pending_sees_fifo_events(self):
        engine = Engine()
        engine.schedule_fifo(10, lambda: None, "payload")
        entries = list(engine.iter_pending())
        assert len(entries) == 1
        assert entries[0][0] == 10 and entries[0][3] == ("payload",)

    def test_max_events_budget_covers_fifo_lane(self):
        engine = Engine()
        log = []
        for index in range(4):
            engine.schedule_fifo(index, log.append, index)
        assert engine.run(max_events=2) == 2
        assert log == [0, 1]
        assert engine.pending() == 2
        engine.run()
        assert log == [0, 1, 2, 3]

    def test_nested_fifo_scheduling_during_dispatch(self):
        engine = Engine()
        log = []

        def chain_next(tag):
            log.append((engine.now, tag))
            if tag < 3:
                engine.schedule_fifo(10, chain_next, tag + 1)

        engine.schedule_fifo(10, chain_next, 1)
        engine.run()
        assert log == [(10, 1), (20, 2), (30, 3)]
