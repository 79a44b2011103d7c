"""A minimal discrete-event simulation engine.

The engine keeps a priority queue of ``(time, sequence, callback)`` events.
Ties in time are broken by insertion order (the monotonically increasing
sequence number), which gives the simulator two properties the protocol
relies on:

* determinism -- a run with the same inputs replays identically, and
* per-channel FIFO -- two messages sent over a constant-latency network in
  some order are delivered in the same order.

Alongside the heap there is a second, cheaper lane: :meth:`schedule_fifo`
appends to a plain deque when the new event's time is >= the deque's
tail (the constant-latency network always qualifies -- its delivery
times are ``now + L`` with ``now`` nondecreasing).  The dispatch loop
merges the two lanes by ``(time, seq)``, so ordering is *identical* to
pushing everything through the heap; the bulk of simulator events (one
delivery per message) just skip the ``heappush``/``heappop`` log-factor.

Simulated time is an integer nanosecond count, enforced at the
scheduling boundary: a float delay would silently drift event ordering
(and break replay determinism) long before anything crashed, so
:meth:`schedule` / :meth:`schedule_at` reject non-``int`` times with an
error naming the offending callback.

Callbacks are bound methods of the simulated machine, so a quiescent
engine -- empty queue -- pickles with the machine into a checkpoint and
resumes exactly (see :mod:`repro.sim.checkpoint`).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import chain
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ReproError, SimulationError


def _callback_name(callback: Callable[..., None]) -> str:
    """A human-readable name for a scheduled callback."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = getattr(callback, "__name__", None)
    return name if name is not None else repr(callback)


class Engine:
    """Discrete-event scheduler with nanosecond-granularity integer time."""

    def __init__(self) -> None:
        self._queue: list = []
        #: The append-only fast lane (see module docstring); entries have
        #: the same ``(time, seq, callback, args)`` shape as the heap and
        #: are kept sorted by construction.
        self._fifo: deque = deque()
        self._next_seq = 0
        self._now = 0
        self._events_processed = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events the engine has dispatched."""
        return self._events_processed

    def schedule(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an integer nanosecond count, got "
                f"{type(delay).__name__} {delay!r} scheduling "
                f"{_callback_name(callback)}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))

    def schedule_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if type(time) is not int:
            raise SimulationError(
                f"time must be an integer nanosecond count, got "
                f"{type(time).__name__} {time!r} scheduling "
                f"{_callback_name(callback)}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def schedule_fifo(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Like :meth:`schedule`, routed through the append-only lane.

        Correct for any delay (an event earlier than the lane's tail
        falls back to the heap), but the O(1) fast path only pays off
        when the caller's delivery times are nondecreasing -- which a
        constant-latency network guarantees.
        """
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an integer nanosecond count, got "
                f"{type(delay).__name__} {delay!r} scheduling "
                f"{_callback_name(callback)}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        fifo = self._fifo
        time = self._now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        if not fifo or time >= fifo[-1][0]:
            fifo.append((time, seq, callback, args))
        else:
            heapq.heappush(self._queue, (time, seq, callback, args))

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` dispatched).

        Returns the number of events dispatched by this call.
        """
        if max_events is None:
            return self._run_to_exhaustion()
        dispatched = 0
        while self._queue or self._fifo:
            if dispatched >= max_events:
                break
            time, seq, callback, args = self._pop_next()
            self._now = time
            try:
                callback(*args)
            except ReproError as exc:
                # Preserve the concrete type (a ProtocolError stays a
                # ProtocolError for callers that classify failures) but
                # stamp the dispatch context onto the exception so a
                # failing callback names the exact event that raised.
                self._attach_event_context(exc, time, seq, callback)
                raise
            except Exception as exc:
                raise SimulationError(
                    f"callback {_callback_name(callback)} raised "
                    f"{type(exc).__name__} at t={time} (event seq {seq}): "
                    f"{exc}"
                ) from exc
            dispatched += 1
            self._events_processed += 1
        return dispatched

    def _pop_next(self) -> tuple:
        """Pop the globally next event across both lanes.

        Sequence numbers are unique, so the ``(time, seq, ...)`` tuple
        comparison decides on ``(time, seq)`` alone and never compares
        callbacks.
        """
        queue = self._queue
        fifo = self._fifo
        if fifo:
            if queue and queue[0] < fifo[0]:
                return heapq.heappop(queue)
            return fifo.popleft()
        return heapq.heappop(queue)

    def _run_to_exhaustion(self) -> int:
        """The unbudgeted dispatch loop, monomorphic over both lanes.

        Same ordering and error handling as the budgeted loop above, with
        the per-event budget guard and ``pending`` bookkeeping hoisted
        out; ``try`` is zero-cost on the no-raise path (Python >= 3.11).
        """
        queue = self._queue
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        dispatched = 0
        try:
            while True:
                if fifo:
                    if queue and queue[0] < fifo[0]:
                        event = heappop(queue)
                    else:
                        event = popleft()
                elif queue:
                    event = heappop(queue)
                else:
                    break
                self._now = event[0]
                try:
                    event[2](*event[3])
                except ReproError as exc:
                    self._attach_event_context(
                        exc, event[0], event[1], event[2]
                    )
                    raise
                except Exception as exc:
                    raise SimulationError(
                        f"callback {_callback_name(event[2])} raised "
                        f"{type(exc).__name__} at t={event[0]} "
                        f"(event seq {event[1]}): {exc}"
                    ) from exc
                dispatched += 1
        finally:
            # A raising callback's own event is not counted (it never
            # completed), matching the budgeted loop; everything
            # dispatched before it is folded in exactly once.
            self._events_processed += dispatched
        return dispatched

    def _attach_event_context(
        self, exc: BaseException, time: int, seq: int,
        callback: Callable[..., None],
    ) -> None:
        """Record the dispatching event on an in-flight exception."""
        context = {
            "time_ns": time,
            "seq": seq,
            "callback": _callback_name(callback),
        }
        # First raiser wins: a nested engine (none today) or a re-raise
        # through several drains must keep the innermost event.
        if getattr(exc, "event_context", None) is None:
            exc.event_context = context  # type: ignore[attr-defined]
            add_note = getattr(exc, "add_note", None)
            if add_note is not None:  # PEP 678, Python >= 3.11
                add_note(
                    f"while dispatching {context['callback']} at "
                    f"t={time} (event seq {seq})"
                )

    def pending(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue) + len(self._fifo)

    def iter_pending(self):
        """Iterate pending events as ``(time, seq, callback, args)``.

        Non-destructive and in storage (not dispatch) order.  Used by the
        model checker's abstraction function, which must see messages
        whose delivery is scheduled but has not run yet.
        """
        return chain(self._queue, self._fifo)

    def peek_events(self, limit: int = 5) -> List[Tuple[int, str]]:
        """The next ``limit`` pending events as ``(time, callback name)``.

        Non-destructive: used by error messages, the watchdog's forensic
        bundle, and quiescence diagnostics to show *what* a stuck run is
        still waiting on.
        """
        head = heapq.nsmallest(limit, chain(self._queue, self._fifo))
        return [(time, _callback_name(cb)) for time, _seq, cb, _args in head]

    def describe_pending(self) -> str:
        """One-line summary of the head of the event queue."""
        count = self.pending()
        if not count:
            return "(queue empty)"
        parts = [f"t={time} {name}" for time, name in self.peek_events()]
        rest = count - len(parts)
        suffix = f" ... +{rest} more" if rest else ""
        return "; ".join(parts) + suffix
