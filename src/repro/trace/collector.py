"""Trace collection during simulation.

A :class:`TraceCollector` is attached to a machine; every message reception
is recorded as a :class:`TraceEvent`.  The machine advances
``collector.iteration`` at application-iteration boundaries so downstream
analyses can align events with iterations, and marks the end of the
start-up phase so it can be dropped (the paper excludes start-up messages
from its traces).

The primary store is a flat ``array('q')`` of 7 ints per event: the
record hot path (once per simulated message delivery) is a single
``array.extend`` of ints the caller already holds -- the role arrives as
its receiver bit (:data:`repro.protocol.messages.RECEIVER_BIT`), so there
is no :class:`TraceEvent` allocation, no enum boxing and no lookup --
and a checkpoint pickles it as one buffer (pickling ~100k
frozen dataclasses of enums cost ~100ms *per checkpoint*, which made
per-iteration checkpointing quadratic in trace length).  The
:class:`TraceEvent` objects every analysis consumes are materialized
lazily, once, on first access via :attr:`events` / :attr:`all_events`,
column by column (:func:`repro.trace.events.events_from_flat`); a
simulation that only ever checkpoints never builds them at all.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional

from ..protocol.messages import MessageType
from .events import EVENT_WIDTH, TraceEvent, events_from_flat


class TraceCollector:
    """Accumulates trace events in memory."""

    def __init__(self) -> None:
        self._flat = array("q")
        #: Materialized prefix of ``_flat`` (always a prefix: the flat
        #: store is append-only between ``clear`` calls).
        self._events: List[TraceEvent] = []
        self.iteration = 0
        #: Event count recorded before the main iterations began.
        self._startup_boundary: Optional[int] = None

    def record(
        self,
        time: int,
        node: int,
        role_bit: int,
        block: int,
        sender: int,
        mtype: MessageType,
    ) -> None:
        """Record one message reception at the current iteration.

        ``role_bit`` is the receiving module as a
        :data:`~repro.protocol.messages.RECEIVER_BIT` (1 for a directory,
        0 for a cache).
        """
        self._flat.extend(
            (time, self.iteration, node, role_bit, block, sender, mtype)
        )

    def mark_startup_complete(self) -> None:
        """Everything recorded so far belongs to the start-up phase."""
        self._startup_boundary = len(self._flat) // EVENT_WIDTH

    def _materialized(self) -> List[TraceEvent]:
        """The full event list, building only the unmaterialized tail."""
        events = self._events
        start = len(events) * EVENT_WIDTH
        if start < len(self._flat):
            events.extend(events_from_flat(self._flat[start:]))
        return events

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, with the start-up phase removed."""
        events = self._materialized()
        if self._startup_boundary is None:
            return list(events)
        return events[self._startup_boundary :]

    @property
    def all_events(self) -> List[TraceEvent]:
        """All recorded events, including the start-up phase."""
        return list(self._materialized())

    def __len__(self) -> int:
        total = len(self._flat) // EVENT_WIDTH
        if self._startup_boundary is None:
            return total
        return total - self._startup_boundary

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        del self._flat[:]
        self._events = []
        self.iteration = 0
        self._startup_boundary = None

    def __getstate__(self) -> dict:
        # The materialized events are a cache of the flat array; a
        # checkpoint carries only the array.
        return {**self.__dict__, "_events": []}
