"""Trace collection during simulation.

A :class:`TraceCollector` is attached to a machine; every message reception
is recorded as one row of :class:`TraceEvent` fields.  The machine advances
``collector.iteration`` at application-iteration boundaries so downstream
analyses can align events with iterations, and marks the end of the
start-up phase so it can be dropped (the paper excludes start-up messages
from its traces).

The only store is a flat ``array('q')`` of 7 ints per event: the
record hot path (once per simulated message delivery) is a single
``array.extend`` of ints the caller already holds -- the role arrives as
its receiver bit (:data:`repro.protocol.messages.RECEIVER_BIT`), so there
is no :class:`TraceEvent` allocation, no enum boxing and no lookup --
and a checkpoint pickles it as one buffer (pickling ~100k
frozen dataclasses of enums cost ~100ms *per checkpoint*, which made
per-iteration checkpointing quadratic in trace length).  The same rows
are what the on-disk trace cache stores (:attr:`TraceCollector.rows`).
The :class:`TraceEvent` objects every analysis consumes are decoded
column by column (:func:`repro.trace.events.events_from_flat`) on each
read of :attr:`~TraceCollector.events` / :attr:`~TraceCollector.all_events`
and never kept, so a caller that needs them more than once reads them
once and holds the list.
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

    @property
    def rows(self) -> array:
        """A copy of the main-phase rows, start-up phase removed."""
        return self._flat[(self._startup_boundary or 0) * EVENT_WIDTH :]

    @property
    def events(self) -> List[TraceEvent]:
        """Events with the start-up phase removed, decoded on each read."""
        return events_from_flat(self.rows)

    @property
    def all_events(self) -> List[TraceEvent]:
        """All events, start-up phase included, decoded on each read."""
        return events_from_flat(self._flat)

    def __len__(self) -> int:
        return len(self._flat) // EVENT_WIDTH - (self._startup_boundary or 0)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        del self._flat[:]
        self.iteration = 0
        self._startup_boundary = None
