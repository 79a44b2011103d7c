"""Trace event records.

The paper evaluates Cosmos on traces of *received* coherence messages: one
record per message reception, identifying the receiving node, the module
(cache or directory) that handled it, the block, and the ``<sender, type>``
tuple Cosmos consumes.  The iteration number tags each event with the
application iteration in flight, which the adaptation analysis (Table 8)
needs.

The simulator's trace collector stores events as flat rows of ints, one
column per :class:`TraceEvent` field; :func:`events_from_flat` turns
such rows back into events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat
from typing import List, Sequence, Tuple

from ..protocol.messages import ROLE_OF_BIT, MessageType, Role


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One coherence-message reception."""

    time: int
    iteration: int
    node: int
    role: Role
    block: int
    sender: int
    mtype: MessageType

    @property
    def tuple(self) -> Tuple[int, MessageType]:
        """The ``<sender, message-type>`` tuple Cosmos predicts."""
        return (self.sender, self.mtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"t={self.time} it={self.iteration} "
            f"P{self.node}/{self.role} block=0x{self.block:x} "
            f"<P{self.sender}, {self.mtype}>"
        )


#: Per-field decoder from the flat int encoding: the role is stored as
#: its receiver bit and the message type as its value; every other field
#: is a plain int.
_DECODERS = {"role": ROLE_OF_BIT, "mtype": tuple(MessageType)}

#: ``(slot setter, decode table or None)`` per field, in field order.
#: Derived from the dataclass, so a new field cannot be skipped.
_COLUMNS = tuple(
    (getattr(TraceEvent, field.name).__set__, _DECODERS.get(field.name))
    for field in fields(TraceEvent)
)

#: Ints per event in the flat encoding.
EVENT_WIDTH = len(_COLUMNS)


def events_from_flat(rows: Sequence[int]) -> List[TraceEvent]:
    """Decode flat rows of :data:`EVENT_WIDTH` ints, in field order.

    Built column by column rather than row by row: the objects are
    allocated bare and each field is filled by mapping its slot
    descriptor over its column, which skips the keyword ``__init__``
    and the enum constructor per event.  The results are ordinary
    frozen :class:`TraceEvent` instances, equal to ones built through
    ``__init__``.
    """
    count = len(rows) // EVENT_WIDTH
    events = list(map(object.__new__, repeat(TraceEvent, count)))
    for index, (setter, table) in enumerate(_COLUMNS):
        column = rows[index : count * EVENT_WIDTH : EVENT_WIDTH]
        if table is not None:
            column = map(table.__getitem__, column)
        deque(map(setter, events, column), maxlen=0)
    return events
