"""Coherence message vocabulary (paper Table 1, plus the downgrade pair).

The paper's Table 1 lists the messages of a full-map, write-invalidate
directory protocol.  Requests flow from caches to the directory; responses
and invalidation requests flow from the directory to caches.  Figure 8 of
the paper additionally uses a ``downgrade_request`` / ``downgrade_response``
pair (directory asks a cache to demote an exclusive block to shared), which
Stache's half-migratory optimization normally replaces with a full
invalidation; we implement both so the optimization can be toggled.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from ..records import Record

_tuple_new = tuple.__new__


class Role(enum.Enum):
    """Which module of a node a predictor (or a message) is attached to."""

    CACHE = "cache"
    DIRECTORY = "directory"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class MessageType(enum.IntEnum):
    """All coherence message types exchanged by the Stache-style protocol.

    The integer values are stable and compact (4 bits suffice), matching the
    paper's assumption of a 4-bit message-type field in a Cosmos tuple
    (Table 7 footnote).
    """

    # cache -> directory (received by a directory)
    GET_RO_REQUEST = 0
    GET_RW_REQUEST = 1
    UPGRADE_REQUEST = 2
    INVAL_RO_RESPONSE = 3
    INVAL_RW_RESPONSE = 4
    DOWNGRADE_RESPONSE = 5

    # directory -> cache (received by a cache)
    GET_RO_RESPONSE = 6
    GET_RW_RESPONSE = 7
    UPGRADE_RESPONSE = 8
    INVAL_RO_REQUEST = 9
    INVAL_RW_REQUEST = 10
    DOWNGRADE_REQUEST = 11

    # Origin-style three-hop forwarding extension (repro.protocol.origin):
    # the directory forwards a miss to the current owner, which responds
    # directly to the requester and sends a revision to the directory.
    FWD_GET_RO_REQUEST = 12  # directory -> owner cache
    FWD_GET_RW_REQUEST = 13  # directory -> owner cache
    REVISION = 14            # owner cache -> directory

    def __str__(self) -> str:
        return self.name.lower()


#: Human-readable descriptions, reproducing the paper's Table 1.
MESSAGE_DESCRIPTIONS = {
    MessageType.GET_RO_REQUEST: "get block in read-only (shared) state",
    MessageType.GET_RW_REQUEST: "get block in read-write (exclusive) state",
    MessageType.UPGRADE_REQUEST: "upgrade block from read-only to read-write",
    MessageType.INVAL_RO_RESPONSE: "response to inval_ro_request",
    MessageType.INVAL_RW_RESPONSE: "response to inval_rw_request",
    MessageType.DOWNGRADE_RESPONSE: "response to downgrade_request",
    MessageType.GET_RO_RESPONSE: "response to get_ro_request",
    MessageType.GET_RW_RESPONSE: "response to get_rw_request",
    MessageType.UPGRADE_RESPONSE: "response to upgrade_request",
    MessageType.INVAL_RO_REQUEST: "invalidate read-only (shared) copy of block",
    MessageType.INVAL_RW_REQUEST: (
        "invalidate read-write (exclusive) copy and return block"
    ),
    MessageType.DOWNGRADE_REQUEST: (
        "demote read-write (exclusive) copy of block to read-only"
    ),
    MessageType.FWD_GET_RO_REQUEST: (
        "forwarded read miss: send the block read-only to the requester"
    ),
    MessageType.FWD_GET_RW_REQUEST: (
        "forwarded write miss: send the block read-write to the requester"
    ),
    MessageType.REVISION: (
        "owner's revision notice closing a forwarded transaction"
    ),
}

#: Message types received by a directory module.
DIRECTORY_BOUND = frozenset(
    {
        MessageType.GET_RO_REQUEST,
        MessageType.GET_RW_REQUEST,
        MessageType.UPGRADE_REQUEST,
        MessageType.INVAL_RO_RESPONSE,
        MessageType.INVAL_RW_RESPONSE,
        MessageType.DOWNGRADE_RESPONSE,
        MessageType.REVISION,
    }
)

#: Message types received by a cache module.
CACHE_BOUND = frozenset(
    {
        MessageType.GET_RO_RESPONSE,
        MessageType.GET_RW_RESPONSE,
        MessageType.UPGRADE_RESPONSE,
        MessageType.INVAL_RO_REQUEST,
        MessageType.INVAL_RW_REQUEST,
        MessageType.DOWNGRADE_REQUEST,
        MessageType.FWD_GET_RO_REQUEST,
        MessageType.FWD_GET_RW_REQUEST,
    }
)

#: The message types of the paper's Table 1 (plus the downgrade pair);
#: the forwarding extension's types are excluded.
TABLE1_TYPES = frozenset(MessageType) - {
    MessageType.FWD_GET_RO_REQUEST,
    MessageType.FWD_GET_RW_REQUEST,
    MessageType.REVISION,
}


#: The receiving module of each message type as a bit, indexed by the
#: type's value: 1 for a directory, 0 for a cache.  The simulator's
#: delivery path routes on it and the trace collector stores it as is.
#: A tuple lookup needs the values to be dense from 0, which they are.
RECEIVER_BIT = tuple(
    1 if mtype in DIRECTORY_BOUND else 0 for mtype in MessageType
)

#: The module a receiver bit names: ``ROLE_OF_BIT[RECEIVER_BIT[t]]``.
ROLE_OF_BIT = (Role.CACHE, Role.DIRECTORY)


def receiver_role(mtype: MessageType) -> Role:
    """Return which module (cache or directory) receives messages of ``mtype``."""
    return ROLE_OF_BIT[RECEIVER_BIT[mtype]]


class _MessageFields(NamedTuple):
    src: int
    dst: int
    mtype: MessageType
    block: int
    requester: Optional[int] = None
    seq: Optional[int] = None
    ack_seq: Optional[int] = None
    requester_seq: Optional[int] = None
    txn: Optional[int] = None


class Message(_MessageFields, Record):
    """One coherence message in flight.

    An immutable tuple of its fields (a :class:`~repro.records.Record`),
    so building one costs a single call.  Every way of making one --
    calling the class, :meth:`_make`, :meth:`_replace`, unpickling --
    runs the node-id check.  Hot call sites pass the fields
    positionally, in the order below.

    Attributes:
        src: sending node id.
        dst: receiving node id.
        mtype: the coherence message type.
        block: block-aligned byte address the message refers to.
        requester: for forwarded requests, the node the owner must
            answer directly (``None`` for ordinary messages).
        seq: sender-assigned sequence number of this message (stamped by
            controllers running in recovery mode; ``None`` on a reliable
            network, where delivery order makes numbering redundant).
        ack_seq: the ``seq`` of the request this message answers, echoed
            so the receiver can match a response/acknowledgment to its
            current attempt and discard duplicates or stale deliveries.
        requester_seq: for forwarded requests, the ``seq`` of the
            requester's original request, so the owner's direct response
            carries the right ``ack_seq``.
        txn: causal transaction id (see :mod:`repro.obs.spans`): the id
            assigned at the module whose access this message ultimately
            serves, propagated through every hop -- requests, collection
            rounds, Origin forwards, revisions, responses, and retries
            all carry the same id.  ``None`` whenever span tracing is
            off (the default).
    """

    __slots__ = ()

    def __new__(
        cls,
        src: int,
        dst: int,
        mtype: MessageType,
        block: int,
        requester: Optional[int] = None,
        seq: Optional[int] = None,
        ack_seq: Optional[int] = None,
        requester_seq: Optional[int] = None,
        txn: Optional[int] = None,
    ) -> "Message":
        if src < 0 or dst < 0:
            raise ValueError("node ids must be non-negative")
        return _tuple_new(
            cls,
            (src, dst, mtype, block, requester, seq, ack_seq,
             requester_seq, txn),
        )

    # ``_replace`` builds its result with ``_make``, so this covers it.
    @classmethod
    def _make(cls, iterable) -> "Message":
        return cls(*iterable)

    @property
    def role_at_receiver(self) -> Role:
        """The module at the destination node that handles this message."""
        return receiver_role(self.mtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mtype} block=0x{self.block:x} "
            f"P{self.src} -> P{self.dst}"
        )


def format_table1(include_extensions: bool = False) -> str:
    """Render the paper's Table 1 as an aligned text table.

    With ``include_extensions`` the Origin-forwarding message types are
    listed in a third section; by default only the paper's vocabulary is
    shown.
    """
    shown = frozenset(MessageType) if include_extensions else TABLE1_TYPES
    lines = ["%-22s %s" % ("Message", "Description"), "-" * 72]
    lines.append("-- received by a directory (cache -> directory) --")
    for mtype in sorted(DIRECTORY_BOUND & shown):
        lines.append("%-22s %s" % (mtype, MESSAGE_DESCRIPTIONS[mtype]))
    lines.append("-- received by a cache (directory -> cache) --")
    for mtype in sorted(CACHE_BOUND & shown):
        lines.append("%-22s %s" % (mtype, MESSAGE_DESCRIPTIONS[mtype]))
    if include_extensions:
        lines.append("-- three-hop forwarding extension (not in the paper) --")
        for mtype in sorted(frozenset(MessageType) - TABLE1_TYPES):
            lines.append("%-22s %s" % (mtype, MESSAGE_DESCRIPTIONS[mtype]))
    return "\n".join(lines)


def parse_message_type(name: str) -> MessageType:
    """Parse a message type from its lowercase name (as printed by ``str``)."""
    try:
        return MessageType[name.upper()]
    except KeyError:
        raise ValueError(f"unknown message type: {name!r}") from None
