"""SGI-Origin-style three-hop request forwarding.

The paper's Section 2.1 notes that Origin serves a miss to a remotely
owned block in three messages rather than Stache's four: the directory
*forwards* the request to the owner, which answers the requester directly
and sends a revision notice back to the directory.  The paper asserts
this difference "should have no first-order effect on coherence
prediction's usability" -- a claim this module makes testable
(``repro.experiments.protocols`` runs Cosmos over both protocols).

Differences from the base controller, for misses whose block is owned by
a *remote* cache:

* read miss: directory sends ``fwd_get_ro_request`` to the owner; the
  owner demotes its copy to shared, sends ``get_ro_response`` straight to
  the requester and a ``revision`` to the directory (which then records
  both nodes as sharers).  Note the owner keeps a shared copy -- Origin
  has no half-migratory invalidation on this path.
* write miss: directory sends ``fwd_get_rw_request``; the owner
  invalidates its copy, sends ``get_rw_response`` to the requester and a
  ``revision`` to the directory (which records the new owner).

All other transitions (idle/shared reads, invalidation fan-out for
writes to shared blocks, upgrades, home-local accesses) behave exactly
like the base directory.  Invalidation acknowledgments still return to
the directory rather than the requester -- a simplification relative to
real Origin that keeps ack collection in one place and does not affect
the per-block message orders Cosmos observes.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from ..errors import ProtocolError
from .directory_ctrl import DirectoryController, _Request, _Txn
from .messages import Message, MessageType
from .recovery import RecoveryConfig, Scheduler
from .stache import DEFAULT_OPTIONS, StacheOptions
from .state import DirEntry


class OriginDirectoryController(DirectoryController):
    """Directory that forwards owner misses instead of recalling data."""

    def __init__(
        self,
        node_id: int,
        send: Callable[[Message], None],
        options: StacheOptions = DEFAULT_OPTIONS,
        *,
        recovery: Optional[RecoveryConfig] = None,
        schedule: Optional[Scheduler] = None,
    ) -> None:
        super().__init__(
            node_id, send, options, recovery=recovery, schedule=schedule
        )
        self.forwards = 0

    def handle_message(self, msg: Message) -> None:
        if msg.mtype is MessageType.REVISION:
            self._on_ack(msg)
            return
        super().handle_message(msg)

    def _forward(
        self,
        block: int,
        entry: DirEntry,
        request: _Request,
        fwd_type: MessageType,
        final_owner,
        final_sharers: Set[int],
    ) -> _Txn:
        assert entry.owner is not None and entry.owner != self.node_id
        self.forwards += 1
        seq: Optional[int] = None
        if self._recovery is not None:
            seq = self._take_seq()
        msg = Message(
            src=self.node_id,
            dst=entry.owner,
            mtype=fwd_type,
            block=block,
            requester=request.requester,
            seq=seq,
            # The owner answers the requester directly; it needs the
            # requester's own attempt seq to stamp that response with.
            requester_seq=request.req_seq,
            txn=request.txn,
        )
        self._send(msg)
        txn = _Txn(
            request=request,
            pending_acks={entry.owner},
            final_owner=final_owner,
            final_sharers=final_sharers,
            reply_type=None,  # the owner answers the requester directly
        )
        if seq is not None:
            txn.expect(entry.owner, msg)
        return txn

    def _start_read(self, block: int, entry: DirEntry, request: _Request) -> _Txn:
        if (
            entry.owner is not None
            and entry.owner != self.node_id
            and not request.is_local
        ):
            return self._forward(
                block,
                entry,
                request,
                MessageType.FWD_GET_RO_REQUEST,
                final_owner=None,
                final_sharers={entry.owner, request.requester},
            )
        return super()._start_read(block, entry, request)

    def _start_write(self, block: int, entry: DirEntry, request: _Request) -> _Txn:
        if (
            entry.owner is not None
            and entry.owner != self.node_id
            and not entry.sharers
            and not request.is_local
        ):
            return self._forward(
                block,
                entry,
                request,
                MessageType.FWD_GET_RW_REQUEST,
                final_owner=request.requester,
                final_sharers=set(),
            )
        return super()._start_write(block, entry, request)
