"""Directory-side coherence controller.

One controller per node serves the directory entries of all pages homed at
that node.  It also plays Stache's "home pages double as local cache pages"
role: loads and stores issued by the home node itself are served through
:meth:`DirectoryController.local_access` with no request/response messages,
though any invalidations they require of *remote* caches are real messages.

Transactions on the same block are serialized: while one transaction is
collecting invalidation acknowledgments, later requests for the block are
queued.  This matches a blocking home directory and keeps every message in
the paper's Table 1 vocabulary.

With a :class:`~repro.protocol.recovery.RecoveryConfig` installed the
directory additionally survives an unreliable network:

* requests arrive at least once, so a request the directory has already
  served (the requester retried because the response was lost) is
  answered again idempotently instead of tripping an invariant check;
* invalidation/downgrade rounds carry sequence numbers, acknowledgments
  echo them, and the round is re-sent to unresponsive nodes on a
  bounded-exponential-backoff timer -- a stale or duplicated ack can
  never satisfy a newer transaction's collection.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Callable, Deque, Dict, Optional, Set

from ..errors import ProtocolError
from ..obs.log import OBS
from ..obs.spans import SPANS
from .messages import Message, MessageType
from .recovery import RecoveryConfig, Scheduler
from .stache import DEFAULT_OPTIONS, StacheOptions
from .state import DirEntry, DirState

DoneCallback = Callable[[], None]

#: Request types a directory accepts.
_REQUEST_TYPES = frozenset(
    {
        MessageType.GET_RO_REQUEST,
        MessageType.GET_RW_REQUEST,
        MessageType.UPGRADE_REQUEST,
    }
)

#: Acknowledgment types that retire pending invalidations/downgrades.
_ACK_TYPES = frozenset(
    {
        MessageType.INVAL_RO_RESPONSE,
        MessageType.INVAL_RW_RESPONSE,
        MessageType.DOWNGRADE_RESPONSE,
    }
)


class _Request:
    """A directory request waiting to be processed (remote or home-local)."""

    __slots__ = (
        "requester", "is_write", "was_upgrade", "done_cb", "req_seq", "txn"
    )

    def __init__(
        self,
        requester: int,
        is_write: bool,
        was_upgrade: bool,
        done_cb: Optional[DoneCallback],
        req_seq: Optional[int] = None,
        txn: Optional[int] = None,
    ) -> None:
        self.requester = requester
        self.is_write = is_write
        self.was_upgrade = was_upgrade
        #: Set only for home-local accesses.
        self.done_cb = done_cb
        #: Sequence number of the requester's message (recovery mode),
        #: echoed in the response so the requester can match it to its
        #: attempt.
        self.req_seq = req_seq
        #: Causal span id carried by the request (:mod:`repro.obs.spans`);
        #: every message this transaction sends propagates it.
        self.txn = txn

    @property
    def is_local(self) -> bool:
        return self.done_cb is not None


#: ``_Txn.pending_msg`` until a recovery-mode round is sent: on a
#: reliable network no transaction allocates the bookkeeping.
_NO_ROUNDS = MappingProxyType({})


class _Txn:
    """An in-flight transaction collecting acknowledgments."""

    __slots__ = (
        "request", "pending_acks", "final_owner", "final_sharers",
        "reply_type", "pending_msg", "retries", "timeout_ns", "timer_token",
    )

    def __init__(
        self,
        request: _Request,
        pending_acks: Set[int],
        final_owner: Optional[int],
        final_sharers: Set[int],
        reply_type: Optional[MessageType],
    ) -> None:
        self.request = request
        self.pending_acks = pending_acks
        self.final_owner = final_owner
        self.final_sharers = final_sharers
        self.reply_type = reply_type
        #: Recovery bookkeeping: per pending node, the last round message
        #: sent to it -- its ack must echo that message's ``seq``, and a
        #: timeout re-sends it.  Filled by :meth:`expect`.
        self.pending_msg = _NO_ROUNDS
        self.retries = 0
        self.timeout_ns = 0
        #: Increments at every timeout arming; stale timer callbacks no-op.
        self.timer_token = 0

    def expect(self, dst: int, msg: Message) -> None:
        """Record ``msg`` as the round message ``dst`` must acknowledge
        (recovery mode)."""
        if self.pending_msg is _NO_ROUNDS:
            self.pending_msg = {}
        self.pending_msg[dst] = msg


class DirectoryController:
    """Full-map directory FSM for blocks homed at one node."""

    def __init__(
        self,
        node_id: int,
        send: Callable[[Message], None],
        options: StacheOptions = DEFAULT_OPTIONS,
        *,
        recovery: Optional[RecoveryConfig] = None,
        schedule: Optional[Scheduler] = None,
    ) -> None:
        if recovery is not None and schedule is None:
            raise ProtocolError(
                "recovery mode needs an engine scheduler for timeouts"
            )
        self.node_id = node_id
        self._send = send
        self._options = options
        self._recovery = recovery
        self._schedule = schedule
        self._next_seq = 1
        self._entries: Dict[int, DirEntry] = {}
        self._active: Dict[int, _Txn] = {}
        self._queues: Dict[int, Deque[_Request]] = {}
        # Statistics
        self.transactions = 0
        self.local_hits = 0
        self.invalidations_sent = 0
        #: Recovery-mode statistics (folded into ``proto.*`` metrics by
        #: the machine after a run).
        self.inval_retries = 0
        self.stale_acks_dropped = 0
        self.duplicate_requests_regranted = 0
        self.duplicate_requests_merged = 0
        #: Backoff armed by each collection-round retry (ns); folded into
        #: the ``proto.retry.backoff_ns`` histogram by the machine.
        self.retry_backoffs_ns: list = []

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def entry_of(self, block: int) -> DirEntry:
        """The directory entry for ``block`` (created on first use)."""
        entry = self._entries.get(block)
        if entry is None:
            entry = DirEntry()
            self._entries[block] = entry
        return entry

    def is_busy(self, block: int) -> bool:
        return block in self._active

    def active_blocks(self) -> list:
        """Blocks with an in-flight transaction, sorted."""
        return sorted(self._active)

    def queued_blocks(self) -> list:
        """Blocks with requests waiting behind a transaction, sorted."""
        return sorted(self._queues)

    def pending_grant(self, block: int):
        """``(final_owner, final_sharers)`` of the in-flight transaction
        for ``block``, or ``None`` when the block is quiescent.

        Used by the machine-level invariant checker: a forwarding owner
        answers the requester *before* the revision notice updates the
        entry, so a copy can legally exist that only the active
        transaction's final state explains.
        """
        txn = self._active.get(block)
        if txn is None:
            return None
        return txn.final_owner, txn.final_sharers

    # ------------------------------------------------------------------
    # home-node processor side
    # ------------------------------------------------------------------

    def local_hit(self, block: int, is_write: bool) -> bool:
        """Would a home-node access to ``block`` complete without coherence?"""
        if self.is_busy(block):
            return False
        entry = self.entry_of(block)
        if entry.owner == self.node_id:
            return True
        return not is_write and self.node_id in entry.sharers

    def local_access(
        self, block: int, is_write: bool, done_cb: DoneCallback
    ) -> bool:
        """Issue a home-node load or store against a locally-homed block.

        Returns ``True`` for an immediate hit (caller applies its hit
        latency and invokes ``done_cb`` itself); ``False`` when coherence
        work was required, in which case ``done_cb`` fires on completion.
        """
        if self.local_hit(block, is_write):
            self.local_hits += 1
            return True
        request = _Request(self.node_id, is_write, False, done_cb)
        if SPANS.enabled:
            request.txn = SPANS.open(
                self.node_id,
                self.node_id,
                block,
                "write" if is_write else "read",
            )
        self._admit(block, request)
        return False

    # ------------------------------------------------------------------
    # network side
    # ------------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        """Process a message delivered to this directory module."""
        if msg.mtype in _REQUEST_TYPES:
            mtype = msg.mtype
            request = _Request(
                msg.src,
                mtype is not MessageType.GET_RO_REQUEST,
                mtype is MessageType.UPGRADE_REQUEST,
                None,
                msg.seq,
                msg.txn,
            )
            self._admit(msg.block, request)
        elif msg.mtype in _ACK_TYPES:
            self._on_ack(msg)
        else:
            raise ProtocolError(
                f"directory at node {self.node_id} received non-directory "
                f"message {msg}"
            )

    # ------------------------------------------------------------------
    # transaction machinery
    # ------------------------------------------------------------------

    def _admit(self, block: int, request: _Request) -> None:
        if SPANS.enabled and request.txn is not None:
            SPANS.admit(request.txn, self.node_id)
        if self.is_busy(block):
            if self._merge_duplicate(block, request):
                return
            self._queues.setdefault(block, deque()).append(request)
            return
        self._start(block, request)

    def _merge_duplicate(self, block: int, request: _Request) -> bool:
        """Fold an at-least-once duplicate into its earlier admission.

        A remote node has at most one access in flight per block, so a
        second request from the same node is always a retry of the one
        already queued (or being served): refresh that entry's sequence
        number so the eventual response answers the *newest* attempt,
        instead of appending.  Appending would let a contended block
        build a backlog of stale requests -- each served backlog entry
        draws an invalidation race that re-poisons the requester and
        enqueues yet another retry, a self-sustaining message storm that
        never drains (the original livelock this layer exists to kill).
        """
        if self._recovery is None or request.is_local:
            return False
        active = self._active.get(block)
        if (
            active is not None
            and not active.request.is_local
            and active.request.requester == request.requester
        ):
            active.request.req_seq = request.req_seq
            active.request.was_upgrade = request.was_upgrade
            self.duplicate_requests_merged += 1
            return True
        for queued in self._queues.get(block, ()):
            if not queued.is_local and queued.requester == request.requester:
                queued.req_seq = request.req_seq
                queued.was_upgrade = request.was_upgrade
                self.duplicate_requests_merged += 1
                return True
        return False

    def _start(self, block: int, request: _Request) -> None:
        if SPANS.enabled and request.txn is not None:
            SPANS.start(request.txn, self.node_id)
        self.transactions += 1
        entry = self.entry_of(block)
        entry.check_invariants()

        if self._recovery is not None:
            txn = self._regrant(block, entry, request)
            if txn is None:
                if request.is_write:
                    txn = self._start_write(block, entry, request)
                else:
                    txn = self._start_read(block, entry, request)
        elif request.is_write:
            txn = self._start_write(block, entry, request)
        else:
            txn = self._start_read(block, entry, request)

        if txn.pending_acks:
            self._active[block] = txn
            self._arm_timeout(block, txn)
        else:
            self._finish(block, txn)

    def _regrant(
        self, block: int, entry: DirEntry, request: _Request
    ) -> Optional[_Txn]:
        """Serve a request the directory has (as far as it knows) already
        served: the requester retried because a response or its own
        request got lost, or the network duplicated the request.  The
        entry is left untouched and the response re-sent.
        """
        requester = request.requester
        if request.is_local:
            return None
        if entry.owner == requester:
            # Already granted exclusive (a lost/raced rw or upgrade
            # response); any request kind collapses to "send it again".
            reply = MessageType.GET_RW_RESPONSE
        elif not request.is_write and requester in entry.sharers:
            reply = MessageType.GET_RO_RESPONSE
        else:
            return None
        self.duplicate_requests_regranted += 1
        return _Txn(request, set(), entry.owner, set(entry.sharers), reply)

    def _send_round(
        self, txn: _Txn, dst: int, mtype: MessageType, block: int
    ) -> None:
        """Send one invalidation/downgrade of a collection round, with
        recovery bookkeeping when enabled."""
        seq: Optional[int] = None
        if self._recovery is not None:
            seq = self._take_seq()
        msg = Message(
            self.node_id, dst, mtype, block, None, seq, None, None,
            txn.request.txn,
        )
        self._send(msg)
        self.invalidations_sent += 1
        txn.pending_acks.add(dst)
        if seq is not None:
            txn.expect(dst, msg)

    def _start_read(
        self, block: int, entry: DirEntry, request: _Request
    ) -> _Txn:
        requester = request.requester
        if entry.owner == requester:
            raise ProtocolError(
                f"read request for block 0x{block:x} from P{requester}, "
                "which already owns it"
            )
        if (
            requester in entry.sharers
            and not self._options.finite_caches
            and self._recovery is None
        ):
            raise ProtocolError(
                f"read request for block 0x{block:x} from P{requester}, "
                "which already holds a copy"
            )
        # With finite caches, a listed sharer may have silently replaced
        # its copy; re-granting it is harmless.
        txn = _Txn(
            request,
            set(),
            None,
            set(),
            None if request.is_local else MessageType.GET_RO_RESPONSE,
        )
        if entry.owner is not None:
            owner = entry.owner
            if self._options.half_migratory:
                # Ask the owner to give up its copy entirely.
                txn.final_sharers = {requester}
                request_type = MessageType.INVAL_RW_REQUEST
            else:
                # DASH-style: demote the owner to shared.
                txn.final_sharers = {owner, requester}
                request_type = MessageType.DOWNGRADE_REQUEST
            if owner == self.node_id:
                # Home's own copy: adjusted silently, no message.
                pass
            else:
                self._send_round(txn, owner, request_type, block)
        else:
            txn.final_sharers = set(entry.sharers)
            txn.final_sharers.add(requester)
        return txn

    def _start_write(
        self, block: int, entry: DirEntry, request: _Request
    ) -> _Txn:
        requester = request.requester
        if entry.owner == requester:
            raise ProtocolError(
                f"write request for block 0x{block:x} from P{requester}, "
                "which already owns it"
            )
        requester_was_sharer = requester in entry.sharers
        if request.is_local:
            reply = None
        elif request.was_upgrade and requester_was_sharer:
            reply = MessageType.UPGRADE_RESPONSE
        else:
            # An upgrade whose requester lost its copy in the meantime is
            # served as a full read-write miss.
            reply = MessageType.GET_RW_RESPONSE
        txn = _Txn(request, set(), requester, set(), reply)
        # Ascending node order: a set's iteration order depends on its
        # insertion history, which a checkpoint cannot reproduce, so the
        # fan-out must depend on the sharers alone.
        for sharer in sorted(entry.sharers):
            if sharer == requester:
                continue
            if sharer == self.node_id:
                continue  # home's copy adjusted silently
            self._send_round(txn, sharer, MessageType.INVAL_RO_REQUEST, block)
        if entry.owner is not None and entry.owner != self.node_id:
            self._send_round(
                txn, entry.owner, MessageType.INVAL_RW_REQUEST, block
            )
        return txn

    # ------------------------------------------------------------------
    # timeout / retry (recovery machinery)
    # ------------------------------------------------------------------

    def _arm_timeout(self, block: int, txn: _Txn) -> None:
        if self._recovery is None:
            return
        assert self._schedule is not None
        if txn.timeout_ns == 0:
            txn.timeout_ns = self._recovery.timeout_ns
        txn.timer_token += 1
        self._schedule(
            txn.timeout_ns, self._on_txn_timeout, block, txn.timer_token
        )

    def _on_txn_timeout(self, block: int, token: int) -> None:
        txn = self._active.get(block)
        if txn is None or txn.timer_token != token or not txn.pending_acks:
            return  # finished, or re-armed by a later retry
        assert self._recovery is not None
        txn.retries += 1
        if txn.retries > self._recovery.max_retries:
            raise ProtocolError(
                f"directory at node {self.node_id} exhausted "
                f"{self._recovery.max_retries} invalidation retries for "
                f"block 0x{block:x}: livelock on the unreliable network"
            )
        if SPANS.enabled and txn.request.txn is not None:
            SPANS.retry(txn.request.txn, self.node_id, "inval", txn.retries)
        for dst in sorted(txn.pending_acks):
            msg = txn.pending_msg[dst]._replace(seq=self._take_seq())
            txn.pending_msg[dst] = msg
            self._send(msg)
            self.inval_retries += 1
            if OBS.proto:
                OBS.emit_now(
                    "proto",
                    "inval-retry",
                    self.node_id,
                    block,
                    {"dst": dst, "attempt": txn.retries},
                )
        txn.timeout_ns = self._recovery.next_timeout(txn.timeout_ns)
        self.retry_backoffs_ns.append(txn.timeout_ns)
        self._arm_timeout(block, txn)

    # ------------------------------------------------------------------
    # acknowledgment collection
    # ------------------------------------------------------------------

    def _on_ack(self, msg: Message) -> None:
        txn = self._active.get(msg.block)
        if self._recovery is not None:
            # At-least-once delivery makes duplicate and stale acks
            # ordinary events; only an ack echoing the seq of the latest
            # round sent to that node retires its pending entry.
            if (
                txn is None
                or msg.src not in txn.pending_acks
                or msg.ack_seq != txn.pending_msg[msg.src].seq
            ):
                self.stale_acks_dropped += 1
                return
            del txn.pending_msg[msg.src]
        else:
            if txn is None:
                raise ProtocolError(
                    f"directory at node {self.node_id} received unexpected "
                    f"ack {msg}"
                )
            if msg.src not in txn.pending_acks:
                raise ProtocolError(
                    f"directory at node {self.node_id} received duplicate "
                    f"or stray ack {msg}"
                )
        txn.pending_acks.discard(msg.src)
        if not txn.pending_acks:
            del self._active[msg.block]
            self._finish(msg.block, txn)

    def _finish(self, block: int, txn: _Txn) -> None:
        entry = self.entry_of(block)
        if OBS.proto:
            old_state = entry.state
            new_state = (
                DirState.EXCLUSIVE
                if txn.final_owner is not None
                else DirState.SHARED if txn.final_sharers else DirState.IDLE
            )
            if old_state is not new_state:
                OBS.emit_now(
                    "proto",
                    "dir-state",
                    self.node_id,
                    block,
                    {"from": old_state.value, "to": new_state.value},
                )
        entry.owner = txn.final_owner
        entry.sharers = txn.final_sharers
        entry.check_invariants()
        if SPANS.enabled and txn.request.txn is not None:
            SPANS.finish(txn.request.txn, self.node_id)
        if txn.request.is_local:
            if SPANS.enabled and txn.request.txn is not None:
                SPANS.close(txn.request.txn, self.node_id)
            assert txn.request.done_cb is not None
            txn.request.done_cb()
        elif txn.reply_type is not None:
            request = txn.request
            self._send(
                Message(
                    self.node_id, request.requester, txn.reply_type, block,
                    None, None, request.req_seq, None, request.txn,
                )
            )
        # reply_type None on a remote request means another module (a
        # forwarding owner) already answered the requester directly.
        queue = self._queues.get(block)
        if queue:
            next_request = queue.popleft()
            if not queue:
                del self._queues[block]
            self._start(block, next_request)
