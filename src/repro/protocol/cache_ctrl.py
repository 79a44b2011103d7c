"""Cache-side coherence controller.

One controller per node manages the node's cache of *remote* blocks
(blocks whose home directory is another node).  Accesses to blocks homed
at the node itself never reach this controller; Stache serves them through
the local directory (see :class:`repro.protocol.directory_ctrl.DirectoryController`).

The controller is a finite-state machine over the stable states
``invalid -> shared -> exclusive`` with a single outstanding transaction
per block tracked separately (the processor model issues one access at a
time, so at most one transaction is ever in flight per controller).

With a :class:`~repro.protocol.recovery.RecoveryConfig` installed the
controller additionally survives an unreliable network: requests carry
sequence numbers, unanswered attempts are retried with bounded
exponential backoff, responses are matched to the *current* attempt (so
duplicates and stale deliveries are discarded), and invalidations are
acknowledged idempotently from any state.  An invalidation arriving
while a transaction is outstanding also *poisons* the attempt -- any
response still in flight to the old attempt would install a copy the
directory has already revoked, so the attempt is re-issued under a fresh
sequence number instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ProtocolError
from ..obs.log import OBS
from .messages import Message, MessageType
from .recovery import RecoveryConfig, Scheduler
from .stache import DEFAULT_OPTIONS, StacheOptions
from .state import CacheState

#: Callback invoked when an access completes.
DoneCallback = Callable[[], None]

#: Callback invoked when a block is replaced (victim block address).
ReplacementCallback = Callable[[int], None]


class _Outstanding:
    """A miss transaction in flight from this cache."""

    __slots__ = ("home", "is_write", "done_cb", "seq", "retries",
                 "timeout_ns", "trace_id")

    def __init__(
        self, home: int, is_write: bool, done_cb: DoneCallback
    ) -> None:
        self.home = home
        self.is_write = is_write
        self.done_cb = done_cb
        #: Sequence number of the current attempt (recovery mode only).
        self.seq: Optional[int] = None
        #: Timeout-driven re-issues so far (poison re-issues are unbounded
        #: and tracked separately -- see ``_poison_outstanding``).
        self.retries = 0
        #: Timeout armed for the current attempt (ns).
        self.timeout_ns = 0
        #: Causal span id (:mod:`repro.obs.spans`); ``None`` with tracing
        #: off.
        self.trace_id: Optional[int] = None


class CacheController:
    """Per-node cache FSM for remote blocks."""

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
        self._states: Dict[int, CacheState] = {}
        self._outstanding: Dict[int, _Outstanding] = {}
        # Finite-capacity mode (off by default: Stache never replaces).
        self._n_sets: Optional[int] = None
        self._block_bytes = 64
        self._resident: Dict[int, int] = {}
        self._on_replacement: Optional[ReplacementCallback] = None
        #: Accept unsolicited read-only data pushed by a predictive
        #: directory (producer-initiated communication, paper Table 2).
        self.allow_pushed_data = False
        self.pushed_blocks_accepted = 0
        # Statistics
        self.hits = 0
        self.misses = 0
        self.replacements = 0
        self.pinned_evictions_skipped = 0
        #: Recovery-mode statistics (folded into ``proto.*`` metrics by
        #: the machine after a run).
        self.request_retries = 0
        self.poisoned_reissues = 0
        self.stale_responses_dropped = 0
        self.duplicate_invals_acked = 0
        self.pushes_rejected = 0
        #: Backoff armed by each timeout retry (ns); folded into the
        #: ``proto.retry.backoff_ns`` histogram by the machine.
        self.retry_backoffs_ns: list = []

    def configure_finite(
        self,
        n_sets: int,
        block_bytes: int,
        on_replacement: Optional[ReplacementCallback] = None,
    ) -> None:
        """Give the cache a finite direct-mapped capacity.

        Stache itself never replaces remote blocks (Section 5.1); this
        mode models a hardware cache instead.  Clean (shared) victims are
        dropped silently -- the directory keeps believing this node is a
        sharer and may still send it an ``inval_ro_request``, which the
        cache acknowledges from the invalid state.  Dirty (exclusive)
        victims are pinned: the Table 1 vocabulary has no writeback
        message, so they stay resident until coherence recalls them,
        slightly overcommitting the nominal capacity.
        """
        if n_sets < 1:
            raise ProtocolError("a finite cache needs at least one set")
        self._n_sets = n_sets
        self._block_bytes = block_bytes
        self._on_replacement = on_replacement

    def _set_of(self, block: int) -> int:
        assert self._n_sets is not None
        return (block // self._block_bytes) % self._n_sets

    def _allocate_slot(self, block: int) -> None:
        """Make room for ``block``, evicting a clean victim if needed."""
        if self._n_sets is None:
            return
        index = self._set_of(block)
        victim = self._resident.get(index)
        if victim is None or victim == block:
            self._resident[index] = block
            return
        if (
            self.state_of(victim) is CacheState.SHARED
            and victim not in self._outstanding
        ):
            self._set_state(victim, CacheState.INVALID)
            self.replacements += 1
            self._resident[index] = block
            if self._on_replacement is not None:
                self._on_replacement(victim)
        else:
            # Dirty or in-flight victim: pinned (see configure_finite).
            self.pinned_evictions_skipped += 1

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def state_of(self, block: int) -> CacheState:
        """Current stable state of ``block`` in this cache."""
        return self._states.get(block, CacheState.INVALID)

    def _set_state(self, block: int, new_state: CacheState) -> None:
        """Single choke point for stable-state writes (observability)."""
        if OBS.proto:
            old = self._states.get(block, CacheState.INVALID)
            if old is not new_state:
                OBS.emit_now(
                    "proto",
                    "cache-state",
                    self.node_id,
                    block,
                    {"from": old.value, "to": new_state.value},
                )
        self._states[block] = new_state

    def has_outstanding(self, block: int) -> bool:
        return block in self._outstanding

    def outstanding_blocks(self) -> list:
        """Blocks with an in-flight miss, sorted (diagnostics/oracles)."""
        return sorted(self._outstanding)

    # ------------------------------------------------------------------
    # processor side
    # ------------------------------------------------------------------

    def access(
        self, block: int, home: int, is_write: bool, done_cb: DoneCallback
    ) -> bool:
        """Issue a processor load or store.

        Returns ``True`` when the access hits in the cache (the caller is
        responsible for invoking ``done_cb`` after its hit latency);
        returns ``False`` when a coherence transaction was started, in
        which case ``done_cb`` fires when the response arrives.
        """
        if home == self.node_id:
            raise ProtocolError(
                f"block 0x{block:x} is homed at node {home}; home accesses "
                "must go through the local directory"
            )
        state = self.state_of(block)
        if state is CacheState.EXCLUSIVE or (
            state is CacheState.SHARED and not is_write
        ):
            self.hits += 1
            return True

        self.misses += 1
        if block in self._outstanding:
            raise ProtocolError(
                f"node {self.node_id} issued an access to block 0x{block:x} "
                "with a transaction already outstanding"
            )
        self._allocate_slot(block)
        txn = _Outstanding(home, is_write, done_cb)
        if OBS.spans:
            txn.trace_id = OBS.span_open(
                self.node_id, home, block, "write" if is_write else "read"
            )
        self._outstanding[block] = txn
        self._issue(block, txn)
        return False

    # ------------------------------------------------------------------
    # request issue / timeout / retry (recovery machinery)
    # ------------------------------------------------------------------

    def _request_type(self, block: int, txn: _Outstanding) -> MessageType:
        """The request matching the *current* state (retries recompute:
        an upgrade whose copy was since invalidated becomes a full write
        miss)."""
        state = self.state_of(block)
        if txn.is_write and state is CacheState.SHARED:
            return MessageType.UPGRADE_REQUEST
        if txn.is_write:
            return MessageType.GET_RW_REQUEST
        return MessageType.GET_RO_REQUEST

    def _issue(self, block: int, txn: _Outstanding) -> None:
        """Send (or re-send) the request for ``txn`` and arm its timeout."""
        seq: Optional[int] = None
        if self._recovery is not None:
            seq = self._take_seq()
            txn.seq = seq
        self._send(
            Message(
                self.node_id, txn.home, self._request_type(block, txn),
                block, None, seq, None, None, txn.trace_id,
            )
        )
        if self._recovery is not None:
            assert self._schedule is not None
            if txn.timeout_ns == 0:
                txn.timeout_ns = self._recovery.timeout_ns
            self._schedule(txn.timeout_ns, self._on_timeout, block, seq)

    def _on_timeout(self, block: int, seq: Optional[int]) -> None:
        txn = self._outstanding.get(block)
        if txn is None or txn.seq != seq:
            return  # completed, or already re-issued under a new attempt
        assert self._recovery is not None
        txn.retries += 1
        if txn.retries > self._recovery.max_retries:
            raise ProtocolError(
                f"node {self.node_id} exhausted "
                f"{self._recovery.max_retries} retries for block "
                f"0x{block:x}: livelock on the unreliable network"
            )
        self.request_retries += 1
        txn.timeout_ns = self._recovery.next_timeout(txn.timeout_ns)
        self.retry_backoffs_ns.append(txn.timeout_ns)
        if OBS.proto_or_spans:
            OBS.retry(
                self.node_id,
                block,
                txn.trace_id,
                "timeout",
                txn.retries,
                {"attempt": txn.retries, "timeout_ns": txn.timeout_ns},
            )
        self._issue(block, txn)

    def _poison_outstanding(self, block: int) -> None:
        """An invalidation revoked what an in-flight response may grant.

        Any response to the current attempt must now be discarded (the
        directory has already moved on), so the attempt is re-issued
        under a fresh sequence number.  Unlike timeout retries, poison
        re-issues are *not* bounded: each one is triggered by a delivered
        invalidation, i.e. by another node's transaction completing, so
        the system as a whole is making progress (and on a hot block
        under heavy contention they legitimately pile up).
        """
        if self._recovery is None:
            return
        txn = self._outstanding.get(block)
        if txn is not None:
            self.poisoned_reissues += 1
            if OBS.proto_or_spans:
                OBS.retry(
                    self.node_id,
                    block,
                    txn.trace_id,
                    "poison",
                    self.poisoned_reissues,
                    {"stale_seq": txn.seq},
                )
            self._issue(block, txn)

    # ------------------------------------------------------------------
    # network side
    # ------------------------------------------------------------------

    def handle_message(self, msg: Message) -> None:
        """Process a message delivered to this cache module."""
        handler = self._HANDLERS.get(msg.mtype)
        if handler is None:
            raise ProtocolError(
                f"cache at node {self.node_id} received non-cache-bound "
                f"message {msg}"
            )
        handler(self, msg)

    def _stale_response(self, msg: Message) -> bool:
        """Is this data response a duplicate or aimed at an old attempt?"""
        if self._recovery is None:
            return False
        txn = self._outstanding.get(msg.block)
        return txn is None or msg.ack_seq != txn.seq

    def _complete(self, block: int, new_state: CacheState) -> None:
        txn = self._outstanding.pop(block, None)
        if txn is None:
            raise ProtocolError(
                f"node {self.node_id} received a data response for block "
                f"0x{block:x} with no outstanding transaction"
            )
        self._set_state(block, new_state)
        if OBS.spans and txn.trace_id is not None:
            OBS.span("close", txn.trace_id, self.node_id)
        txn.done_cb()

    def _on_get_ro_response(self, msg: Message) -> None:
        txn = self._outstanding.get(msg.block)
        if txn is None and self.allow_pushed_data and msg.ack_seq is None:
            if self._recovery is not None:
                # A push can race an invalidation: the consumer may ack
                # the invalidation before the (reordered) push arrives,
                # and installing it then would resurrect a revoked copy.
                # The Table 1 vocabulary has no push ack/nack to close
                # that window, so pushes are refused under faults.
                self.pushes_rejected += 1
                return
            # Unsolicited push from a predictive directory: install the
            # copy; the next local read will hit.
            if self.state_of(msg.block) is CacheState.INVALID:
                self._allocate_slot(msg.block)
                self._set_state(msg.block, CacheState.SHARED)
                self.pushed_blocks_accepted += 1
            return
        if txn is not None and txn.is_write and self.allow_pushed_data:
            # A push raced our write miss; read-only data cannot satisfy
            # a store, so drop it and keep waiting for the rw response.
            return
        if self._stale_response(msg):
            self.stale_responses_dropped += 1
            return
        self._complete(msg.block, CacheState.SHARED)

    def _on_rw_response(self, msg: Message) -> None:
        if self._stale_response(msg):
            self.stale_responses_dropped += 1
            return
        self._complete(msg.block, CacheState.EXCLUSIVE)

    def _ack(self, msg: Message, mtype: MessageType) -> None:
        """Acknowledge ``msg`` back to its sender, echoing its seq."""
        self._send(
            Message(
                self.node_id, msg.src, mtype, msg.block, None, None, msg.seq,
                None, msg.txn,
            )
        )

    def _on_inval_ro_request(self, msg: Message) -> None:
        state = self.state_of(msg.block)
        if self._recovery is not None:
            # Idempotent: duplicates and invalidations of copies we never
            # received (lost response, silent replacement) are acked from
            # any state; invalidating is monotonically safe.
            if state is not CacheState.SHARED:
                self.duplicate_invals_acked += 1
        elif (
            state is not CacheState.SHARED
            # A finite cache may have silently replaced the copy; the
            # directory still expects (and gets) the acknowledgment.
            and not (self._n_sets is not None and state is CacheState.INVALID)
        ):
            raise ProtocolError(
                f"node {self.node_id} got inval_ro_request for block "
                f"0x{msg.block:x} in state {state}"
            )
        self._set_state(msg.block, CacheState.INVALID)
        self._ack(msg, MessageType.INVAL_RO_RESPONSE)
        self._poison_outstanding(msg.block)

    def _on_inval_rw_request(self, msg: Message) -> None:
        state = self.state_of(msg.block)
        if self._recovery is not None:
            if state is not CacheState.EXCLUSIVE:
                self.duplicate_invals_acked += 1
        elif state is not CacheState.EXCLUSIVE:
            raise ProtocolError(
                f"node {self.node_id} got inval_rw_request for block "
                f"0x{msg.block:x} in state {state}"
            )
        self._set_state(msg.block, CacheState.INVALID)
        self._ack(msg, MessageType.INVAL_RW_RESPONSE)
        self._poison_outstanding(msg.block)

    def _on_downgrade_request(self, msg: Message) -> None:
        state = self.state_of(msg.block)
        if self._recovery is not None:
            if state is not CacheState.EXCLUSIVE:
                # Duplicate (already demoted) or stale (since
                # invalidated): ack without touching state -- promoting
                # an INVALID block to SHARED here could resurrect a copy
                # the directory no longer tracks.
                self.duplicate_invals_acked += 1
                self._ack(msg, MessageType.DOWNGRADE_RESPONSE)
                self._poison_outstanding(msg.block)
                return
        elif state is not CacheState.EXCLUSIVE:
            raise ProtocolError(
                f"node {self.node_id} got downgrade_request for block "
                f"0x{msg.block:x} in state {state}"
            )
        self._set_state(msg.block, CacheState.SHARED)
        self._ack(msg, MessageType.DOWNGRADE_RESPONSE)
        self._poison_outstanding(msg.block)

    def _respond_forwarded(
        self, msg: Message, reply: MessageType
    ) -> None:
        """Answer the requester of a forwarded miss, then close the
        transaction at the directory with a revision notice."""
        if msg.requester is None:
            raise ProtocolError("forwarded request carries no requester")
        self._send(
            Message(
                self.node_id, msg.requester, reply, msg.block, None, None,
                msg.requester_seq, None, msg.txn,
            )
        )
        self._send(
            Message(
                self.node_id, msg.src, MessageType.REVISION, msg.block,
                None, None, msg.seq, None, msg.txn,
            )
        )

    def _on_fwd_get_ro_request(self, msg: Message) -> None:
        # Origin forwarding: answer the requester directly, keep a shared
        # copy, and close the transaction at the directory.
        state = self.state_of(msg.block)
        if self._recovery is not None:
            # A duplicate forward finds the copy already demoted; re-send
            # both the response and the revision (the originals may be the
            # very messages the network lost).
            if state is CacheState.EXCLUSIVE:
                self._set_state(msg.block, CacheState.SHARED)
            else:
                self.duplicate_invals_acked += 1
            self._respond_forwarded(msg, MessageType.GET_RO_RESPONSE)
            self._poison_outstanding(msg.block)
            return
        if state is not CacheState.EXCLUSIVE:
            raise ProtocolError(
                f"node {self.node_id} got fwd_get_ro_request for block "
                f"0x{msg.block:x} in state {state}"
            )
        self._set_state(msg.block, CacheState.SHARED)
        self._respond_forwarded(msg, MessageType.GET_RO_RESPONSE)

    def _on_fwd_get_rw_request(self, msg: Message) -> None:
        state = self.state_of(msg.block)
        if self._recovery is not None:
            if state is not CacheState.EXCLUSIVE:
                self.duplicate_invals_acked += 1
            self._set_state(msg.block, CacheState.INVALID)
            self._respond_forwarded(msg, MessageType.GET_RW_RESPONSE)
            self._poison_outstanding(msg.block)
            return
        if state is not CacheState.EXCLUSIVE:
            raise ProtocolError(
                f"node {self.node_id} got fwd_get_rw_request for block "
                f"0x{msg.block:x} in state {state}"
            )
        self._set_state(msg.block, CacheState.INVALID)
        self._respond_forwarded(msg, MessageType.GET_RW_RESPONSE)

    _HANDLERS = {
        MessageType.GET_RO_RESPONSE: _on_get_ro_response,
        MessageType.GET_RW_RESPONSE: _on_rw_response,
        MessageType.UPGRADE_RESPONSE: _on_rw_response,
        MessageType.INVAL_RO_REQUEST: _on_inval_ro_request,
        MessageType.INVAL_RW_REQUEST: _on_inval_rw_request,
        MessageType.DOWNGRADE_REQUEST: _on_downgrade_request,
        MessageType.FWD_GET_RO_REQUEST: _on_fwd_get_ro_request,
        MessageType.FWD_GET_RW_REQUEST: _on_fwd_get_rw_request,
    }
