"""Guarded-action model of the Stache/Origin coherence protocol.

This module re-expresses the protocol implemented by
:mod:`repro.protocol.cache_ctrl`, :mod:`repro.protocol.directory_ctrl`
and :mod:`repro.protocol.origin` as a transition relation over hashable
frozen tuples, small enough to enumerate exhaustively
(:mod:`repro.mc.explorer`).  Every transition is a ``(guard, action)``
pair: :meth:`Model.actions` lists the labels whose guards hold in a
state, :meth:`Model.step` applies one label.

The model mirrors the controllers in *recovery mode*: the machine arms
recovery for every exploring (adversarial) or faulty network, which is
exactly the substrate the cross-validation battery drives, so the model
always includes idempotent acks, re-grants, duplicate-request merging,
poison re-issue, and timeout retries.  Retry actions are always enabled
-- even a fault-free run can time out while queued behind a serialized
transaction -- while drop/dup fault actions are gated by
:attr:`MCConfig.faults`.

Two abstractions make the state space finite:

* **1-bit staleness.**  The controllers match responses and acks to
  attempts by exact sequence number.  At most one attempt per
  ``(node, block)`` is ever *current*, so the quotient is exact: every
  in-flight message carries a ``stale`` bit (plus ``rstale`` for the
  requester-side seq a forwarded request carries), and each event that
  invalidates matching -- re-issue, poison, completion, round retry, ack
  acceptance -- flips the bit on the messages it strands.
* **Counter abstraction.**  The network is a multiset of message tuples
  with per-message multiplicity counted up to :attr:`MCConfig.dup_cap`;
  the cap means "at least this many", and delivering (or dropping) at
  the cap branches into both successor multiplicities.  This is needed
  even fault-free: repeated poison re-issues pile up identical stale
  requests without bound.  Two refinements keep the multiset small:
  *inert* stale messages -- responses and acks the receiver provably
  drops on sight -- are garbage-collected instead of enqueued (except
  under the mutations that make them meaningful), and stale messages
  saturate at multiplicity one ("at least one"), which is exact because
  every effect of a stale message is idempotent.

State layout (all plain ints and tuples, hashable)::

    state    = (caches, txns, dirs, net)
    caches   = tuple[node][block] of INVALID/SHARED/EXCLUSIVE
    txns     = tuple[node][block] of NO_TXN/READ_TXN/WRITE_TXN
    dirs     = tuple[block] of (owner, sharers, active, queue)
    active   = None | (request, pending, final_owner, final_sharers, reply)
    request  = (requester, is_write, was_upgrade, is_local, fresh)
    pending  = sorted tuple of (dst, mtype, rstale)
    queue    = tuple of request
    net      = sorted tuple of (message, count), count in 1..dup_cap
    message  = (src, dst, mtype, block, requester, stale, rstale)

Mutations: the battery in :mod:`repro.mc.mutations` proves the checker
is not vacuous by seeding protocol bugs at the exact handler sites the
model mirrors; each ``Model(config, mutation=name)`` hook below is one
such bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..protocol.messages import MessageType

# Cache states / transaction kinds (plain ints keep states compact).
INVALID, SHARED, EXCLUSIVE = 0, 1, 2
NO_TXN, READ_TXN, WRITE_TXN = 0, 1, 2
#: "no node" marker for owner / final_owner / requester fields.
NOBODY = -1
#: "no reply" marker for a transaction's reply type.
NO_REPLY = -1

GET_RO_REQUEST = int(MessageType.GET_RO_REQUEST)
GET_RW_REQUEST = int(MessageType.GET_RW_REQUEST)
UPGRADE_REQUEST = int(MessageType.UPGRADE_REQUEST)
INVAL_RO_RESPONSE = int(MessageType.INVAL_RO_RESPONSE)
INVAL_RW_RESPONSE = int(MessageType.INVAL_RW_RESPONSE)
DOWNGRADE_RESPONSE = int(MessageType.DOWNGRADE_RESPONSE)
GET_RO_RESPONSE = int(MessageType.GET_RO_RESPONSE)
GET_RW_RESPONSE = int(MessageType.GET_RW_RESPONSE)
UPGRADE_RESPONSE = int(MessageType.UPGRADE_RESPONSE)
INVAL_RO_REQUEST = int(MessageType.INVAL_RO_REQUEST)
INVAL_RW_REQUEST = int(MessageType.INVAL_RW_REQUEST)
DOWNGRADE_REQUEST = int(MessageType.DOWNGRADE_REQUEST)
FWD_GET_RO_REQUEST = int(MessageType.FWD_GET_RO_REQUEST)
FWD_GET_RW_REQUEST = int(MessageType.FWD_GET_RW_REQUEST)
REVISION = int(MessageType.REVISION)

#: Cache -> directory request types.
REQUEST_TYPES = frozenset((GET_RO_REQUEST, GET_RW_REQUEST, UPGRADE_REQUEST))
#: Directory -> cache data responses.
RESPONSE_TYPES = frozenset((GET_RO_RESPONSE, GET_RW_RESPONSE, UPGRADE_RESPONSE))
#: Collection-round messages a directory re-sends on timeout.
ROUND_TYPES = frozenset(
    (
        INVAL_RO_REQUEST,
        INVAL_RW_REQUEST,
        DOWNGRADE_REQUEST,
        FWD_GET_RO_REQUEST,
        FWD_GET_RW_REQUEST,
    )
)
#: Origin-style forwarded requests (carry a requester and its seq bit).
FWD_TYPES = frozenset((FWD_GET_RO_REQUEST, FWD_GET_RW_REQUEST))
#: Acknowledgments that retire a pending collection entry.
ACK_TYPES = frozenset(
    (INVAL_RO_RESPONSE, INVAL_RW_RESPONSE, DOWNGRADE_RESPONSE, REVISION)
)

# Tuple field indices (see the module docstring for the layouts).
M_SRC, M_DST, M_TYPE, M_BLOCK, M_REQ, M_STALE, M_RSTALE = range(7)
R_NODE, R_WRITE, R_UPG, R_LOCAL, R_FRESH = range(5)
T_REQ, T_PEND, T_OWNER, T_SHARERS, T_REPLY = range(5)
D_OWNER, D_SHARERS, D_ACTIVE, D_QUEUE = range(4)

#: Seeded protocol bugs the mutation battery proves detectable.
KNOWN_MUTATIONS = frozenset(
    {
        "drop-ack",
        "skip-inval",
        "wrong-owner",
        "stale-response-accept",
        "lost-writeback",
        "duplicate-grant",
        "premature-unblock",
        "no-poison",
        "stale-ack-accept",
        "downgrade-resurrect",
    }
)


@dataclass(frozen=True)
class MCConfig:
    """A model-checking configuration: the machine shape to enumerate."""

    n_nodes: int = 2
    #: Home node of each model block (block b is ``homes[b]``'s page).
    homes: Tuple[int, ...] = (0,)
    half_migratory: bool = True
    forwarding: bool = False
    #: Enable drop/dup fault actions (PR 2's fault model, order-free).
    faults: bool = False
    #: Multiplicity cap of the counter abstraction (the cap means ">=").
    dup_cap: int = 2

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError("need at least two nodes for coherence traffic")
        if not self.homes:
            raise ConfigError("need at least one block to model")
        for home in self.homes:
            if not 0 <= home < self.n_nodes:
                raise ConfigError(
                    f"block home {home} is outside 0..{self.n_nodes - 1}"
                )
        if self.dup_cap < 2:
            raise ConfigError(
                "dup_cap must be >= 2: the counter abstraction needs one "
                "exact multiplicity below the cap"
            )
        if self.forwarding and self.faults:
            raise ConfigError(
                "forwarding under faults is not modeled: a retried forward "
                "keeps the original requester seq (directory_ctrl re-sends "
                "pending_msg verbatim), which the 1-bit staleness quotient "
                "does not capture yet"
            )

    @property
    def n_blocks(self) -> int:
        return len(self.homes)


def _msg(
    src: int,
    dst: int,
    mtype: int,
    block: int,
    requester: int = NOBODY,
    stale: int = 0,
    rstale: int = 0,
) -> tuple:
    return (src, dst, mtype, block, requester, stale, rstale)


class _World:
    """Mutable scratch copy of a state while one action executes."""

    __slots__ = (
        "capof", "inert", "caches", "txns", "dirs", "net", "observes"
    )

    def __init__(self, capof, inert, state: tuple) -> None:
        caches, txns, dirs, net = state
        self.capof = capof
        self.inert = inert
        self.caches = [list(row) for row in caches]
        self.txns = [list(row) for row in txns]
        self.dirs = []
        for owner, sharers, active, queue in dirs:
            thawed = None
            if active is not None:
                req, pend, fo, fs, reply = active
                thawed = [
                    list(req),
                    [list(p) for p in pend],
                    fo,
                    set(fs),
                    reply,
                ]
            self.dirs.append(
                [owner, set(sharers), thawed, [list(q) for q in queue]]
            )
        self.net: Dict[tuple, int] = dict(net)
        self.observes = 0

    def freeze(self) -> tuple:
        dirs = []
        for owner, sharers, active, queue in self.dirs:
            frozen = None
            if active is not None:
                req, pend, fo, fs, reply = active
                frozen = (
                    tuple(req),
                    tuple(sorted(tuple(p) for p in pend)),
                    fo,
                    tuple(sorted(fs)),
                    reply,
                )
            dirs.append(
                (owner, tuple(sorted(sharers)), frozen,
                 tuple(tuple(q) for q in queue))
            )
        return (
            tuple(tuple(row) for row in self.caches),
            tuple(tuple(row) for row in self.txns),
            tuple(dirs),
            tuple(sorted(self.net.items())),
        )

    def send(self, msg: tuple) -> None:
        if self.inert(msg):
            return  # provably dropped on sight: never enqueued
        self.net[msg] = min(self.net.get(msg, 0) + 1, self.capof(msg))

    def remove(self, msg: tuple, keep: int) -> None:
        count = self.net.get(msg)
        if count is None:
            raise ConfigError(f"message not in flight: {msg!r}")
        if keep:
            if count != self.capof(msg):
                raise ConfigError(
                    "keep-delivery is only legal at the multiplicity cap"
                )
            return  # ">= cap" minus one may still be ">= cap"
        if count == 1:
            del self.net[msg]
        else:
            self.net[msg] = count - 1

    def mark(self, pred, *, stale: bool = False, rstale: bool = False) -> None:
        """Set staleness bits on every in-flight message matching ``pred``."""
        moved: Dict[tuple, int] = {}
        for msg in [m for m in self.net if pred(m)]:
            new = list(msg)
            if stale:
                new[M_STALE] = 1
            if rstale:
                new[M_RSTALE] = 1
            new_msg = tuple(new)
            if new_msg != msg:
                moved[new_msg] = moved.get(new_msg, 0) + self.net.pop(msg)
        for msg, count in moved.items():
            if self.inert(msg):
                continue  # went stale and thereby inert: collect it
            self.net[msg] = min(self.net.get(msg, 0) + count, self.capof(msg))


class Model:
    """The protocol's transition relation over frozen state tuples."""

    def __init__(
        self, config: MCConfig, mutation: Optional[str] = None
    ) -> None:
        if mutation is not None and mutation not in KNOWN_MUTATIONS:
            raise ConfigError(
                f"unknown mutation {mutation!r}; known mutations: "
                f"{', '.join(sorted(KNOWN_MUTATIONS))}"
            )
        self.config = config
        self.mutation = mutation

    # ------------------------------------------------------------------
    # network abstraction knobs
    # ------------------------------------------------------------------

    def capof(self, msg: tuple) -> int:
        """Multiplicity cap of one message variety.

        Stale messages saturate at one ("at least one in flight"): all
        their effects are idempotent, so multiplicity beyond existence
        is unobservable.  Fresh messages use the configured cap.
        """
        return 1 if msg[M_STALE] else self.config.dup_cap

    def inert(self, msg: tuple) -> bool:
        """True for messages the receiver provably drops on sight.

        A stale data response never completes a miss and a stale ack
        never retires a pending entry -- unless the seeded mutation under
        test is precisely "accept the stale one".
        """
        if not msg[M_STALE]:
            return False
        if (
            msg[M_TYPE] in RESPONSE_TYPES
            and self.mutation != "stale-response-accept"
        ):
            return True
        if (
            msg[M_TYPE] in ACK_TYPES
            and self.mutation != "stale-ack-accept"
        ):
            return True
        return False

    # ------------------------------------------------------------------
    # state factory and predicates
    # ------------------------------------------------------------------

    def initial_state(self) -> tuple:
        cfg = self.config
        row = (INVALID,) * cfg.n_blocks
        return (
            (row,) * cfg.n_nodes,
            ((NO_TXN,) * cfg.n_blocks,) * cfg.n_nodes,
            tuple((NOBODY, (), None, ()) for _ in range(cfg.n_blocks)),
            (),
        )

    def has_work(self, state: tuple) -> bool:
        _caches, txns, dirs, _net = state
        if any(txn != NO_TXN for row in txns for txn in row):
            return True
        return any(d[D_ACTIVE] is not None or d[D_QUEUE] for d in dirs)

    def is_quiescent(self, state: tuple) -> bool:
        return not state[3] and not self.has_work(state)

    # ------------------------------------------------------------------
    # guards: the enabled actions of a state
    # ------------------------------------------------------------------

    def actions(self, state: tuple) -> List[tuple]:
        cfg = self.config
        caches, txns, dirs, net = state
        out: List[tuple] = []
        for node in range(cfg.n_nodes):
            for block in range(cfg.n_blocks):
                home = cfg.homes[block]
                if home == node:
                    owner, sharers, active, queue = dirs[block]
                    # The processor serializes: one local request at a
                    # time per (home, block).
                    if (
                        active is not None
                        and active[T_REQ][R_LOCAL]
                        and active[T_REQ][R_NODE] == node
                    ) or any(
                        q[R_LOCAL] and q[R_NODE] == node for q in queue
                    ):
                        continue
                    busy = active is not None
                    for is_write in (0, 1):
                        hit = not busy and (
                            owner == node
                            or (not is_write and node in sharers)
                        )
                        if not hit:
                            out.append(("issue", node, block, is_write))
                else:
                    if txns[node][block] != NO_TXN:
                        continue
                    if caches[node][block] == INVALID:
                        out.append(("issue", node, block, 0))
                    if caches[node][block] != EXCLUSIVE:
                        out.append(("issue", node, block, 1))
        for msg, count in net:
            cap = self.capof(msg)
            out.append(("deliver", msg, 0))
            if count == cap:
                out.append(("deliver", msg, 1))
            if cfg.faults:
                out.append(("drop", msg, 0))
                if count == cap:
                    out.append(("drop", msg, 1))
                if count < cap:
                    out.append(("dup", msg))
        # Timeout retries: always enabled -- even a fault-free machine
        # can time out while queued behind a serialized transaction.
        for node in range(cfg.n_nodes):
            for block in range(cfg.n_blocks):
                if txns[node][block] != NO_TXN:
                    out.append(("cretry", node, block))
        for block in range(cfg.n_blocks):
            active = dirs[block][D_ACTIVE]
            if active is not None and active[T_PEND]:
                out.append(("dretry", block))
        return out

    # ------------------------------------------------------------------
    # the transition function
    # ------------------------------------------------------------------

    def step(self, state: tuple, action: tuple) -> tuple:
        """Apply ``action`` to ``state``; pure and deterministic."""
        return self.apply(state, action)[0]

    def apply(self, state: tuple, action: tuple) -> Tuple[tuple, int]:
        """Apply ``action``; returns ``(next_state, observations)``.

        ``observations`` is the number of predictor observations the
        action emits (exactly one per delivery, zero otherwise) -- the
        explorer checks this accounting on every transition.
        """
        world = _World(self.capof, self.inert, state)
        kind = action[0]
        if kind == "issue":
            self._do_issue(world, action[1], action[2], action[3])
        elif kind == "deliver":
            self._do_deliver(world, action[1], action[2])
        elif kind == "drop":
            if not self.config.faults:
                raise ConfigError("drop action without faults enabled")
            world.remove(action[1], action[2])
        elif kind == "dup":
            if not self.config.faults:
                raise ConfigError("dup action without faults enabled")
            if action[1] not in world.net:
                raise ConfigError(f"message not in flight: {action[1]!r}")
            world.send(action[1])
        elif kind == "cretry":
            if world.txns[action[1]][action[2]] == NO_TXN:
                raise ConfigError("cache retry with no outstanding miss")
            self._reissue(world, action[1], action[2])
        elif kind == "dretry":
            self._do_dir_retry(world, action[1])
        else:
            raise ConfigError(f"unknown model action {action!r}")
        return world.freeze(), world.observes

    # ------------------------------------------------------------------
    # processor-side actions
    # ------------------------------------------------------------------

    def _do_issue(
        self, world: _World, node: int, block: int, is_write: int
    ) -> None:
        home = self.config.homes[block]
        if home == node:
            # Home-local access through the directory (no cache txn).
            request = [node, is_write, 0, 1, 1]
            self._admit(world, block, request)
            return
        if world.txns[node][block] != NO_TXN:
            raise ConfigError("issue with a transaction already outstanding")
        world.txns[node][block] = WRITE_TXN if is_write else READ_TXN
        self._reissue(world, node, block)

    def _reissue(self, world: _World, node: int, block: int) -> None:
        """Send a fresh-attempt request, stranding the previous attempt.

        Mirrors ``CacheController._issue`` taking a new seq: everything
        still in flight for the old attempt can no longer match, so its
        staleness bits flip, and the request type is recomputed from the
        *current* cache state (an upgrade whose copy was invalidated
        becomes a full write miss).
        """
        self._supersede(world, node, block)
        is_write = world.txns[node][block] == WRITE_TXN
        state = world.caches[node][block]
        if is_write and state == SHARED:
            mtype = UPGRADE_REQUEST
        elif is_write:
            mtype = GET_RW_REQUEST
        else:
            mtype = GET_RO_REQUEST
        world.send(_msg(node, self.config.homes[block], mtype, block))

    def _supersede(self, world: _World, node: int, block: int) -> None:
        """Flip staleness on everything aimed at ``node``'s old attempt."""
        world.mark(
            lambda m: m[M_BLOCK] == block
            and (
                (m[M_SRC] == node and m[M_TYPE] in REQUEST_TYPES)
                or (m[M_DST] == node and m[M_TYPE] in RESPONSE_TYPES)
            ),
            stale=True,
        )
        world.mark(
            lambda m: m[M_BLOCK] == block
            and m[M_REQ] == node
            and m[M_TYPE] in FWD_TYPES,
            rstale=True,
        )
        entry = world.dirs[block]
        active = entry[D_ACTIVE]
        if active is not None:
            request = active[T_REQ]
            if not request[R_LOCAL] and request[R_NODE] == node:
                request[R_FRESH] = 0
            if request[R_NODE] == node:
                for pend in active[T_PEND]:
                    if pend[1] in FWD_TYPES:
                        pend[2] = 1
        for queued in entry[D_QUEUE]:
            if not queued[R_LOCAL] and queued[R_NODE] == node:
                queued[R_FRESH] = 0

    def _poison(self, world: _World, node: int, block: int) -> None:
        if world.txns[node][block] == NO_TXN:
            return
        if self.mutation == "no-poison":
            return  # seeded bug: responses to revoked attempts install
        self._reissue(world, node, block)

    def _cache_complete(
        self, world: _World, node: int, block: int, new_state: int
    ) -> None:
        world.caches[node][block] = new_state
        world.txns[node][block] = NO_TXN
        # Leftover duplicates aimed at the finished attempt can no
        # longer match any seq -- the abstraction sees them stale.
        self._supersede(world, node, block)

    # ------------------------------------------------------------------
    # directory-side machinery
    # ------------------------------------------------------------------

    def _admit(self, world: _World, block: int, request: list) -> None:
        entry = world.dirs[block]
        if entry[D_ACTIVE] is not None:
            if self._merge(world, block, request):
                return
            entry[D_QUEUE].append(request)
            return
        self._start_chain(world, block, request)

    def _merge(self, world: _World, block: int, request: list) -> bool:
        """Fold an at-least-once duplicate request into its admission."""
        if request[R_LOCAL]:
            return False
        entry = world.dirs[block]
        active = entry[D_ACTIVE][T_REQ]
        if not active[R_LOCAL] and active[R_NODE] == request[R_NODE]:
            active[R_FRESH] = request[R_FRESH]
            active[R_UPG] = request[R_UPG]
            return True
        for queued in entry[D_QUEUE]:
            if not queued[R_LOCAL] and queued[R_NODE] == request[R_NODE]:
                queued[R_FRESH] = request[R_FRESH]
                queued[R_UPG] = request[R_UPG]
                return True
        return False

    def _start_chain(self, world: _World, block: int, request: list) -> None:
        """``_start`` plus the finish-pops-the-queue cascade."""
        entry = world.dirs[block]
        while True:
            if self._start_one(world, block, request):
                return
            if entry[D_QUEUE]:
                request = entry[D_QUEUE].pop(0)
                continue
            return

    def _start_one(self, world: _World, block: int, request: list) -> bool:
        """Start serving ``request``; True iff a collection went active."""
        entry = world.dirs[block]
        home = self.config.homes[block]
        owner, sharers = entry[D_OWNER], entry[D_SHARERS]
        requester = request[R_NODE]
        if not request[R_LOCAL]:
            # Idempotent re-grant of an already-served request.
            reply = None
            if owner == requester:
                reply = GET_RW_RESPONSE
            elif not request[R_WRITE] and requester in sharers:
                reply = (
                    GET_RW_RESPONSE
                    if self.mutation == "duplicate-grant"
                    else GET_RO_RESPONSE
                )
            if reply is not None:
                world.send(
                    _msg(home, requester, reply, block,
                         stale=0 if request[R_FRESH] else 1)
                )
                return False
        pending: List[list] = []
        if request[R_WRITE]:
            final = self._start_write(world, block, request, pending)
        else:
            final = self._start_read(world, block, request, pending)
        final_owner, final_sharers, reply = final
        txn = [request, pending, final_owner, set(final_sharers), reply]
        if pending:
            entry[D_ACTIVE] = txn
            return True
        self._finish(world, block, txn)
        return False

    def _send_round(
        self, world: _World, block: int, pending: List[list],
        dst: int, mtype: int,
    ) -> None:
        world.send(_msg(self.config.homes[block], dst, mtype, block))
        pending.append([dst, mtype, 0])

    def _send_forward(
        self, world: _World, block: int, request: list,
        pending: List[list], mtype: int, owner: int,
    ) -> None:
        # The owner answers the requester directly, stamping the
        # response with the requester's own attempt bit (rstale).
        rstale = 0 if request[R_FRESH] else 1
        world.send(
            (self.config.homes[block], owner, mtype, block,
             request[R_NODE], 0, rstale)
        )
        pending.append([owner, mtype, rstale])

    def _start_read(
        self, world: _World, block: int, request: list, pending: List[list]
    ) -> tuple:
        cfg = self.config
        home = cfg.homes[block]
        entry = world.dirs[block]
        owner, sharers = entry[D_OWNER], entry[D_SHARERS]
        requester = request[R_NODE]
        if (
            cfg.forwarding
            and owner != NOBODY
            and owner != home
            and not request[R_LOCAL]
        ):
            self._send_forward(
                world, block, request, pending, FWD_GET_RO_REQUEST, owner
            )
            return NOBODY, {owner, requester}, NO_REPLY
        reply = NO_REPLY if request[R_LOCAL] else GET_RO_RESPONSE
        if owner != NOBODY:
            if cfg.half_migratory:
                final_sharers = {requester}
                round_type = INVAL_RW_REQUEST
            else:
                final_sharers = {owner, requester}
                round_type = DOWNGRADE_REQUEST
            if owner != home:  # the home's own copy is adjusted silently
                self._send_round(world, block, pending, owner, round_type)
            return NOBODY, final_sharers, reply
        return NOBODY, set(sharers) | {requester}, reply

    def _start_write(
        self, world: _World, block: int, request: list, pending: List[list]
    ) -> tuple:
        cfg = self.config
        home = cfg.homes[block]
        entry = world.dirs[block]
        owner, sharers = entry[D_OWNER], entry[D_SHARERS]
        requester = request[R_NODE]
        if (
            cfg.forwarding
            and owner != NOBODY
            and owner != home
            and not sharers
            and not request[R_LOCAL]
        ):
            self._send_forward(
                world, block, request, pending, FWD_GET_RW_REQUEST, owner
            )
            return requester, set(), NO_REPLY
        if request[R_LOCAL]:
            reply = NO_REPLY
        elif request[R_UPG] and requester in sharers:
            reply = UPGRADE_RESPONSE
        else:
            reply = GET_RW_RESPONSE
        final_owner = requester
        if self.mutation == "wrong-owner" and requester != home:
            final_owner = home  # seeded bug: ownership recorded wrong
        targets = sorted(
            s for s in sharers if s != requester and s != home
        )
        if self.mutation == "skip-inval" and targets:
            targets = targets[:-1]  # seeded bug: one sharer never invalidated
        for sharer in targets:
            self._send_round(world, block, pending, sharer, INVAL_RO_REQUEST)
        if owner != NOBODY and owner != home:
            self._send_round(world, block, pending, owner, INVAL_RW_REQUEST)
        return final_owner, set(), reply

    def _finish(self, world: _World, block: int, txn: list) -> None:
        entry = world.dirs[block]
        request = txn[T_REQ]
        entry[D_OWNER] = txn[T_OWNER]
        entry[D_SHARERS] = set(txn[T_SHARERS])
        if request[R_LOCAL]:
            return  # done_cb: the local access completes, no message
        if txn[T_REPLY] != NO_REPLY:
            world.send(
                _msg(
                    self.config.homes[block],
                    request[R_NODE],
                    txn[T_REPLY],
                    block,
                    stale=0 if request[R_FRESH] else 1,
                )
            )

    def _dir_ack(
        self, world: _World, block: int, src: int, stale: int
    ) -> None:
        entry = world.dirs[block]
        active = entry[D_ACTIVE]
        if active is None:
            return  # stale ack, dropped
        pending = active[T_PEND]
        index = next(
            (i for i, p in enumerate(pending) if p[0] == src), None
        )
        if index is None:
            return
        if stale and self.mutation != "stale-ack-accept":
            return
        pending.pop(index)
        # The retired entry's pending seq is gone: any other round copy
        # to (or ack copy from) this node can no longer match.
        home = self.config.homes[block]
        world.mark(
            lambda m: m[M_BLOCK] == block
            and (
                (m[M_SRC] == home and m[M_DST] == src
                 and m[M_TYPE] in ROUND_TYPES)
                or (m[M_SRC] == src and m[M_DST] == home
                    and m[M_TYPE] in ACK_TYPES)
            ),
            stale=True,
        )
        if self.mutation == "premature-unblock" and pending:
            del pending[:]  # seeded bug: unblock after the first ack
        if not pending:
            entry[D_ACTIVE] = None
            self._finish(world, block, active)
            if entry[D_ACTIVE] is None and entry[D_QUEUE]:
                self._start_chain(world, block, entry[D_QUEUE].pop(0))

    def _do_dir_retry(self, world: _World, block: int) -> None:
        entry = world.dirs[block]
        active = entry[D_ACTIVE]
        if active is None or not active[T_PEND]:
            raise ConfigError("directory retry with no pending round")
        home = self.config.homes[block]
        dsts = {p[0] for p in active[T_PEND]}
        # Fresh seqs for the whole round: in-flight copies of the old
        # round and their acks can no longer match.
        world.mark(
            lambda m: m[M_BLOCK] == block
            and (
                (m[M_SRC] == home and m[M_DST] in dsts
                 and m[M_TYPE] in ROUND_TYPES)
                or (m[M_DST] == home and m[M_SRC] in dsts
                    and m[M_TYPE] in ACK_TYPES)
            ),
            stale=True,
        )
        requester = active[T_REQ][R_NODE]
        for dst, mtype, rstale in [tuple(p) for p in active[T_PEND]]:
            if mtype in FWD_TYPES:
                # Re-sent verbatim apart from the seq: the requester_seq
                # (and so rstale) is the one frozen at txn start.
                world.send((home, dst, mtype, block, requester, 0, rstale))
            else:
                world.send(_msg(home, dst, mtype, block))

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def _do_deliver(self, world: _World, msg: tuple, keep: int) -> None:
        world.remove(msg, keep)
        world.observes += 1  # the collector records every delivery
        src, dst, mtype, block, requester, stale, rstale = msg
        if mtype in REQUEST_TYPES:
            request = [
                src,
                0 if mtype == GET_RO_REQUEST else 1,
                1 if mtype == UPGRADE_REQUEST else 0,
                0,
                0 if stale else 1,
            ]
            self._admit(world, block, request)
        elif mtype in ACK_TYPES:
            self._dir_ack(world, block, src, stale)
        elif mtype in RESPONSE_TYPES:
            if world.txns[dst][block] == NO_TXN:
                return  # stale/duplicate response, dropped
            if stale and self.mutation != "stale-response-accept":
                return
            self._cache_complete(
                world, dst, block,
                SHARED if mtype == GET_RO_RESPONSE else EXCLUSIVE,
            )
        elif mtype == INVAL_RO_REQUEST:
            world.caches[dst][block] = INVALID
            if self.mutation != "drop-ack":
                world.send(
                    _msg(dst, src, INVAL_RO_RESPONSE, block, stale=stale)
                )
            self._poison(world, dst, block)
        elif mtype == INVAL_RW_REQUEST:
            if self.mutation != "lost-writeback":
                world.caches[dst][block] = INVALID
            world.send(
                _msg(dst, src, INVAL_RW_RESPONSE, block, stale=stale)
            )
            self._poison(world, dst, block)
        elif mtype == DOWNGRADE_REQUEST:
            if world.caches[dst][block] == EXCLUSIVE:
                world.caches[dst][block] = SHARED
            elif self.mutation == "downgrade-resurrect":
                world.caches[dst][block] = SHARED  # seeded bug
            # else: duplicate/stale downgrade acked without touching state
            world.send(
                _msg(dst, src, DOWNGRADE_RESPONSE, block, stale=stale)
            )
            self._poison(world, dst, block)
        elif mtype in FWD_TYPES:
            if mtype == FWD_GET_RO_REQUEST:
                if world.caches[dst][block] == EXCLUSIVE:
                    world.caches[dst][block] = SHARED
                response = GET_RO_RESPONSE
            else:
                world.caches[dst][block] = INVALID
                response = GET_RW_RESPONSE
            world.send(_msg(dst, requester, response, block, stale=rstale))
            world.send(_msg(dst, src, REVISION, block, stale=stale))
            self._poison(world, dst, block)
        else:  # pragma: no cover - the vocabulary above is total
            raise ConfigError(f"unhandled message type {mtype}")

    # ------------------------------------------------------------------
    # invariants (the oracles of repro.explore, per state)
    # ------------------------------------------------------------------

    def check_state(self, state: tuple) -> Optional[Tuple[str, str]]:
        """The coherence invariant of ``Machine._check_coherence``.

        Returns ``(oracle, detail)`` for the first violation, or None.
        """
        caches, _txns, dirs, _net = state
        cfg = self.config
        for block in range(cfg.n_blocks):
            home = cfg.homes[block]
            owner, sharers, active, _queue = dirs[block]
            if owner != NOBODY and sharers:
                return (
                    "coherence",
                    f"block {block}: directory entry has owner P{owner} "
                    f"and sharers {list(sharers)}",
                )
            pending_owner = active[T_OWNER] if active is not None else NOBODY
            pending_sharers = active[T_SHARERS] if active is not None else ()
            exclusive = None
            for node in range(cfg.n_nodes):
                if node == home:
                    continue  # the home's copy *is* the directory entry
                held = caches[node][block]
                if held == EXCLUSIVE:
                    if exclusive is not None:
                        return (
                            "coherence",
                            f"block {block} is exclusive at both "
                            f"P{exclusive} and P{node}",
                        )
                    exclusive = node
                    if owner != node and pending_owner != node:
                        return (
                            "coherence",
                            f"P{node} holds block {block} exclusively but "
                            f"the directory records owner "
                            f"{owner if owner != NOBODY else None}",
                        )
                elif held == SHARED:
                    if (
                        node not in sharers
                        and owner != node
                        and node not in pending_sharers
                    ):
                        return (
                            "coherence",
                            f"P{node} holds a shared copy of block {block} "
                            f"the directory does not know about",
                        )
        return None


# ----------------------------------------------------------------------
# serialization (golden fingerprints, counterexample files)
# ----------------------------------------------------------------------

def encode_state(state: tuple) -> list:
    """State tuple -> JSON-serializable nested lists."""
    caches, txns, dirs, net = state
    encoded_dirs = []
    for owner, sharers, active, queue in dirs:
        enc_active = None
        if active is not None:
            req, pend, fo, fs, reply = active
            enc_active = [
                list(req), [list(p) for p in pend], fo, list(fs), reply,
            ]
        encoded_dirs.append(
            [owner, list(sharers), enc_active, [list(q) for q in queue]]
        )
    return [
        [list(row) for row in caches],
        [list(row) for row in txns],
        encoded_dirs,
        [[list(m), count] for m, count in net],
    ]


def decode_state(data: list) -> tuple:
    """Inverse of :func:`encode_state` (canonical tuples restored)."""
    caches = tuple(tuple(row) for row in data[0])
    txns = tuple(tuple(row) for row in data[1])
    dirs = []
    for owner, sharers, active, queue in data[2]:
        dec_active = None
        if active is not None:
            req, pend, fo, fs, reply = active
            dec_active = (
                tuple(req),
                tuple(sorted(tuple(p) for p in pend)),
                fo,
                tuple(sorted(fs)),
                reply,
            )
        dirs.append(
            (owner, tuple(sorted(sharers)), dec_active,
             tuple(tuple(q) for q in queue))
        )
    net = tuple(sorted((tuple(m), count) for m, count in data[3]))
    return (caches, txns, tuple(dirs), net)
