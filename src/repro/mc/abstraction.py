"""Map a live :class:`~repro.sim.machine.Machine` onto model states.

The cross-validation battery (:mod:`repro.mc.crossval`) drives a real
16-node machine through :class:`~repro.explore.network.ExploringNetwork`
episodes and asserts, after every delivery, that the machine's *abstract*
state is reachable in the model.  :func:`abstract_state` is that
abstraction function: given a projection (which real nodes and block
addresses play which model roles), it reads the controllers' live
structures and produces the same frozen tuple layout
:mod:`repro.mc.model` enumerates.

The quotient mirrors the model's two finiteness abstractions:

* Concrete sequence numbers collapse to the 1-bit staleness relation:
  an in-flight message is *stale* exactly when its seq can no longer
  match the receiver's current attempt (cache transaction seq for
  requests/responses, the directory's per-destination pending seq for
  rounds and acks, the requester's attempt seq for a forward's
  ``requester_seq``).
* Concrete message multiplicities clamp to the model's per-variety caps
  (``dup_cap`` for fresh messages, one for stale ones), and messages the
  model garbage-collects as inert -- stale responses and stale acks --
  are skipped.

The function is *total* over valid machines: any transient mid-protocol
state a scheduled-but-undelivered message set implies must project
without a ``KeyError`` (a Hypothesis property test drives this).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from ..protocol.messages import Message, MessageType
from ..protocol.state import CacheState
from .model import (
    ACK_TYPES,
    DOWNGRADE_REQUEST,
    EXCLUSIVE,
    FWD_TYPES,
    INVAL_RO_REQUEST,
    INVAL_RW_REQUEST,
    INVALID,
    NO_REPLY,
    NO_TXN,
    NOBODY,
    READ_TXN,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    ROUND_TYPES,
    SHARED,
    WRITE_TXN,
    Model,
)

_CACHE_STATES = {
    CacheState.INVALID: INVALID,
    CacheState.SHARED: SHARED,
    CacheState.EXCLUSIVE: EXCLUSIVE,
}


class ProjectionError(ReproError):
    """The machine's state does not fit the requested projection.

    Raised when a node outside the projection's node map participates in
    a projected block's coherence (holds a copy, has a request recorded,
    or appears in an in-flight message).  Cross-validation scenarios are
    built so this cannot happen; the mc-spot oracle instead *skips*
    samples whose involvement exceeds the model (see
    :func:`involved_remotes`).
    """


def inflight_messages(machine) -> List[Message]:
    """Every coherence message sent but not yet processed.

    Two places hold undelivered messages: the exploring network's pool
    (admitted, awaiting a policy decision) and the event queue (scheduled
    admissions/deliveries whose callback has not run).  Every network
    layer schedules message callbacks with exactly one ``Message``
    argument, and no other callback does, so the queue scan is precise.
    """
    messages: List[Message] = []
    pool = getattr(machine.network, "_pool", None)
    if pool is not None:
        messages.extend(msg for _seq, msg, _defers in pool)
    for _time, _seq, _callback, args in machine.engine.iter_pending():
        if len(args) == 1 and isinstance(args[0], Message):
            messages.append(args[0])
    return messages


def _cache_txn(machine, node: int, addr: int):
    return machine.nodes[node].cache._outstanding.get(addr)


def _attempt_fresh(machine, node: int, addr: int, seq) -> int:
    """1 iff ``seq`` matches ``node``'s current attempt for ``addr``."""
    txn = _cache_txn(machine, node, addr)
    return 1 if txn is not None and seq == txn.seq else 0


def _round_seq(txn, node: int) -> Optional[int]:
    """The ``seq`` of the round message ``node`` owes ``txn`` an ack
    for; ``None`` when none is recorded (a machine without recovery)."""
    recorded = txn.pending_msg.get(node)
    return None if recorded is None else recorded.seq


def _message_bits(machine, msg: Message) -> Tuple[int, int]:
    """The (stale, rstale) quotient of one in-flight message's seqs."""
    mtype = int(msg.mtype)
    stale, rstale = 0, 0
    if mtype in REQUEST_TYPES:
        stale = 1 - _attempt_fresh(machine, msg.src, msg.block, msg.seq)
    elif mtype in RESPONSE_TYPES:
        stale = 1 - _attempt_fresh(machine, msg.dst, msg.block, msg.ack_seq)
    elif mtype in ROUND_TYPES:
        txn = machine.nodes[msg.src].directory._active.get(msg.block)
        stale = 0 if (
            txn is not None and _round_seq(txn, msg.dst) == msg.seq
        ) else 1
        if mtype in FWD_TYPES:
            rstale = 1 - _attempt_fresh(
                machine, msg.requester, msg.block, msg.requester_seq
            )
    elif mtype in ACK_TYPES:
        txn = machine.nodes[msg.dst].directory._active.get(msg.block)
        stale = 0 if (
            txn is not None and _round_seq(txn, msg.src) == msg.ack_seq
        ) else 1
    return stale, rstale


def _infer_round_type(request, dst: int, entry, half_migratory: bool) -> int:
    """Round type for a pending destination with no recorded message.

    Only reachable on machines running without recovery (no
    ``pending_msg`` bookkeeping); the type is determined by the request
    kind and the destination's directory role at transaction start.
    """
    if request.is_write:
        return (
            INVAL_RW_REQUEST if entry.owner == dst else INVAL_RO_REQUEST
        )
    return INVAL_RW_REQUEST if half_migratory else DOWNGRADE_REQUEST


def _abstract_request(
    machine, addr: int, request, node_map: Dict[int, int]
) -> tuple:
    requester = node_map.get(request.requester)
    if requester is None:
        raise ProjectionError(
            f"request by unmapped node P{request.requester} for block "
            f"0x{addr:x}"
        )
    if request.is_local:
        fresh = 1
    else:
        fresh = _attempt_fresh(machine, request.requester, addr,
                               request.req_seq)
    return (
        requester,
        1 if request.is_write else 0,
        1 if request.was_upgrade else 0,
        1 if request.is_local else 0,
        fresh,
    )


def abstract_state(
    machine,
    model: Model,
    node_map: Dict[int, int],
    block_map: Dict[int, int],
) -> tuple:
    """Project ``machine`` onto a state tuple of ``model``.

    ``node_map`` maps real node ids to model node ids (total on the
    participating nodes, injective); ``block_map`` maps real block
    addresses to model block indices.  The real home of each mapped
    address must map to the model home of its block index.
    """
    cfg = model.config
    inverse_nodes: Dict[int, int] = {}
    for real, abstract in node_map.items():
        if not 0 <= abstract < cfg.n_nodes:
            raise ProjectionError(
                f"node map sends P{real} to model node {abstract}, "
                f"outside 0..{cfg.n_nodes - 1}"
            )
        if abstract in inverse_nodes:
            raise ProjectionError(
                f"node map is not injective at model node {abstract}"
            )
        inverse_nodes[abstract] = real
    if len(inverse_nodes) != cfg.n_nodes:
        raise ProjectionError(
            f"node map covers {len(inverse_nodes)} of the model's "
            f"{cfg.n_nodes} nodes"
        )
    inverse_blocks: Dict[int, int] = {}
    for addr, index in block_map.items():
        if not 0 <= index < cfg.n_blocks:
            raise ProjectionError(
                f"block map sends 0x{addr:x} to model block {index}, "
                f"outside 0..{cfg.n_blocks - 1}"
            )
        if index in inverse_blocks:
            raise ProjectionError(
                f"block map is not injective at model block {index}"
            )
        inverse_blocks[index] = addr
        real_home = machine.memory_map.home_of(addr)
        if node_map.get(real_home) != cfg.homes[index]:
            raise ProjectionError(
                f"block 0x{addr:x} is homed at P{real_home}, which does "
                f"not map to model home {cfg.homes[index]}"
            )
    if len(inverse_blocks) != cfg.n_blocks:
        raise ProjectionError(
            f"block map covers {len(inverse_blocks)} of the model's "
            f"{cfg.n_blocks} blocks"
        )

    caches = []
    txns = []
    for abstract in range(cfg.n_nodes):
        real = inverse_nodes[abstract]
        cache = machine.nodes[real].cache
        cache_row = []
        txn_row = []
        for index in range(cfg.n_blocks):
            addr = inverse_blocks[index]
            cache_row.append(_CACHE_STATES[cache.state_of(addr)])
            txn = cache._outstanding.get(addr)
            if txn is None:
                txn_row.append(NO_TXN)
            else:
                txn_row.append(WRITE_TXN if txn.is_write else READ_TXN)
        caches.append(tuple(cache_row))
        txns.append(tuple(txn_row))

    dirs = []
    for index in range(cfg.n_blocks):
        addr = inverse_blocks[index]
        home = inverse_nodes[cfg.homes[index]]
        directory = machine.nodes[home].directory
        entry = directory.entry_of(addr)
        if entry.owner is None:
            owner = NOBODY
        else:
            owner = node_map.get(entry.owner)
            if owner is None:
                raise ProjectionError(
                    f"unmapped owner P{entry.owner} of block 0x{addr:x}"
                )
        sharers = []
        for sharer in entry.sharers:
            mapped = node_map.get(sharer)
            if mapped is None:
                raise ProjectionError(
                    f"unmapped sharer P{sharer} of block 0x{addr:x}"
                )
            sharers.append(mapped)
        live = directory._active.get(addr)
        active = None
        if live is not None:
            request = _abstract_request(machine, addr, live.request,
                                        node_map)
            pending = []
            for dst in live.pending_acks:
                mapped = node_map.get(dst)
                if mapped is None:
                    raise ProjectionError(
                        f"unmapped pending destination P{dst} for block "
                        f"0x{addr:x}"
                    )
                recorded = live.pending_msg.get(dst)
                if recorded is not None:
                    mtype = int(recorded.mtype)
                    rstale = 0
                    if mtype in FWD_TYPES:
                        rstale = 1 - _attempt_fresh(
                            machine,
                            recorded.requester,
                            addr,
                            recorded.requester_seq,
                        )
                else:
                    mtype = _infer_round_type(
                        live.request, dst, entry,
                        machine.options.half_migratory,
                    )
                    rstale = 0
                pending.append((mapped, mtype, rstale))
            final_sharers = []
            for sharer in live.final_sharers:
                mapped = node_map.get(sharer)
                if mapped is None:
                    raise ProjectionError(
                        f"unmapped pending sharer P{sharer} of block "
                        f"0x{addr:x}"
                    )
                final_sharers.append(mapped)
            if live.final_owner is None:
                final_owner = NOBODY
            else:
                final_owner = node_map.get(live.final_owner)
                if final_owner is None:
                    raise ProjectionError(
                        f"unmapped pending owner P{live.final_owner} of "
                        f"block 0x{addr:x}"
                    )
            reply = (
                NO_REPLY if live.reply_type is None
                else int(live.reply_type)
            )
            active = (
                request,
                tuple(sorted(pending)),
                final_owner,
                tuple(sorted(final_sharers)),
                reply,
            )
        queue = tuple(
            _abstract_request(machine, addr, queued, node_map)
            for queued in directory._queues.get(addr, ())
        )
        dirs.append((owner, tuple(sorted(sharers)), active, queue))

    net: Dict[tuple, int] = {}
    for msg in inflight_messages(machine):
        index = block_map.get(msg.block)
        if index is None:
            continue  # traffic for unprojected blocks is out of scope
        src = node_map.get(msg.src)
        dst = node_map.get(msg.dst)
        if src is None or dst is None:
            raise ProjectionError(
                f"in-flight {msg.mtype.name} P{msg.src}->P{msg.dst} for "
                f"block 0x{msg.block:x} involves an unmapped node"
            )
        mtype = int(msg.mtype)
        requester = NOBODY
        if mtype in FWD_TYPES:
            requester = node_map.get(msg.requester)
            if requester is None:
                raise ProjectionError(
                    f"in-flight forward for unmapped requester "
                    f"P{msg.requester}"
                )
        stale, rstale = _message_bits(machine, msg)
        abstract = (src, dst, mtype, index, requester, stale, rstale)
        if model.inert(abstract):
            continue
        net[abstract] = min(
            net.get(abstract, 0) + 1, model.capof(abstract)
        )

    return (
        tuple(caches),
        tuple(txns),
        tuple(dirs),
        tuple(sorted(net.items())),
    )


# ----------------------------------------------------------------------
# spot projection (the ``mc-spot`` oracle)
# ----------------------------------------------------------------------


def involved_remotes(machine, addr: int) -> Set[int]:
    """Non-home nodes participating in ``addr``'s coherence right now."""
    home = machine.memory_map.home_of(addr)
    involved: Set[int] = set()

    def note(node: Optional[int]) -> None:
        if node is not None and node != home:
            involved.add(node)

    for node in machine.nodes:
        if node.node_id == home:
            continue
        if node.cache.state_of(addr) is not CacheState.INVALID:
            involved.add(node.node_id)
        if node.cache._outstanding.get(addr) is not None:
            involved.add(node.node_id)
    directory = machine.nodes[home].directory
    entry = directory.entry_of(addr)
    note(entry.owner)
    for sharer in entry.sharers:
        note(sharer)
    live = directory._active.get(addr)
    if live is not None:
        note(live.request.requester)
        note(live.final_owner)
        for node_id in live.final_sharers:
            note(node_id)
        for node_id in live.pending_acks:
            note(node_id)
    for queued in directory._queues.get(addr, ()):
        note(queued.requester)
    for msg in inflight_messages(machine):
        if msg.block != addr:
            continue
        note(msg.src)
        note(msg.dst)
        if msg.requester is not None:
            note(msg.requester)
    return involved


def spot_project(machine, addr: int, model: Model) -> Optional[tuple]:
    """Canonical single-block projection of ``addr``, or None.

    Maps the block's home to model node 0 and the involved remotes, in
    ascending id order, to model nodes 1.. -- the model is symmetric
    under remote relabeling, so ascending order is a sound canonical
    choice.  Returns None when more remotes are involved than the model
    has, which the mc-spot oracle counts as a skipped sample.
    """
    cfg = model.config
    if cfg.n_blocks != 1 or cfg.homes != (0,):
        raise ProjectionError(
            "spot projection needs a single-block model homed at node 0"
        )
    remotes = sorted(involved_remotes(machine, addr))
    if len(remotes) > cfg.n_nodes - 1:
        return None
    home = machine.memory_map.home_of(addr)
    node_map = {home: 0}
    for offset, real in enumerate(remotes, start=1):
        node_map[real] = offset
    # Pad with uninvolved nodes so the map covers the model exactly.
    filler = (
        node.node_id for node in machine.nodes
        if node.node_id not in node_map
    )
    while len(node_map) < cfg.n_nodes:
        node_map[next(filler)] = len(node_map)
    return abstract_state(machine, model, node_map, {addr: 0})
