"""Causal transaction spans: stable ids threaded through the protocol.

The paper's argument is about the *critical path* of a coherence
transaction -- a correct prediction removes the directory-indirection
hop; a misprediction adds recovery work.  Aggregate accuracy tables
cannot show where a saved hop lands, so the simulator gives every
coherence transaction a stable id, assigned at the requesting module and
propagated through every message that serves it (requests, invalidation
rounds, Origin forwards, revisions, responses, retries, duplicates), and
records the causally-ordered milestones this module rebuilds the
transaction's span tree from.

The records come from the simulator's one tracer, :data:`repro.obs.OBS`
(:mod:`repro.obs.log`), with span capture switched on by
``OBS.set_spans(True)``; it is off by default and its hooks are gated
like every other hook there.  Records are plain tuples appended to
``OBS.records``; all interpretation (trees, critical paths, attribution)
happens offline, here and in :mod:`repro.obs.critpath`.

Record vocabulary (first element is the op, second the txn id, third the
timestamp in simulated ns)::

    ("open",   txn, t, requester, home, block, kind)   kind: read|write
    ("xfer",   txn, t, src, dst, mtype, delay_ns, dup) wire transfer
    ("drop",   txn, t, src, dst, mtype)                fault-injected loss
    ("admit",  txn, t, home)                           request reached home
    ("start",  txn, t, home)                           service began
    ("finish", txn, t, home)                           directory closed it
    ("retry",  txn, t, node, kind, attempt)            kind: timeout|poison|inval
    ("close",  txn, t, node)                           requester completed

Exact arrival times come for free: the engine delivers a transfer at
``t + delay_ns``, so no send/delivery matching pass is needed.

This module keeps the offline half: :class:`Transaction` reconstruction
(:func:`build_transactions`), span-tree rendering
(:func:`format_span_tree`), and the segment vocabulary
(:data:`SEGMENT_KINDS`) the analyzer shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: One span record; see the module docstring for the per-op shapes.
SpanRecord = Tuple

#: Segment taxonomy used by :mod:`repro.obs.critpath`; listed here so the
#: span records and the analyzer agree on one vocabulary.
SEGMENT_KINDS = (
    "indirection",
    "transfer",
    "queue",
    "retry",
    "predicted-shortcut",
)


# ---------------------------------------------------------------------------
# offline reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Xfer:
    """One wire transfer attributed to a transaction."""

    send_ns: int
    src: int
    dst: int
    mtype: int
    delay_ns: int
    dup: bool

    @property
    def arrive_ns(self) -> int:
        return self.send_ns + self.delay_ns


@dataclass
class Transaction:
    """One reconstructed coherence transaction (a span tree root)."""

    txn: int
    requester: int
    home: int
    block: int
    kind: str
    t_open: int
    t_close: Optional[int] = None
    admits: List[int] = field(default_factory=list)
    starts: List[int] = field(default_factory=list)
    finishes: List[int] = field(default_factory=list)
    xfers: List[Xfer] = field(default_factory=list)
    drops: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: (time, node, kind, attempt) -- kind: timeout|poison|inval.
    retries: List[Tuple[int, int, str, int]] = field(default_factory=list)

    @property
    def is_local(self) -> bool:
        """Home-node access served by the local directory (no request hop)."""
        return self.requester == self.home

    @property
    def closed(self) -> bool:
        return self.t_close is not None

    @property
    def duration_ns(self) -> int:
        """Open-to-close latency; 0 while still open."""
        return (self.t_close - self.t_open) if self.closed else 0


def build_transactions(
    records: List[SpanRecord],
) -> Dict[int, Transaction]:
    """Reconstruct every transaction from a flat record list.

    Records referencing an id with no ``open`` record are ignored (they
    can only appear if capture was enabled mid-run); everything else is
    folded into one :class:`Transaction` per id, keyed and iterable in
    id order (ids are assigned monotonically, so id order is open order).
    """
    transactions: Dict[int, Transaction] = {}
    for record in records:
        op, txn, t = record[0], record[1], record[2]
        if op == "open":
            _, _, _, requester, home, block, kind = record
            transactions[txn] = Transaction(
                txn=txn,
                requester=requester,
                home=home,
                block=block,
                kind=kind,
                t_open=t,
            )
            continue
        tracked = transactions.get(txn)
        if tracked is None:
            continue
        if op == "xfer":
            _, _, _, src, dst, mtype, delay, dup = record
            tracked.xfers.append(Xfer(t, src, dst, mtype, delay, dup))
        elif op == "drop":
            _, _, _, src, dst, mtype = record
            tracked.drops.append((t, src, dst, mtype))
        elif op == "admit":
            tracked.admits.append(t)
        elif op == "start":
            tracked.starts.append(t)
        elif op == "finish":
            tracked.finishes.append(t)
        elif op == "retry":
            _, _, _, node, kind, attempt = record
            tracked.retries.append((t, node, kind, attempt))
        elif op == "close":
            # First close wins; later records for the id (stale
            # duplicates) do not move the completion time.
            if tracked.t_close is None:
                tracked.t_close = t
    return transactions


def format_span_tree(txn: Transaction) -> str:
    """Render one transaction as an indented, deterministic span tree.

    Child spans are ordered by time (ties broken on the rendered text).
    Re-sent transfers triggered by a retry are nested *under* that retry
    node: a timeout/poison/inval re-issue sends its message(s)
    synchronously, so the re-sent transfers share the retry's timestamp
    and source node -- that equality is the nesting rule.
    """
    from ..protocol.messages import MessageType

    def mtype_name(value: int) -> str:
        try:
            return str(MessageType(value))
        except ValueError:  # pragma: no cover - future-proofing
            return f"mtype={value}"

    retry_keys = {(t, node) for t, node, _kind, _attempt in txn.retries}
    children: List[Tuple[int, str, List[str]]] = []
    for x in txn.xfers:
        label = (
            f"[{x.send_ns}..{x.arrive_ns}] {mtype_name(x.mtype)} "
            f"P{x.src} -> P{x.dst}" + (" (dup copy)" if x.dup else "")
        )
        if (x.send_ns, x.src) in retry_keys:
            continue  # rendered under its retry node below
        children.append((x.send_ns, label, []))
    for t, src, dst, mtype in txn.drops:
        if (t, src) in retry_keys:
            continue
        children.append(
            (t, f"[{t}] drop {mtype_name(mtype)} P{src} -> P{dst}", [])
        )
    for t in txn.admits:
        children.append((t, f"[{t}] admit at home P{txn.home}", []))
    for t in txn.starts:
        children.append((t, f"[{t}] service start at home P{txn.home}", []))
    for t in txn.finishes:
        children.append((t, f"[{t}] directory finish at P{txn.home}", []))
    for t, node, kind, attempt in txn.retries:
        nested = [
            f"[{x.send_ns}..{x.arrive_ns}] {mtype_name(x.mtype)} "
            f"P{x.src} -> P{x.dst}" + (" (dup copy)" if x.dup else "")
            for x in txn.xfers
            if x.send_ns == t and x.src == node
        ]
        nested.extend(
            f"[{dt}] drop {mtype_name(dm)} P{ds} -> P{dd}"
            for dt, ds, dd, dm in txn.drops
            if dt == t and ds == node
        )
        children.append(
            (t, f"[{t}] retry ({kind} #{attempt}) at P{node}", nested)
        )
    children.sort(key=lambda item: (item[0], item[1]))

    close = f"{txn.t_close}" if txn.closed else "open"
    lines = [
        f"txn #{txn.txn} {txn.kind} block=0x{txn.block:x} "
        f"P{txn.requester} -> home P{txn.home} [{txn.t_open}..{close}]"
        + (" (home-local)" if txn.is_local else "")
    ]
    for _t, label, nested in children:
        lines.append(f"  {label}")
        lines.extend(f"    {inner}" for inner in sorted(nested))
    return "\n".join(lines)
