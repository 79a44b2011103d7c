"""Critical-path analysis over causal transaction spans.

:mod:`repro.obs.spans` records *what happened*; this module answers the
paper's question about it: how much of each coherence transaction's
open-to-close latency is directory indirection (the part a correct
prediction removes), and what does a misprediction add?

Every closed :class:`~repro.obs.spans.Transaction` is segmented into a
gap-free cover of ``[t_open, t_close]``.  Segment kinds
(:data:`~repro.obs.spans.SEGMENT_KINDS`):

``retry``
    time lost to dropped/timed-out request attempts before the request
    finally reached home, plus invalidation re-send rounds during
    service.
``indirection``
    the request's hop to the home directory, and the directory's service
    time (invalidation round trips, Origin forwarding) up to the moment
    the response is put on the wire.  This is the portion a correct
    prediction shortcuts.
``queue``
    waiting at the home directory behind an earlier transaction on the
    same block (the blocking directory serializes them).
``transfer``
    the completing response's own wire time -- paid no matter how good
    the predictor is.
``predicted-shortcut``
    an ``indirection`` segment relabelled by :func:`attribute` because a
    correct prediction covered the transaction.

Attribution takes the per-event outcome column of a
:func:`repro.core.evaluation.evaluate_trace` replay over the run's trace
events and matches each request's arrival at the home directory to its
transaction: a correct prediction saves ``(1 - F)`` of the indirection
time, a misprediction costs ``R * L`` of recovery work -- the Section 4
latency model's :data:`repro.accel.model.F` and
:data:`repro.accel.model.R`, with ``L`` the one-way message latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..accel.model import F, R
from ..core.evaluation import HIT, NO_PREDICTION
from ..protocol.messages import MessageType
from ..sim.metrics import METRICS, Metrics
from ..trace.events import TraceEvent
from .spans import SEGMENT_KINDS, Transaction

#: Message types that open a directory transaction (cache -> home).
_REQUEST_MTYPES = frozenset(
    {
        int(MessageType.GET_RO_REQUEST),
        int(MessageType.GET_RW_REQUEST),
        int(MessageType.UPGRADE_REQUEST),
    }
)


@dataclass(frozen=True)
class Segment:
    """One labelled slice of a transaction's critical path."""

    kind: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class CriticalPath:
    """A transaction's gap-free, labelled critical path."""

    txn: int
    block: int
    requester: int
    home: int
    kind: str
    t_open: int
    total_ns: int
    segments: Tuple[Segment, ...]
    #: Prediction outcome: ``"hit"``, ``"miss"``, or ``None`` when no
    #: prediction was made (or no predictor was replayed).
    outcome: Optional[str] = None
    #: Critical-path ns removed by a correct prediction.
    saved_ns: float = 0.0
    #: Recovery ns added by a misprediction.
    penalty_ns: float = 0.0

    def ns(self, kind: str) -> int:
        """Total ns of all segments of ``kind``."""
        return sum(
            s.duration_ns for s in self.segments if s.kind == kind
        )

    def share(self, kind: str) -> float:
        """Fraction of the path spent in segments of ``kind``."""
        return self.ns(kind) / self.total_ns if self.total_ns else 0.0


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(value, hi))


def critical_path(txn: Transaction) -> Optional[CriticalPath]:
    """Segment one closed transaction; ``None`` while it is still open.

    The segmentation walks a monotone list of cut points from
    ``t_open`` to ``t_close``, so the segments always cover the whole
    duration exactly -- every clamp only moves a cut inside the
    remaining window, never creates overlap or a gap.
    """
    if not txn.closed:
        return None
    assert txn.t_close is not None
    t_open, t_close = txn.t_open, txn.t_close

    if txn.is_local:
        # Home-node access served by the local directory: no request or
        # response hop.  Waiting behind an earlier transaction is queue
        # time; the service itself (invalidation round trips) is the
        # directory work a prediction would overlap.
        t_start = _clamp(min(txn.starts, default=t_open), t_open, t_close)
        last_retry = max(
            (t for t, _n, _k, _a in txn.retries if t_start <= t <= t_close),
            default=None,
        )
        cuts: List[Tuple[int, str]] = [(t_start, "queue")]
        if last_retry is not None:
            cuts.append((last_retry, "retry"))
        cuts.append((t_close, "indirection"))
        return _walk(txn, cuts)

    t_admit = _clamp(min(txn.admits, default=t_open), t_open, t_close)
    t_start = _clamp(min(txn.starts, default=t_admit), t_admit, t_close)

    # The completing response: the transfer into the requester whose
    # arrival is the close time (prefer the primary copy over a fault
    # duplicate that happened to land at the same instant).
    responses = [
        x
        for x in txn.xfers
        if x.dst == txn.requester and x.arrive_ns == t_close
    ]
    responses.sort(key=lambda x: (x.dup, x.send_ns))
    s_resp = _clamp(
        responses[0].send_ns if responses else t_close, t_start, t_close
    )

    # Last attempt at getting the request onto the home node's doorstep:
    # everything before it was loss/timeout, i.e. retry time.
    attempt_sends = [
        x.send_ns
        for x in txn.xfers
        if x.src == txn.requester
        and x.dst == txn.home
        and x.mtype in _REQUEST_MTYPES
        and x.send_ns < t_admit
    ]
    attempt_sends.extend(
        t
        for t, src, dst, mtype in txn.drops
        if src == txn.requester and dst == txn.home
        and mtype in _REQUEST_MTYPES and t < t_admit
    )
    last_req = _clamp(max(attempt_sends, default=t_open), t_open, t_admit)

    # Invalidation re-send rounds during service stretch the collection;
    # time up to the last one is retry, the remainder indirection.
    last_retry = max(
        (t for t, _n, _k, _a in txn.retries if t_start <= t <= s_resp),
        default=None,
    )

    cuts = [
        (last_req, "retry"),
        (t_admit, "indirection"),
        (t_start, "queue"),
    ]
    if last_retry is not None:
        cuts.append((last_retry, "retry"))
    cuts.append((s_resp, "indirection"))
    cuts.append((t_close, "transfer"))
    return _walk(txn, cuts)


def _walk(
    txn: Transaction, cuts: Sequence[Tuple[int, str]]
) -> CriticalPath:
    assert txn.t_close is not None
    segments: List[Segment] = []
    prev = txn.t_open
    for cut, kind in cuts:
        cut = _clamp(cut, prev, txn.t_close)
        if cut > prev:
            segments.append(Segment(kind, prev, cut))
            prev = cut
    return CriticalPath(
        txn=txn.txn,
        block=txn.block,
        requester=txn.requester,
        home=txn.home,
        kind=txn.kind,
        t_open=txn.t_open,
        total_ns=txn.duration_ns,
        segments=tuple(segments),
    )


# ---------------------------------------------------------------------------
# prediction-outcome replay
# ---------------------------------------------------------------------------


def request_arrival_index(
    transactions: Mapping[int, Transaction],
) -> Dict[Tuple[int, int, int, int, int], List[int]]:
    """Index request arrivals at home so trace events can be matched.

    Key: ``(arrive_ns, home, block, requester, mtype)`` -- exactly the
    fields a :class:`~repro.trace.events.TraceEvent` carries for the
    reception, so the replay loop's lookup is a dict hit.  Values are
    FIFO lists of transaction ids (distinct transactions cannot collide
    on a key -- a node has one outstanding access per block -- but the
    list keeps the index robust to that assumption changing).
    """
    index: Dict[Tuple[int, int, int, int, int], List[int]] = {}
    for txn in transactions.values():
        if txn.is_local:
            continue
        for x in txn.xfers:
            if (
                x.src == txn.requester
                and x.dst == txn.home
                and x.mtype in _REQUEST_MTYPES
            ):
                key = (x.arrive_ns, txn.home, txn.block, txn.requester, x.mtype)
                index.setdefault(key, []).append(txn.txn)
    return index


def replay_outcomes(
    events: Sequence[TraceEvent],
    transactions: Mapping[int, Transaction],
    column: Sequence[int],
) -> Dict[int, Optional[str]]:
    """Score each transaction's request from a replay's outcome column.

    ``column`` is the ``outcomes`` of an
    :func:`~repro.core.evaluation.evaluate_trace` call over ``events``
    with ``record_outcomes=True``: one entry per event, as the module's
    predictor saw the message stream online.  When an event is a
    request's arrival at its home directory, its entry scores that
    transaction: ``"hit"`` if the home's predictor had predicted
    this very ``<sender, type>``, ``"miss"`` if it predicted something
    else, ``None`` if it made no prediction.  The *first* arrival decides
    (a retried request's later arrivals are consequences of loss, not
    fresh prediction opportunities).
    """
    index = request_arrival_index(transactions)
    outcomes: Dict[int, Optional[str]] = {}
    for event, outcome in zip(events, column):
        key = (
            event.time,
            event.node,
            event.block,
            event.sender,
            int(event.mtype),
        )
        ids = index.get(key)
        if not ids:
            continue
        txn_id = ids.pop(0)
        if txn_id in outcomes:
            continue
        if outcome == NO_PREDICTION:
            outcomes[txn_id] = None
        else:
            outcomes[txn_id] = "hit" if outcome == HIT else "miss"
    return outcomes


def attribute(
    path: CriticalPath,
    outcome: Optional[str],
    latency_ns: int,
) -> CriticalPath:
    """Apply one prediction outcome to a critical path.

    A ``"hit"`` relabels the indirection segments as
    ``predicted-shortcut`` and credits ``(1 - F)`` of their time as
    saved; a ``"miss"`` debits ``R * latency_ns`` of recovery work.
    ``None`` returns the path with the outcome recorded and nothing
    attributed.
    """
    if outcome == "hit":
        indirection_ns = path.ns("indirection")
        segments = tuple(
            Segment("predicted-shortcut", s.start_ns, s.end_ns)
            if s.kind == "indirection"
            else s
            for s in path.segments
        )
        return CriticalPath(
            txn=path.txn,
            block=path.block,
            requester=path.requester,
            home=path.home,
            kind=path.kind,
            t_open=path.t_open,
            total_ns=path.total_ns,
            segments=segments,
            outcome="hit",
            saved_ns=(1.0 - F) * indirection_ns,
        )
    if outcome == "miss":
        return CriticalPath(
            txn=path.txn,
            block=path.block,
            requester=path.requester,
            home=path.home,
            kind=path.kind,
            t_open=path.t_open,
            total_ns=path.total_ns,
            segments=path.segments,
            outcome="miss",
            penalty_ns=R * latency_ns,
        )
    return path


def attributed_paths(
    transactions: Mapping[int, Transaction],
    outcomes: Mapping[int, Optional[str]],
    latency_ns: int,
) -> List[CriticalPath]:
    """Critical paths of all closed transactions, outcomes applied."""
    paths: List[CriticalPath] = []
    for txn_id in sorted(transactions):
        path = critical_path(transactions[txn_id])
        if path is None:
            continue
        paths.append(
            attribute(path, outcomes.get(txn_id), latency_ns)
        )
    return paths


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass
class CritPathSummary:
    """Aggregate critical-path composition of one set of transactions."""

    transactions: int = 0
    total_ns: int = 0
    kind_ns: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in SEGMENT_KINDS}
    )
    #: Sum over transactions of the per-transaction share, per kind;
    #: divide by ``shared`` for the mean (kept as a sum so summaries
    #: merge exactly).
    share_sums: Dict[str, float] = field(
        default_factory=lambda: {kind: 0.0 for kind in SEGMENT_KINDS}
    )
    #: Transactions with a nonzero duration (share denominators).
    shared: int = 0
    hits: int = 0
    misses: int = 0
    unpredicted: int = 0
    saved_ns: float = 0.0
    penalty_ns: float = 0.0

    def add(self, path: CriticalPath) -> None:
        self.transactions += 1
        self.total_ns += path.total_ns
        if path.total_ns:
            self.shared += 1
        for kind in SEGMENT_KINDS:
            ns = path.ns(kind)
            self.kind_ns[kind] += ns
            if path.total_ns:
                self.share_sums[kind] += ns / path.total_ns
        if path.outcome == "hit":
            self.hits += 1
        elif path.outcome == "miss":
            self.misses += 1
        else:
            self.unpredicted += 1
        self.saved_ns += path.saved_ns
        self.penalty_ns += path.penalty_ns

    def mean_share(self, kind: str) -> float:
        return self.share_sums[kind] / self.shared if self.shared else 0.0

    def format(self) -> str:
        """Deterministic multi-line summary (golden-diffed in CI)."""
        lines = [
            f"transactions: {self.transactions}  "
            f"total critical-path ns: {self.total_ns}",
            f"outcomes: hit={self.hits} miss={self.misses} "
            f"none={self.unpredicted}",
            f"saved_ns: {self.saved_ns:.1f}  "
            f"penalty_ns: {self.penalty_ns:.1f}",
        ]
        for kind in SEGMENT_KINDS:
            lines.append(
                f"  {kind:<19} {self.kind_ns[kind]:>12} ns  "
                f"mean share {self.mean_share(kind):6.1%}"
            )
        return "\n".join(lines)


def summarize(paths: Iterable[CriticalPath]) -> CritPathSummary:
    """Fold critical paths into one :class:`CritPathSummary`."""
    summary = CritPathSummary()
    for path in paths:
        summary.add(path)
    return summary


def summarize_by_block(
    paths: Iterable[CriticalPath],
) -> Dict[int, CritPathSummary]:
    """Per-block summaries, keyed by block address."""
    by_block: Dict[int, CritPathSummary] = {}
    for path in paths:
        summary = by_block.get(path.block)
        if summary is None:
            summary = CritPathSummary()
            by_block[path.block] = summary
        summary.add(path)
    return by_block


def fold_critpath_metrics(
    paths: Iterable[CriticalPath], metrics: Optional[Metrics] = None
) -> None:
    """Fold critical paths into mergeable ``txn.critpath.*`` histograms.

    One sample per transaction into ``txn.critpath.total_ns``; one
    sample per transaction-with-time-in-kind into
    ``txn.critpath.<kind>_ns``; attribution goes to
    ``txn.critpath.saved_ns`` / ``txn.critpath.penalty_ns``.  All plain
    :class:`~repro.sim.metrics.Histogram` samples, so parallel shards
    merge to byte-identical snapshots like every other metric.
    """
    target = metrics if metrics is not None else METRICS
    for path in paths:
        target.observe("txn.critpath.total_ns", path.total_ns)
        for kind in SEGMENT_KINDS:
            ns = path.ns(kind)
            if ns:
                target.observe(f"txn.critpath.{kind}_ns", ns)
        # Rounded to whole ns: histogram totals stay integral, so shard
        # merges are exactly associative (float sums of non-representable
        # values like 0.7 * x are not).
        if path.saved_ns:
            target.observe("txn.critpath.saved_ns", round(path.saved_ns))
        if path.penalty_ns:
            target.observe(
                "txn.critpath.penalty_ns", round(path.penalty_ns)
            )
