"""The simulator's one tracer: a levelled event ring plus span records.

One process-global :class:`ObsLog` (``OBS``) collects structured events
from the simulator, the protocol controllers, the fault injector, and the
predictor evaluation loop, and -- with span capture on -- the causal
transaction records :mod:`repro.obs.spans` rebuilds offline.  The design
constraint is that **disabled observability must stay within measurement
noise of no observability at all** (the guard in
``benchmarks/bench_core.py`` enforces <= 2%), so the hot paths never
call into this module unconditionally.  Instead every instrumentation
site is one guard and one call::

    if OBS.msg_or_spans:            # one attribute read of a plain bool
        OBS.send(now, msg, delay)   # only paid when something records

The guard booleans are precomputed from a single numeric level and the
span switch, so the disabled path costs exactly one attribute load and
one branch -- the Python equivalent of compiling the hook out.  A site
whose occurrence feeds both streams (a send, a drop, a duplicate, a
retry) guards on ``msg_or_spans`` or ``proto_or_spans`` and its one call
records each stream whose switch is on; span-only sites guard on
``spans``.

Levels (cumulative)::

    off    nothing recorded
    proto  protocol state transitions, retries, poisons, network faults
    msg    + every message send and delivery
    pred   + predictor predict/train outcomes during trace replay

Events are plain tuples ``(time_ns, category, name, node, block, args)``
appended to a bounded ring (``collections.deque`` with ``maxlen``): a
long run keeps the *most recent* window, which is the window you want
when a run ends in an invariant violation or an accuracy collapse.  The
``dropped`` counter records how much history scrolled off, so exports
are honest about truncation.  Span records (shapes in
:mod:`repro.obs.spans`) go to an unbounded list.  Both streams read one
clock, the running machine's engine time.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from ..protocol.messages import Message

#: One log record: (time_ns, category, name, node, block, args-dict).
ObsEvent = Tuple[int, str, str, int, int, Optional[dict]]

#: Level names in ascending order of verbosity.
LEVEL_OFF = 0
LEVEL_PROTO = 1
LEVEL_MSG = 2
LEVEL_PRED = 3

LEVELS: Dict[str, int] = {
    "off": LEVEL_OFF,
    "proto": LEVEL_PROTO,
    "msg": LEVEL_MSG,
    "pred": LEVEL_PRED,
    # "full" reads better in CLI help; it is exactly the deepest level.
    "full": LEVEL_PRED,
}

#: Default ring capacity: enough for the tail of a quick-scale run of
#: every experiment without unbounded growth on paper-scale runs.
DEFAULT_CAPACITY = 262_144


def _zero_clock() -> int:
    return 0


#: Ring event name of each :meth:`ObsLog.retry` kind.
_RETRY_EVENTS = {"timeout": "retry", "poison": "poison"}


class ObsLog:
    """A levelled, ring-buffered event log that also records spans."""

    __slots__ = (
        "proto",
        "msg",
        "pred",
        "level",
        "spans",
        "msg_or_spans",
        "proto_or_spans",
        "dropped",
        "records",
        "_ring",
        "_clock",
        "_next",
    )

    def __init__(self) -> None:
        self.proto = False
        self.msg = False
        self.pred = False
        self.level = LEVEL_OFF
        #: Span capture switch; see :meth:`set_spans`.
        self.spans = False
        self.msg_or_spans = False
        self.proto_or_spans = False
        self.dropped = 0
        #: Span records, in recording order (empty with capture off).
        self.records: List[tuple] = []
        self._ring: Deque[ObsEvent] = deque(maxlen=DEFAULT_CAPACITY)
        self._clock: Callable[[], int] = _zero_clock
        self._next = 1

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the ring records anything (level above ``off``)."""
        return self.level > LEVEL_OFF

    @property
    def capacity(self) -> int:
        """The ring's size; older events scroll off past it."""
        return self._ring.maxlen  # type: ignore[return-value]

    def configure(
        self, level: object, capacity: Optional[int] = None
    ) -> None:
        """Set the ring's capture level (name or number), optionally resize.

        Reconfiguring clears the ring: mixing events captured at
        different levels would make the timeline lie about gaps.  Span
        capture is left as it is.
        """
        if isinstance(level, str):
            try:
                numeric = LEVELS[level.strip().lower()]
            except KeyError:
                raise ValueError(
                    f"unknown observability level {level!r}; expected one "
                    f"of {sorted(LEVELS)}"
                ) from None
        else:
            numeric = int(level)  # type: ignore[arg-type]
            if numeric not in (LEVEL_OFF, LEVEL_PROTO, LEVEL_MSG, LEVEL_PRED):
                raise ValueError(f"unknown observability level {numeric}")
        if capacity is None:
            capacity = self.capacity
        elif capacity < 1:
            raise ValueError("observability ring capacity must be >= 1")
        self.level = numeric
        self.proto = numeric >= LEVEL_PROTO
        self.msg = numeric >= LEVEL_MSG
        self.pred = numeric >= LEVEL_PRED
        self._ring = deque(maxlen=capacity)
        self.dropped = 0
        self._gate()

    def set_spans(self, on: bool) -> None:
        """Switch span capture; either way the records and ids restart."""
        self.spans = on
        self.records = []
        self._next = 1
        self._gate()

    def _gate(self) -> None:
        self.msg_or_spans = self.msg or self.spans
        self.proto_or_spans = self.proto or self.spans

    def disable(self) -> None:
        """Turn all capture off and drop what was recorded."""
        self.configure(LEVEL_OFF)
        self.set_spans(False)

    def set_clock(self, clock: Optional[Callable[[], int]]) -> None:
        """Install the simulated-time source (the engine's ``now``).

        Sites that record without an explicit time (protocol controllers
        have no engine reference) read this clock.  ``None`` restores
        the zero clock.
        """
        self._clock = clock if clock is not None else _zero_clock

    @property
    def now(self) -> int:
        """Current simulated time according to the installed clock."""
        return self._clock()

    # ------------------------------------------------------------------
    # ring events
    # ------------------------------------------------------------------

    def emit(
        self,
        time_ns: int,
        category: str,
        name: str,
        node: int,
        block: int,
        args: Optional[dict] = None,
    ) -> None:
        """Append one event.  Callers must have checked a level flag."""
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append((time_ns, category, name, node, block, args))

    def emit_now(
        self,
        category: str,
        name: str,
        node: int,
        block: int,
        args: Optional[dict] = None,
    ) -> None:
        """:meth:`emit` stamped with the installed clock's current time."""
        self.emit(self._clock(), category, name, node, block, args)

    def events(self) -> List[ObsEvent]:
        """The buffered events, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop buffered events (capacity and level unchanged)."""
        self._ring.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # hooks recording both streams (guard: msg_or_spans / proto_or_spans)
    # ------------------------------------------------------------------

    def send(
        self, time_ns: int, msg: "Message", delay_ns: int, dup: bool = False
    ) -> None:
        """``msg`` put on the wire, arriving ``delay_ns`` later.

        The ring event is ``send`` (level ``msg``), or ``dup`` (level
        ``proto``) for a fault-injected duplicate.
        """
        if dup:
            if self.proto:
                args = {"dst": msg.dst, "extra_delay_ns": delay_ns}
                self.emit(time_ns, "net", "dup", msg.src, msg.block, args)
        elif self.msg:
            args = {
                "dst": msg.dst,
                "mtype": msg.mtype.name,
                "delay_ns": delay_ns,
            }
            self.emit(time_ns, "net", "send", msg.src, msg.block, args)
        if self.spans and msg.txn is not None:
            self.records.append(
                (
                    "xfer",
                    msg.txn,
                    time_ns,
                    msg.src,
                    msg.dst,
                    msg.mtype.value,
                    delay_ns,
                    dup,
                )
            )

    def drop(self, time_ns: int, msg: "Message") -> None:
        """``msg`` lost to an injected fault."""
        if self.proto:
            args = {"dst": msg.dst, "mtype": msg.mtype.name}
            self.emit(time_ns, "net", "drop", msg.src, msg.block, args)
        if self.spans and msg.txn is not None:
            self.records.append(
                ("drop", msg.txn, time_ns, msg.src, msg.dst, msg.mtype.value)
            )

    def retry(
        self,
        node: int,
        block: int,
        txn: Optional[int],
        kind: str,
        attempt: int,
        args: dict,
    ) -> None:
        """A ``timeout`` or ``poison`` re-issue at ``node``.

        The ring event (``retry``/``poison``) carries ``args``; the span
        record carries ``attempt``.
        """
        now = self._clock()
        if self.proto:
            self.emit(now, "proto", _RETRY_EVENTS[kind], node, block, args)
        if self.spans and txn is not None:
            self.records.append(("retry", txn, now, node, kind, attempt))

    # ------------------------------------------------------------------
    # span-only hooks (guard: spans)
    # ------------------------------------------------------------------

    def span_open(
        self, requester: int, home: int, block: int, kind: str
    ) -> int:
        """Open a transaction at the requesting module; returns its id."""
        txn = self._next
        self._next += 1
        self.records.append(
            ("open", txn, self._clock(), requester, home, block, kind)
        )
        return txn

    def span(self, op: str, txn: int, *fields: object) -> None:
        """Record any other milestone of ``txn``, stamped now."""
        self.records.append((op, txn, self._clock()) + fields)


#: The process-global tracer.  Instrumentation sites guard on its
#: flags; entry points (CLI, experiment runner, tests) configure it and
#: switch span capture.
OBS = ObsLog()
