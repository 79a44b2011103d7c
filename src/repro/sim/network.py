"""Point-to-point interconnect model.

Every message pays a constant end-to-end latency (source network
interface + wire + destination network interface, per Table 3).  Constant
latency plus the engine's stable tie-breaking yields FIFO delivery per
source-destination channel, which the serialized directory protocol
relies on.  Arrival-order variation between *different* senders -- the
phenomenon Cosmos must adapt to (Section 3.5 of the paper) -- comes from
processor-side timing jitter, not from network reordering.
"""

from __future__ import annotations

from typing import Callable

from ..obs.log import OBS
from ..obs.spans import SPANS
from ..protocol.messages import Message
from .engine import Engine
from .metrics import METRICS
from .params import SystemParams


class Network:
    """Constant-latency, per-channel-FIFO interconnect."""

    #: Whether this interconnect may deliver messages out of the order
    #: the constant-latency model would (schedule exploration does; see
    #: :mod:`repro.explore`).  The machine arms protocol recovery when a
    #: network declares itself adversarial, exactly as it does for an
    #: active fault profile.
    adversarial = False

    def __init__(
        self,
        engine: Engine,
        params: SystemParams,
        deliver: Callable[[Message], None],
    ) -> None:
        self._engine = engine
        self._latency = params.one_way_message_ns
        self._deliver = deliver
        self.messages_sent = 0
        #: Sends already folded into the ``net.msg.latency_ns`` histogram
        #: by :meth:`flush_metrics`.
        self._folded_sends = 0

    @property
    def latency_ns(self) -> int:
        return self._latency

    @property
    def max_skew_ns(self) -> int:
        """Worst-case extra delay beyond the base latency (none here)."""
        return 0

    def send(self, msg: Message) -> None:
        """Inject ``msg``; it is delivered ``latency_ns`` later.

        Metric recording is *not* tied to ``OBS.msg`` here: the latency
        histogram is a ``--metrics-json`` quantity and must be populated
        with observability off.  Every delay is the same constant, so the
        per-send ``METRICS.observe`` is deferred and folded in bulk by
        :meth:`flush_metrics` -- the hot path does one counter bump, one
        (usually O(1)) schedule, and nothing else when tracing is off.
        """
        self.messages_sent += 1
        if OBS.msg:
            OBS.emit(
                self._engine.now,
                "net",
                "send",
                msg.src,
                msg.block,
                {
                    "dst": msg.dst,
                    "mtype": msg.mtype.name,
                    "delay_ns": self._latency,
                },
            )
        if SPANS.enabled and msg.txn is not None:
            SPANS.xfer(
                msg.txn, msg.src, msg.dst, msg.mtype.value, self._latency
            )
        self._engine.schedule_fifo(self._latency, self._deliver, msg)

    def flush_metrics(self) -> None:
        """Fold deferred per-send latency samples into ``METRICS``.

        Equivalent to one ``METRICS.observe("net.msg.latency_ns", L)``
        per send since the last flush (the histogram is sample-order
        independent).  Called by ``Machine.finish_workload``; safe to
        call repeatedly.
        """
        unfolded = self.messages_sent - self._folded_sends
        if unfolded:
            METRICS.observe_many(
                "net.msg.latency_ns", self._latency, unfolded
            )
            self._folded_sends = self.messages_sent
