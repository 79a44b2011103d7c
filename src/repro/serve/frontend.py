"""The asyncio front-end: admission, deadlines, degraded fallback.

One :class:`PredictionService` owns a TCP listener (JSON lines), the
consistent-hash ring, the supervisor, and two small front-end tables:

* the **dedupe cache** -- ``(client, seq) -> answer``, bounded FIFO.
  A retransmitted request (client deadline fired, or the connection
  dropped mid-response) is answered from cache without training again:
  the same idempotency-by-sequence-number discipline as
  :mod:`repro.protocol.recovery`.  A key is registered as in flight
  when it is admitted, so a retransmission that arrives while the first
  attempt still waits on its worker shares that attempt's answer.
  ``RETRY_AFTER`` rejections are never cached -- they admitted nothing,
  so the retry must be processed fresh.
* the **fallback table** -- last observed word per ``(tenant, block)``,
  the :class:`~repro.predictors.last_message.LastMessagePredictor`
  discipline kept at the front so it survives any worker.  While a
  shard's breaker is open, or a request blows its deadline, the service
  answers from this table with ``degraded=true`` instead of stalling or
  erroring: prediction consumers are speculative by design (paper
  Section 2), so a cheaper guess is strictly better than no answer.

Request handling never blocks the event loop, and no task waits on a
request.  Each connection is an :class:`asyncio.BufferedProtocol`
whose read callback parses and admits the request; the supervisor,
which drives the worker pipes from the loop itself (one small message
in a pipe at a time), hands the worker's answer to a plain callback that
writes the response.  One loop timer answers degraded whatever has
waited ``deadline_ms``: the deadline is the same for every request, so
expiries come in admission order.  A ``stat`` asks the workers: it is
answered once every closed shard's pong is in, or after ``deadline_ms``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..core.tuples import pack
from ..errors import ServeError
from ..protocol.messages import MessageType
from ..sim.metrics import METRICS
from .chaos import ChaosScript
from .config import ServeConfig
from .hashring import HashRing
from .protocol import MAX_LINE, LineFramer, Response, Status, decode_request
from .supervisor import Backpressure, ShardSupervisor
from .timer import LazyTimer

#: ``(client, seq)`` response cache entries kept for idempotency.
DEDUPE_CAPACITY = 4_096

#: Backoff hint sent with every ``RETRY_AFTER`` rejection.
RETRY_AFTER_MS = 20.0

#: Writes one encoded response to the connection a request came from.
Reply = Callable[[bytes], None]

#: An observation's outcome once its deadline has passed unanswered.
_DEADLINE = asyncio.TimeoutError("deadline passed")


class _Observation:
    """One admitted observation, from admission to its answer."""

    __slots__ = (
        "service",
        "seq",
        "fallback",
        "shard",
        "ordinal",
        "start",
        "expiry",
        "answer",
        "replies",
    )

    def __init__(
        self,
        service: "PredictionService",
        seq: int,
        fallback: int,
        shard: int,
        reply: Reply,
    ) -> None:
        self.service = service
        self.seq = seq
        self.fallback = fallback
        self.shard = shard
        self.ordinal = -1
        self.start = 0.0
        #: Loop time past which the answer is degraded.
        self.expiry = 0.0
        #: The encoded response, once answered.
        self.answer: Optional[bytes] = None
        #: Where the answer goes: the first attempt's connection, then
        #: any retransmission that arrives while it is in flight.
        self.replies: List[Reply] = [reply]

    def done(self, result) -> None:
        """The outcome: a worker response dict, or why there is none."""
        self.service._finish(self, result)


class _Stat:
    """One ``stat`` request: answered once every closed shard's worker
    has answered its ping or failed, and at the latest after
    ``deadline_ms``.  A shard that has not answered by then shows its
    last report."""

    __slots__ = ("service", "reply", "waiting", "timer")

    def __init__(self, service: "PredictionService", reply: Reply) -> None:
        self.service = service
        self.reply: Optional[Reply] = reply
        self.timer: Optional[asyncio.TimerHandle] = None
        self.waiting = service.supervisor.ping(self.done)
        if self.waiting:
            self.timer = service._loop.call_later(
                service._deadline_s, self.answer
            )
        else:
            self.answer()

    def done(self, _result) -> None:
        """One ping's outcome: a pong's report, or a :class:`WorkerDown`."""
        self.waiting -= 1
        if not self.waiting:
            self.answer()

    def answer(self) -> None:
        reply, self.reply = self.reply, None
        if reply is None:
            return  # the deadline answered already
        if self.timer is not None:
            self.timer.cancel()
        reply(
            (
                json.dumps(
                    {
                        "status": Status.OK,
                        "op": "stat",
                        "shards": self.service.supervisor.stats(),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            ).encode("utf-8")
        )


class _Connection(LineFramer):
    """One client connection: its requests in order, one in service.

    A request is parsed and admitted as soon as its line is read.  Lines
    that arrive while one is in service wait in the inbox until its
    answer is written; past :data:`MAX_LINE` waiting bytes (or while the
    transport's write buffer is full) the connection stops reading.
    """

    def __init__(self, service: "PredictionService") -> None:
        super().__init__()
        self._service = service
        #: A request is in service.
        self._busy = False
        #: ``_next`` is running; an answer may come within it.
        self._running = False
        self._eof = False
        self._write_paused = False
        self._read_paused = False

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self._service._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._service._connections.discard(self)
        self.transport = None

    def inbox_updated(self) -> None:
        self._next()

    def eof_received(self) -> bool:
        self._eof = True
        self._next()
        return True  # the answer in service may still be written

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._next()

    def _reply(self, data: bytes) -> None:
        """The request in service is answered."""
        self._busy = False
        transport = self.transport
        if transport is not None and not transport.is_closing():
            transport.write(data)
        self._next()

    def _next(self) -> None:
        """Serve waiting lines until one is in service or none is left."""
        if self._running:
            return
        self._running = True
        try:
            while not (self._busy or self._write_paused):
                transport = self.transport
                if transport is None or transport.is_closing():
                    return
                try:
                    line = self.take_line(final=self._eof)
                except ServeError as exc:
                    # An overlong line has no end to resume after.
                    METRICS.inc("serve.request.malformed")
                    transport.write(
                        Response(
                            seq=-1, status=Status.ERROR, error=str(exc)
                        ).encode()
                    )
                    transport.close()
                    return
                if line is None:
                    if self._eof:
                        transport.close()
                        return
                    break
                self._busy = True
                self._service._serve(line, self._reply)
            if self._read_paused:
                if not (self._busy or self._write_paused):
                    self._read_paused = False
                    self.transport.resume_reading()
            elif self.buffered() > MAX_LINE:
                self._read_paused = True
                self.transport.pause_reading()
        finally:
            self._running = False


class PredictionService:
    """The service: listener + ring + supervisor + fallback."""

    def __init__(
        self,
        config: ServeConfig,
        chaos: Optional[ChaosScript] = None,
        checkpoint_dir=None,
    ) -> None:
        self.config = config
        self.ring = HashRing(config.shards)
        self.supervisor = ShardSupervisor(
            config, chaos=chaos, checkpoint_dir=checkpoint_dir
        )
        self._last: Dict[Tuple[str, int], int] = {}
        #: Each recent observation, registered at admission.
        self._dedupe: "OrderedDict[Tuple[str, int], _Observation]" = (
            OrderedDict()
        )
        #: Observations awaiting their worker, in admission order -- which
        #: is deadline order; answered ones leave from the head.
        self._deadlines: Deque[_Observation] = deque()
        self._deadline_s = config.deadline_ms / 1_000.0
        self._timer: Optional[LazyTimer] = None
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The bound port (useful with ``port=0``), set by :meth:`start`.
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._timer = LazyTimer(self._loop, self._expire)
        await self.supervisor.start()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.transport.abort()
            await self._server.wait_closed()
            self._server = None
        self.supervisor.stop()
        if self._timer is not None:
            self._timer.cancel()

    # ------------------------------------------------------------------
    # one request
    # ------------------------------------------------------------------

    def _serve(self, line: bytes, reply: Reply) -> None:
        """Answer one request line through ``reply``, now or later."""
        try:
            record = decode_request(line)
        except ServeError as exc:
            METRICS.inc("serve.request.malformed")
            reply(
                Response(
                    seq=-1, status=Status.ERROR, error=str(exc)
                ).encode()
            )
            return
        op = record["op"]
        if op == "observe":
            self._observe(record, reply)
        elif op == "stat":
            _Stat(self, reply)
        else:
            # Control operations are not validated: echo only an int seq.
            seq = record.get("seq", -1)
            reply(
                Response(
                    seq=seq if type(seq) is int else -1,
                    status=Status.ERROR,
                    error=f"unknown operation {op!r}",
                ).encode()
            )

    def _observe(self, record: dict, reply: Reply) -> None:
        seq = record["seq"]
        key = (record["client"], seq)
        cached = self._dedupe.get(key)
        if cached is not None:
            METRICS.inc("serve.dedupe.hit")
            # A first attempt still in flight shares its answer when it
            # comes, rather than the observation training twice.
            if cached.answer is None:
                cached.replies.append(reply)
            else:
                reply(cached.answer)
            return
        tenant = record["tenant"]
        block = record["block"]
        word = pack((record["sender"], MessageType(record["mtype"])))
        shard = self.ring.shard_for(tenant, block)
        # The fallback prediction must be read *before* this observation
        # trains the table: "the next message repeats the last one".
        observation = _Observation(
            self, seq, self._last.get((tenant, block), -1), shard, reply
        )
        try:
            observation.ordinal, queued = self.supervisor.try_submit(
                shard, tenant, block, word, observation.done
            )
        except Backpressure:
            METRICS.inc("serve.response.retry_after")
            # Deliberately not cached: nothing was admitted, so the
            # client's retry of this seq must be processed for real.
            reply(
                Response(
                    seq=seq,
                    status=Status.RETRY_AFTER,
                    shard=shard,
                    retry_after_ms=RETRY_AFTER_MS,
                ).encode()
            )
            return
        self._dedupe[key] = observation
        if len(self._dedupe) > DEDUPE_CAPACITY:
            self._dedupe.popitem(last=False)
        self._last[(tenant, block)] = word
        observation.start = time.perf_counter()
        if not queued:
            # Breaker open: the observation is buffered for replay;
            # answer degraded right now.
            self._finish(observation, None)
            return
        observation.expiry = self._loop.time() + self._deadline_s
        self._deadlines.append(observation)
        if len(self._deadlines) == 1:
            self._timer.arm(observation.expiry)

    def _expire(self) -> None:
        """The deadline timer: answer degraded what waited too long."""
        now = self._loop.time()
        deadlines = self._deadlines
        while deadlines and deadlines[0].expiry <= now:
            deadlines[0].done(_DEADLINE)
        if deadlines:
            self._timer.arm(deadlines[0].expiry)

    def _finish(self, observation: _Observation, result) -> None:
        """Answer ``observation`` from its outcome.

        ``result`` is the worker's response dict; otherwise the answer
        is degraded: the worker went down (``WorkerDown``), the deadline
        passed (``_DEADLINE``) or the breaker was open (``None``).
        """
        if observation.answer is not None:
            if isinstance(result, dict):
                # The deadline already answered degraded; the training
                # still counted, which is exactly what we want.
                METRICS.inc("serve.response.late")
            return
        if isinstance(result, dict):
            # A budgeted worker answers for real even while evicting;
            # the truthy-string tag lets clients (and the oracle)
            # distinguish "degraded because budget bit" from a full
            # answer without a wire-format change.
            evicting = bool(result.get("evicting"))
            if evicting:
                METRICS.inc("serve.response.evicting")
            response = Response(
                seq=observation.seq,
                status=Status.OK,
                predicted=result["predicted"],
                degraded="evicting" if evicting else False,
                shard=observation.shard,
                index=observation.ordinal,
            )
            METRICS.inc("serve.response.ok")
            METRICS.observe(
                "serve.latency.ok_us",
                (time.perf_counter() - observation.start) * 1e6,
            )
        else:
            if result is _DEADLINE:
                METRICS.inc("serve.deadline.missed")
            METRICS.inc("serve.response.degraded")
            METRICS.observe(
                "serve.latency.degraded_us",
                (time.perf_counter() - observation.start) * 1e6,
            )
            response = Response(
                seq=observation.seq,
                status=Status.OK,
                predicted=observation.fallback,
                degraded=True,
                shard=observation.shard,
                index=observation.ordinal,
            )
        answer = observation.answer = response.encode()
        deadlines = self._deadlines
        while deadlines and deadlines[0].answer is not None:
            deadlines.popleft()
        if deadlines:
            self._timer.arm(deadlines[0].expiry)
        else:
            self._timer.disarm()
        replies, observation.replies = observation.replies, []
        for reply in replies:
            reply(answer)
