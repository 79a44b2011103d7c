"""The asyncio front-end: admission, deadlines, degraded fallback.

One :class:`PredictionService` owns a TCP listener (JSON lines), the
consistent-hash ring, the supervisor, and two small front-end tables:

* the **dedupe cache** -- ``(client, seq) -> answer``, bounded FIFO.
  A retransmitted request (client deadline fired, or the connection
  dropped mid-response) is answered from cache without training again:
  the same idempotency-by-sequence-number discipline as
  :mod:`repro.protocol.recovery`.  A key is registered as in flight
  before admission, so a retransmission that arrives while the first
  attempt still waits on its worker awaits that attempt's answer.
  ``RETRY_AFTER`` rejections are never cached -- they admitted nothing,
  so the retry must be processed fresh.
* the **fallback table** -- last observed word per ``(tenant, block)``,
  the :class:`~repro.predictors.last_message.LastMessagePredictor`
  discipline kept at the front so it survives any worker.  While a
  shard's breaker is open, or a request blows its deadline, the service
  answers from this table with ``degraded=true`` instead of stalling or
  erroring: prediction consumers are speculative by design (paper
  Section 2), so a cheaper guess is strictly better than no answer.

Request handling never blocks the event loop: the supervisor drives
the worker pipes from the loop itself (one small message in a pipe at a
time), and waiting on the worker's answer is an awaited future that a
loop timer fails once ``deadline_ms`` has passed.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.tuples import pack
from ..errors import ServeError
from ..protocol.messages import MessageType
from ..sim.metrics import METRICS
from .chaos import ChaosScript
from .config import ServeConfig
from .hashring import HashRing
from .protocol import Response, Status, decode_request
from .supervisor import Backpressure, ShardSupervisor, WorkerDown

#: ``(client, seq)`` response cache entries kept for idempotency.
DEDUPE_CAPACITY = 4_096


def _expire(future: asyncio.Future) -> None:
    """Deadline timer: give up on a worker answer still outstanding."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


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
        #: The future of each recent answer, registered at admission.
        self._dedupe: "OrderedDict[Tuple[str, int], asyncio.Future]" = (
            OrderedDict()
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The bound port (useful with ``port=0``), set by :meth:`start`.
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.supervisor.stop()

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    record = decode_request(line)
                except ServeError as exc:
                    METRICS.inc("serve.request.malformed")
                    writer.write(
                        Response(
                            seq=-1, status=Status.ERROR, error=str(exc)
                        ).encode()
                    )
                    await writer.drain()
                    continue
                op = record["op"]
                if op == "observe":
                    response = await self._observe(record)
                    writer.write(response.encode())
                elif op == "stat":
                    # A stat poll doubles as the breaker's probe driver:
                    # half-open shards get a health ping, so "poll until
                    # closed" terminates even with no client traffic.
                    self.supervisor.probe_half_open()
                    writer.write(
                        (
                            json.dumps(
                                {
                                    "status": Status.OK,
                                    "op": "stat",
                                    "shards": self.supervisor.stats(),
                                },
                                separators=(",", ":"),
                            )
                            + "\n"
                        ).encode("utf-8")
                    )
                else:
                    writer.write(
                        Response(
                            seq=record.get("seq", -1),
                            status=Status.ERROR,
                            error=f"unknown operation {op!r}",
                        ).encode()
                    )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    # ------------------------------------------------------------------
    # one observation
    # ------------------------------------------------------------------

    async def _observe(self, record: dict) -> Response:
        seq = record["seq"]
        key = (record["client"], seq)
        cached = self._dedupe.get(key)
        if cached is not None:
            METRICS.inc("serve.dedupe.hit")
            # A first attempt still in flight shares its answer when it
            # comes, rather than the observation training twice.
            return await asyncio.shield(cached)
        tenant = record["tenant"]
        block = record["block"]
        word = pack((record["sender"], MessageType(record["mtype"])))
        shard = self.ring.shard_for(tenant, block)
        # The fallback prediction must be read *before* this observation
        # trains the table: "the next message repeats the last one".
        fallback = self._last.get((tenant, block), -1)
        answered = self._dedupe[key] = self._loop.create_future()
        try:
            ordinal, future = self.supervisor.try_submit(
                shard, tenant, block, word
            )
        except Backpressure:
            del self._dedupe[key]
            METRICS.inc("serve.response.retry_after")
            # Deliberately not cached: nothing was admitted, so the
            # client's retry of this seq must be processed for real.
            return Response(
                seq=seq,
                status=Status.RETRY_AFTER,
                shard=shard,
                retry_after_ms=self.config.retry_after_ms,
            )
        self._last[(tenant, block)] = word
        start = time.perf_counter()
        if future is None:
            # Breaker open: the observation is buffered for replay;
            # answer degraded right now.
            response = self._degraded(seq, fallback, shard, ordinal, start)
        else:
            deadline = self._loop.call_later(
                self.config.deadline_ms / 1_000.0, _expire, future
            )
            try:
                result = await future
                # A budgeted worker answers for real even while evicting;
                # the truthy-string tag lets clients (and the oracle)
                # distinguish "degraded because budget bit" from a full
                # answer without a wire-format change.
                evicting = bool(result.get("evicting"))
                if evicting:
                    METRICS.inc("serve.response.evicting")
                response = Response(
                    seq=seq,
                    status=Status.OK,
                    predicted=result["predicted"],
                    degraded="evicting" if evicting else False,
                    shard=shard,
                    index=ordinal,
                )
                METRICS.inc("serve.response.ok")
                METRICS.observe(
                    "serve.latency.ok_us",
                    (time.perf_counter() - start) * 1e6,
                )
            except asyncio.TimeoutError:
                METRICS.inc("serve.deadline.missed")
                response = self._degraded(
                    seq, fallback, shard, ordinal, start
                )
            except WorkerDown:
                response = self._degraded(
                    seq, fallback, shard, ordinal, start
                )
            finally:
                deadline.cancel()
        answered.set_result(response)
        while len(self._dedupe) > DEDUPE_CAPACITY:
            self._dedupe.popitem(last=False)
        return response

    def _degraded(
        self, seq: int, fallback: int, shard: int, ordinal: int, start: float
    ) -> Response:
        METRICS.inc("serve.response.degraded")
        METRICS.observe(
            "serve.latency.degraded_us", (time.perf_counter() - start) * 1e6
        )
        return Response(
            seq=seq,
            status=Status.OK,
            predicted=fallback,
            degraded=True,
            shard=shard,
            index=ordinal,
        )
