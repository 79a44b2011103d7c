"""The client library: deadlines, bounded-backoff retry, idempotency.

A :class:`ServeClient` is the service-side twin of
:class:`~repro.protocol.recovery.RecoveryConfig`: every observation
carries a per-client sequence number, a transport deadline bounds each
attempt, an unanswered or load-shed attempt is re-sent after a bounded
exponential backoff, and retries are idempotent -- the front-end's
dedupe cache answers a retransmission of an already-processed sequence
number from cache instead of training twice.  Exhausting the retry
budget raises :class:`~repro.errors.ServeError` instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Optional

from ..errors import ServeError
from ..sim.metrics import METRICS
from .protocol import LineFramer, Request, Response, Status, decode_response
from .timer import LazyTimer


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff (RecoveryConfig, in milliseconds)."""

    #: Transport deadline per attempt: covers the server's own request
    #: deadline plus queueing and loopback time.
    attempt_timeout_ms: float = 2_000.0
    #: First backoff delay after a RETRY_AFTER or a transport timeout.
    base_delay_ms: float = 20.0
    backoff: float = 2.0
    max_delay_ms: float = 500.0
    #: Attempts beyond the first before giving up.
    max_retries: int = 10

    def next_delay(self, current_ms: float) -> float:
        return min(self.max_delay_ms, current_ms * self.backoff)


class _Connection(LineFramer):
    """The client's end of one connection: one awaited line at a time.

    The attempt deadline fails the read waiter itself, through one
    lazily re-armed loop timer per connection; losing the connection
    fails it with :class:`ConnectionResetError`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__()
        self._loop = loop
        self._waiter: Optional[asyncio.Future] = None
        self._lost: Optional[BaseException] = None
        self._deadline = LazyTimer(loop, self._expire)
        #: Resolved once the transport is gone.
        self.closed = loop.create_future()

    def inbox_updated(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            line = self.take_line()
            if line is not None:
                self._waiter = None
                self._deadline.disarm()
                if not waiter.done():
                    waiter.set_result(line)

    def eof_received(self) -> None:
        self._gone(ConnectionResetError("service closed the connection"))

    def connection_lost(self, exc) -> None:
        self._gone(
            exc or ConnectionResetError("service closed the connection")
        )
        self._deadline.cancel()
        self.transport = None
        if not self.closed.done():
            self.closed.set_result(None)

    def _gone(self, exc: BaseException) -> None:
        if self._lost is None:
            self._lost = exc
        self._fail(self._lost)

    def _expire(self) -> None:
        self._fail(asyncio.TimeoutError())

    def _fail(self, exc: BaseException) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(exc)

    def expect_line(self, timeout_s: float) -> asyncio.Future:
        """A future for the next line, failed after ``timeout_s``."""
        waiter = self._waiter = self._loop.create_future()
        if self._lost is not None:
            self._fail(self._lost)
        else:
            self._deadline.arm(self._loop.time() + timeout_s)
            self.inbox_updated()
        return waiter


class ServeClient:
    """One connection to the service, with retry and idempotency."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.policy = policy
        self._seq = 0
        self._connection: Optional[_Connection] = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        _transport, self._connection = await loop.create_connection(
            lambda: _Connection(loop), self.host, self.port
        )

    async def close(self) -> None:
        connection, self._connection = self._connection, None
        if connection is not None and connection.transport is not None:
            connection.transport.close()
            await connection.closed

    async def _attempt(self, payload: bytes, slow_read_s: float = 0.0):
        """One round trip: write, (optionally dawdle), read one line.

        The policy's attempt deadline fails the read with
        :class:`asyncio.TimeoutError`; one that passes during a scripted
        dawdle surfaces when the dawdle ends.
        """
        if self._connection is None:
            await self.connect()
        connection = self._connection
        waiter = connection.expect_line(
            self.policy.attempt_timeout_ms / 1_000.0
        )
        try:
            if connection.transport is not None:
                connection.transport.write(payload)
            if slow_read_s:
                # Scripted slow-client behaviour (chaos `slow` action):
                # the response waits while we dawdle.
                await asyncio.sleep(slow_read_s)
            return await waiter
        finally:
            if not waiter.done():
                waiter.cancel()  # an outside cancellation

    async def observe(
        self,
        tenant: str,
        block: int,
        sender: int,
        mtype: int,
        slow_read_s: float = 0.0,
    ) -> Response:
        """Stream one observation; returns the service's answer.

        Retries (same sequence number -- idempotent) on ``RETRY_AFTER``,
        transport timeouts, and dropped connections, with bounded
        exponential backoff.  Raises :class:`~repro.errors.ServeError`
        when the retry budget is exhausted.
        """
        seq = self._seq
        self._seq += 1
        request = Request(
            client=self.client_id,
            seq=seq,
            tenant=tenant,
            block=block,
            sender=sender,
            mtype=int(mtype),
        ).encode()
        delay_ms = self.policy.base_delay_ms
        last_error = "no attempt made"
        for _attempt in range(self.policy.max_retries + 1):
            try:
                line = await self._attempt(request, slow_read_s)
            except asyncio.TimeoutError:
                # The attempt may have been admitted server-side; the
                # retransmission below is answered from the dedupe
                # cache if so -- never trained twice.
                METRICS.inc("serve.client.timeout")
                last_error = "attempt deadline exceeded"
                await self.close()
                await asyncio.sleep(delay_ms / 1_000.0)
                delay_ms = self.policy.next_delay(delay_ms)
                continue
            except (ConnectionResetError, BrokenPipeError, OSError):
                METRICS.inc("serve.client.reconnect")
                last_error = "connection lost"
                await self.close()
                await asyncio.sleep(delay_ms / 1_000.0)
                delay_ms = self.policy.next_delay(delay_ms)
                continue
            response = decode_response(line)
            if response.status == Status.RETRY_AFTER:
                METRICS.inc("serve.client.retry_after")
                last_error = "load shed"
                wait_ms = max(response.retry_after_ms, delay_ms)
                await asyncio.sleep(wait_ms / 1_000.0)
                delay_ms = self.policy.next_delay(delay_ms)
                continue
            return response
        raise ServeError(
            f"observe(client={self.client_id!r}, seq={seq}) exhausted "
            f"{self.policy.max_retries} retries: {last_error}"
        )

    async def stat(self) -> dict:
        """The service's per-shard state (circuit breakers, counters)."""
        line = await self._attempt(b'{"op":"stat"}\n')
        return json.loads(line.decode("utf-8"))
