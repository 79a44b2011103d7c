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

from ..errors import ServeError
from ..sim.metrics import METRICS
from .protocol import Request, Response, Status, decode_response


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
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def _roundtrip(self, payload: bytes, slow_read_s: float = 0.0):
        """One attempt: write, (optionally dawdle), read one line."""
        if self._writer is None:
            await self.connect()
        self._writer.write(payload)
        await self._writer.drain()
        if slow_read_s:
            # Scripted slow-client behaviour (chaos `slow` action): the
            # response sits in the kernel buffer while we dawdle.
            await asyncio.sleep(slow_read_s)
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("service closed the connection")
        return line

    async def _attempt(self, payload: bytes, slow_read_s: float = 0.0):
        """One round trip, bounded by the policy's attempt deadline.

        A loop timer cancels the calling task at the deadline, and only
        that cancellation turns into :class:`asyncio.TimeoutError`.
        (``asyncio.wait_for`` runs each attempt in a Task of its own
        before Python 3.12; ``asyncio.timeout`` is 3.11+.)
        """
        task = asyncio.current_task()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        timer = asyncio.get_running_loop().call_later(
            self.policy.attempt_timeout_ms / 1_000.0, expire
        )
        try:
            return await self._roundtrip(payload, slow_read_s)
        except asyncio.CancelledError:
            if not expired:
                raise
            # 3.11+ counts cancellations: consume ours, and stay
            # cancelled if someone else cancelled the task as well.
            if hasattr(task, "uncancel") and task.uncancel() > 0:
                raise
            raise asyncio.TimeoutError() from None
        finally:
            timer.cancel()

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
                await self._reset()
                await asyncio.sleep(delay_ms / 1_000.0)
                delay_ms = self.policy.next_delay(delay_ms)
                continue
            except (ConnectionResetError, BrokenPipeError, OSError):
                METRICS.inc("serve.client.reconnect")
                last_error = "connection lost"
                await self._reset()
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

    async def _reset(self) -> None:
        try:
            await self.close()
        except OSError:
            self._writer = None
            self._reader = None
