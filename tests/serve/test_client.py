"""The client's attempt deadline, against a scripted fake front-end.

No worker processes: a bare asyncio server plays the service, so the
tests pin only the client's own timeout and cancellation handling.
"""

import asyncio
import sys

import pytest

from repro.protocol.messages import MessageType
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.protocol import Response, Status
from repro.sim.metrics import METRICS

MTYPE = int(MessageType.GET_RO_RESPONSE)
POLICY = RetryPolicy(attempt_timeout_ms=50.0, base_delay_ms=1.0)


async def _fake_service(answer_from_attempt):
    """A server that stays silent until the given (1-based) attempt."""
    attempts = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            attempts.append(line)
            if len(attempts) >= answer_from_attempt:
                writer.write(
                    Response(
                        seq=0, status=Status.OK, predicted=7, shard=0, index=1
                    ).encode()
                )
                await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], attempts


def test_an_unanswered_attempt_times_out_and_is_retried():
    async def main():
        METRICS.reset()
        server, port, attempts = await _fake_service(answer_from_attempt=2)
        try:
            async with ServeClient("127.0.0.1", port, "c", POLICY) as client:
                response = await client.observe("t", 64, 0, MTYPE)
                # The expired deadline's cancellation was consumed: the
                # task is not left cancelling, and later awaits work.
                if sys.version_info >= (3, 11):
                    assert asyncio.current_task().cancelling() == 0
                await asyncio.sleep(0)
        finally:
            server.close()
            await server.wait_closed()
        assert response.status == Status.OK
        assert response.predicted == 7
        assert len(attempts) == 2
        assert attempts[0] == attempts[1]  # same seq: idempotent retry
        assert METRICS.counter("serve.client.timeout") == 1

    asyncio.run(main())


def test_an_outside_cancellation_is_not_turned_into_a_timeout():
    async def main():
        METRICS.reset()
        server, port, _attempts = await _fake_service(answer_from_attempt=99)
        try:
            async with ServeClient(
                "127.0.0.1",
                port,
                "c",
                RetryPolicy(attempt_timeout_ms=5_000.0),
            ) as client:
                task = asyncio.ensure_future(
                    client.observe("t", 64, 0, MTYPE)
                )
                await asyncio.sleep(0.05)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
        finally:
            server.close()
            await server.wait_closed()
        assert METRICS.counter("serve.client.timeout") == 0

    asyncio.run(main())
