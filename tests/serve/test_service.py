"""End-to-end service behaviour: correctness, idempotency, shedding."""

import asyncio
import json
import logging

from repro.core.tuples import pack
from repro.protocol.messages import MessageType
from repro.serve.chaos import ChaosScript
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.frontend import RETRY_AFTER_MS, PredictionService
from repro.serve.loadgen import replay_trace, verify_predictions
from repro.serve.protocol import (
    MAX_LINE,
    Request,
    Status,
    decode_response,
)
from repro.sim.metrics import METRICS

from .common import synthetic_events


def test_fault_free_stream_matches_the_mirror_oracle():
    async def main():
        events = synthetic_events(160, seed=3)
        service = PredictionService(ServeConfig(shards=2, seed=3))
        await service.start()
        try:
            report = await replay_trace(
                "127.0.0.1", service.port, events, client_id="oracle"
            )
        finally:
            await service.stop()
        assert report.sent == 160
        assert report.ok == 160
        assert report.degraded == 0
        assert report.errors == 0
        checked, wrong = verify_predictions(report.results)
        assert checked == 160
        assert wrong == 0

    asyncio.run(main())


def test_retransmitted_sequence_is_answered_from_cache():
    async def main():
        METRICS.reset()
        service = PredictionService(ServeConfig(shards=1))
        await service.start()
        word_args = ("n0.cache", 128, 1, int(MessageType.GET_RO_RESPONSE))
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "dup-client"
            ) as first:
                original = await first.observe(*word_args)
                trained_before = (await first.stat())["shards"][0]["trained"]
            # A reconnecting client retransmitting the same (client, seq)
            # -- e.g. its attempt deadline fired after the service had
            # already trained -- must get the cached answer back.
            async with ServeClient(
                "127.0.0.1", service.port, "dup-client"
            ) as second:
                replayed = await second.observe(*word_args)
                trained_after = (await second.stat())["shards"][0]["trained"]
        finally:
            await service.stop()
        assert replayed == original
        assert trained_after == trained_before  # not trained twice
        assert METRICS.counter("serve.dedupe.hit") == 1

    asyncio.run(main())


def test_retransmission_of_an_in_flight_sequence_trains_once(tmp_path):
    async def main():
        METRICS.reset()
        # The worker sits 300 ms on the first observation, well inside
        # the service deadline, while each client attempt gives up after
        # 100 ms: the retransmissions arrive while the first attempt is
        # still waiting on the worker.
        chaos = ChaosScript.parse("stall:shard=0,at=1,ms=300")
        config = ServeConfig(
            shards=1, deadline_ms=2_000.0, hang_timeout_ms=5_000.0
        )
        service = PredictionService(
            config, chaos=chaos, checkpoint_dir=tmp_path
        )
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1",
                service.port,
                "impatient",
                RetryPolicy(attempt_timeout_ms=100.0),
            ) as client:
                response = await client.observe(
                    "n0.cache", 64, 0, int(MessageType.GET_RO_RESPONSE)
                )
                shard = (await client.stat())["shards"][0]
        finally:
            await service.stop()
        assert METRICS.counter("serve.client.timeout") >= 1
        assert response.status == Status.OK
        assert not response.degraded
        assert response.index == 1
        # One observation, admitted and trained once however often it
        # was sent.
        assert shard["admitted"] == shard["trained"] == 1
        assert METRICS.counter("serve.dedupe.hit") >= 1

    asyncio.run(main())


async def _raw_observe(port, client, seq):
    """One attempt with no retry loop, so RETRY_AFTER is visible."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            Request(
                client=client,
                seq=seq,
                tenant="n0.cache",
                block=64 * seq,
                sender=0,
                mtype=int(MessageType.GET_RO_RESPONSE),
            ).encode()
        )
        await writer.drain()
        return decode_response(await reader.readline())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def test_queue_flood_is_shed_with_retry_after():
    async def main():
        METRICS.reset()
        # The worker stalls 500 ms on its first observation, so the
        # flood piles up behind a full in-flight window.
        chaos = ChaosScript.parse("stall:shard=0,at=1,ms=500")
        config = ServeConfig(shards=1, queue_depth=2, deadline_ms=100.0)
        service = PredictionService(config, chaos=chaos)
        await service.start()
        try:
            responses = await asyncio.gather(
                *(
                    _raw_observe(service.port, f"flood-{seq}", seq)
                    for seq in range(24)
                )
            )
        finally:
            await service.stop()
        shed = [r for r in responses if r.status == Status.RETRY_AFTER]
        served = [r for r in responses if r.status == Status.OK]
        assert len(shed) + len(served) == 24
        assert shed, "a 24-deep flood into a 2-deep window must shed"
        assert all(r.retry_after_ms == RETRY_AFTER_MS for r in shed)
        assert METRICS.counter("serve.shed.queue") == len(shed)

    asyncio.run(main())


def test_shed_client_retries_until_admitted():
    async def main():
        chaos = ChaosScript.parse("stall:shard=0,at=1,ms=300")
        config = ServeConfig(shards=1, queue_depth=1, deadline_ms=100.0)
        service = PredictionService(config, chaos=chaos)
        await service.start()
        try:
            policy = RetryPolicy(base_delay_ms=50.0, max_retries=20)
            async with ServeClient(
                "127.0.0.1", service.port, "a", policy
            ) as one, ServeClient(
                "127.0.0.1", service.port, "b", policy
            ) as two:
                responses = await asyncio.gather(
                    one.observe(
                        "t", 64, 0, int(MessageType.GET_RO_RESPONSE)
                    ),
                    two.observe(
                        "t", 128, 1, int(MessageType.GET_RW_RESPONSE)
                    ),
                )
        finally:
            await service.stop()
        # Both eventually get real answers; the retry loop absorbed any
        # RETRY_AFTER shed while the first observation stalled.
        assert all(r.status == Status.OK for r in responses)

    asyncio.run(main())


def test_deadline_miss_degrades_to_last_message():
    async def main():
        METRICS.reset()
        # The second observation stalls past the request deadline (but
        # under the hang budget, so the worker is never killed).
        chaos = ChaosScript.parse("stall:shard=0,at=2,ms=400")
        config = ServeConfig(
            shards=1, deadline_ms=100.0, hang_timeout_ms=2_000.0
        )
        service = PredictionService(config, chaos=chaos)
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "dl"
            ) as client:
                first = await client.observe(
                    "t", 64, 2, int(MessageType.INVAL_RO_REQUEST)
                )
                second = await client.observe(
                    "t", 64, 1, int(MessageType.GET_RW_RESPONSE)
                )
                # The degraded answer comes back at the deadline, while
                # the worker is still mid-stall; wait it out so the next
                # request sees a healthy worker again.
                await asyncio.sleep(0.5)
                third = await client.observe(
                    "t", 64, 0, int(MessageType.GET_RO_RESPONSE)
                )
        finally:
            await service.stop()
        assert not first.degraded
        # Deadline missed: answered degraded from the front-end's
        # last-message table -- the *previous* word for this block.
        assert second.degraded
        assert second.status == Status.OK
        assert second.predicted == pack((2, MessageType.INVAL_RO_REQUEST))
        # The worker still trained on it; later requests are normal.
        assert not third.degraded
        assert METRICS.counter("serve.deadline.missed") == 1

    asyncio.run(main())


def test_stat_reports_every_shard():
    async def main():
        service = PredictionService(ServeConfig(shards=3))
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "stat"
            ) as client:
                stat = await client.stat()
        finally:
            await service.stop()
        assert stat["op"] == "stat"
        assert [s["shard"] for s in stat["shards"]] == [0, 1, 2]
        assert all(s["state"] == "closed" for s in stat["shards"])
        assert all(s["epoch"] == 0 for s in stat["shards"])

    asyncio.run(main())


async def _line(reader):
    """The next line, failing instead of hanging when none comes."""
    return await asyncio.wait_for(reader.readline(), timeout=5.0)


def _request(seq, block):
    return Request(
        client="framing",
        seq=seq,
        tenant="n0.cache",
        block=block,
        sender=0,
        mtype=int(MessageType.GET_RO_RESPONSE),
    ).encode()


def test_split_and_coalesced_requests_are_each_answered_once_in_order():
    async def main():
        service = PredictionService(ServeConfig(shards=1))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        try:
            # One request, one byte per write: the front-end sees the
            # line arrive in pieces.
            for byte in _request(0, 64):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0.001)
            first = decode_response(await _line(reader))
            # Two requests in one write: the second waits in the
            # connection's buffer until the first is answered.
            writer.write(_request(1, 128) + _request(2, 64))
            await writer.drain()
            second = decode_response(await _line(reader))
            third = decode_response(await _line(reader))
            # Nothing else was written: the next line answers a stat.
            writer.write(b'{"op":"stat"}\n')
            await writer.drain()
            stat = json.loads(await _line(reader))
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()
        assert [r.seq for r in (first, second, third)] == [0, 1, 2]
        assert [r.index for r in (first, second, third)] == [1, 2, 3]
        assert all(
            r.status == Status.OK and not r.degraded
            for r in (first, second, third)
        )
        assert stat["op"] == "stat"
        assert stat["shards"][0]["admitted"] == 3
        assert stat["shards"][0]["trained"] == 3

    asyncio.run(main())


def test_a_boolean_seq_is_answered_as_an_error_and_trains_nothing():
    async def main():
        METRICS.reset()
        service = PredictionService(ServeConfig(shards=1))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        try:
            line = _request(1, 64).replace(b'"seq":1', b'"seq":true')
            assert b'"seq":true' in line
            writer.write(line)
            await writer.drain()
            answer = decode_response(await _line(reader))
            writer.write(b'{"op":"stat"}\n')
            await writer.drain()
            stat = json.loads(await _line(reader))
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()
        assert answer.status == Status.ERROR
        assert "'seq'" in answer.error
        assert METRICS.counter("serve.request.malformed") == 1
        assert stat["shards"][0]["admitted"] == 0
        assert stat["shards"][0]["trained"] == 0

    asyncio.run(main())


def test_an_overlong_request_line_is_answered_and_the_connection_closed(
    caplog,
):
    async def main():
        METRICS.reset()
        service = PredictionService(ServeConfig(shards=1))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        try:
            writer.write(b"x" * (MAX_LINE + 1))
            await writer.drain()
            answer = decode_response(await _line(reader))
            closed = await _line(reader)
            # The service itself keeps serving.
            async with ServeClient(
                "127.0.0.1", service.port, "after"
            ) as client:
                after = await client.observe(
                    "n0.cache", 64, 0, int(MessageType.GET_RO_RESPONSE)
                )
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()
        assert answer.status == Status.ERROR
        assert str(MAX_LINE) in answer.error
        assert closed == b""
        assert METRICS.counter("serve.request.malformed") == 1
        assert after.status == Status.OK

    caplog.set_level(logging.ERROR, logger="asyncio")
    asyncio.run(main())
    assert not [r for r in caplog.records if r.name == "asyncio"]
