"""The shard pipe's binary frames: layouts, framing, torn frames.

Every frame kind round-trips through the layouts of
:mod:`repro.serve.worker` over a real socket pair, the way the
supervisor and a worker exchange them.  A worker that dies in the middle
of writing a frame fails its shard like any other crash: the observation
it held is answered degraded and replayed, and no answer is wrong.
"""

import asyncio
import os
import socket
import threading
from multiprocessing import get_context

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import supervisor as supervisor_module
from repro.serve.chaos import ChaosScript
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.loadgen import replay_trace, tenant_of, verify_predictions
from repro.serve.worker import (
    MEMORY_KEYS,
    OBSERVE,
    OBSERVE_TAG,
    OBSERVED,
    OBSERVED_TAG,
    PING_FRAME,
    PING_TAG,
    PONG,
    PONG_TAG,
    READY,
    READY_TAG,
    ShardBanks,
    read_frame,
    worker_main,
    write_frame,
)
from repro.sim.metrics import METRICS

from .common import synthetic_events, wait_all_closed

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
NATURAL64 = st.integers(min_value=0, max_value=2**63 - 1)
#: Any text that encodes as UTF-8: every code point but the surrogates.
TENANTS = st.text(st.characters(exclude_categories=("Cs",)))
MEMORIES = st.tuples(*[INT64] * len(MEMORY_KEYS))


@pytest.fixture
def pipe():
    """A connected stream socket pair, the transport a duplex Pipe uses."""
    left, right = socket.socketpair()
    yield left.fileno(), right.fileno()
    left.close()
    right.close()


def _through(frame):
    """``frame`` written at one end of a fresh socket pair, read at the other."""
    left, right = socket.socketpair()
    try:
        write_frame(left.fileno(), frame)
        return read_frame(right.fileno())
    finally:
        left.close()
        right.close()


def _with_length(struct, *fields):
    return struct.pack(struct.size - 4, *fields)


@settings(max_examples=200)
@given(seq=NATURAL64, block=NATURAL64, word=st.integers(0, 2**16 - 1),
       tenant=TENANTS)
@example(seq=2**63 - 1, block=2**63 - 1, word=2**16 - 1,
         tenant="n0.cache\U0001f600é\x00")
def test_observe_round_trip(seq, block, word, tenant):
    data = tenant.encode("utf-8")
    frame = _through(
        OBSERVE.pack(OBSERVE.size - 4 + len(data), OBSERVE_TAG, seq, block,
                     word)
        + data
    )
    assert frame[4] == OBSERVE_TAG
    assert OBSERVE.unpack_from(frame)[2:] == (seq, block, word)
    assert frame[OBSERVE.size:].decode("utf-8") == tenant


def test_ping_round_trip():
    frame = _through(PING_FRAME)
    assert frame == PING_FRAME
    assert len(frame) == 5 and frame[4] == PING_TAG


@given(trained=NATURAL64)
@example(trained=2**63 - 1)
def test_ready_round_trip(trained):
    frame = _through(_with_length(READY, READY_TAG, trained))
    assert READY.unpack_from(frame) == (READY.size - 4, READY_TAG, trained)


@settings(max_examples=200)
@given(seq=NATURAL64, predicted=st.integers(-1, 2**16 - 1),
       trained=NATURAL64, ckpt=NATURAL64, evicting=st.booleans())
@example(seq=2**63 - 1, predicted=-1, trained=2**63 - 1, ckpt=0,
         evicting=True)
def test_observed_round_trip(seq, predicted, trained, ckpt, evicting):
    fields = (seq, predicted, trained, ckpt, evicting)
    frame = _through(_with_length(OBSERVED, OBSERVED_TAG, *fields))
    assert frame[4] == OBSERVED_TAG
    assert OBSERVED.unpack_from(frame)[2:] == fields
    assert len(frame) == OBSERVED.size


@given(trained=NATURAL64, memory=MEMORIES)
@example(trained=2**63 - 1, memory=(-(2**63),) + (2**63 - 1,) * 8)
def test_pong_round_trip(trained, memory):
    frame = _through(_with_length(PONG, PONG_TAG, trained, *memory))
    _size, tag, got_trained, *got_memory = PONG.unpack_from(frame)
    assert (tag, got_trained, tuple(got_memory)) == (
        PONG_TAG, trained, memory
    )


def test_a_frame_written_in_two_parts_is_reassembled(pipe):
    writer, reader = pipe
    tenant = "tenant-\U0001f600".encode("utf-8")
    frame = OBSERVE.pack(
        OBSERVE.size - 4 + len(tenant), OBSERVE_TAG, 7, 4096, 33
    ) + tenant
    # The header and part of the body first; the rest only once the
    # reader has taken the first part and is waiting for more.
    os.write(writer, frame[:6])
    rest = threading.Timer(0.05, os.write, (writer, frame[6:]))
    rest.start()
    try:
        assert read_frame(reader) == frame
    finally:
        rest.join()


def test_a_frame_longer_than_one_read_is_reassembled(pipe):
    writer, reader = pipe
    tenant = b"t" * (100 * 1024)
    frame = OBSERVE.pack(
        OBSERVE.size - 4 + len(tenant), OBSERVE_TAG, 1, 2, 3
    ) + tenant
    sender = threading.Thread(target=write_frame, args=(writer, frame))
    sender.start()
    try:
        assert read_frame(reader) == frame
    finally:
        sender.join()


@pytest.mark.parametrize("cut", [0, 3, 4, 10])
def test_eof_before_or_within_a_frame_raises_eof(cut):
    left, right = socket.socketpair()
    try:
        frame = _with_length(READY, READY_TAG, 5)
        os.write(left.fileno(), frame[:cut])
        left.close()
        with pytest.raises(EOFError):
            read_frame(right.fileno())
    finally:
        right.close()


def test_a_worker_dies_on_an_unknown_frame_tag(tmp_path):
    ctx = get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=worker_main,
        args=(child, 0, ServeConfig(shards=1), str(tmp_path), 0, {}),
        daemon=True,
    )
    process.start()
    child.close()
    try:
        fd = parent.fileno()
        assert read_frame(fd)[4] == READY_TAG
        write_frame(fd, (1).to_bytes(4, "big") + b"?")
        with pytest.raises(EOFError):
            read_frame(fd)
        process.join(timeout=30)
        assert process.exitcode not in (0, None)
    finally:
        if process.is_alive():
            process.kill()
        process.join()
        parent.close()


# ----------------------------------------------------------------------
# a worker that dies mid-frame
# ----------------------------------------------------------------------

#: The first-incarnation worker of shard 0 writes only half the response
#: to its TORN_AT-th observation, then dies.
TORN_AT = 20


def _torn_worker(conn, shard, config, checkpoint_dir, epoch, chaos):
    """``worker_main``, tearing one response frame in its first life."""
    if shard == 0 and epoch == 0:
        from repro.serve import worker

        whole = worker.write_frame
        written = [0]

        def torn(fd, frame):
            written[0] += 1
            if written[0] == 1 + TORN_AT:  # the ready frame comes first
                os.write(fd, frame[: len(frame) // 2])
                os._exit(3)
            whole(fd, frame)

        worker.write_frame = torn
    worker_main(conn, shard, config, checkpoint_dir, epoch, chaos)


def test_eof_mid_frame_fails_the_shard_with_no_wrong_answer(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(supervisor_module, "worker_main", _torn_worker)

    async def main():
        events = synthetic_events(80, seed=5)
        service = PredictionService(
            ServeConfig(shards=1, seed=5, checkpoint_every=8),
            checkpoint_dir=tmp_path,
        )
        await service.start()
        try:
            report = await replay_trace(
                "127.0.0.1", service.port, events, client_id="torn"
            )
            async with ServeClient(
                "127.0.0.1", service.port, "torn-stat"
            ) as client:
                recovered = await wait_all_closed(client)
                stat = (await client.stat())["shards"][0]
        finally:
            await service.stop()
        return report, recovered, stat

    METRICS.reset()
    report, recovered, stat = asyncio.run(main())
    assert report.sent == 80 and report.errors == 0
    # The torn observation was answered degraded; it still trained, by
    # replay into the restored worker, so every other answer checks.
    assert report.degraded >= 1
    assert [r.index for r in report.results if r.degraded][0] == TORN_AT
    checked, wrong = verify_predictions(report.results)
    assert wrong == 0
    assert checked == report.ok
    assert recovered
    assert stat["restores"] == 1
    assert stat["admitted"] == stat["trained"] == 80
    assert METRICS.counter("serve.restore.gap") == 0


# ----------------------------------------------------------------------
# the memory report survives the trip
# ----------------------------------------------------------------------


def _shard_banks_memory(config, results):
    """The memory a worker's banks report after training ``results``."""
    banks = ShardBanks(config.predictor_config(), {})
    for result in sorted(results, key=lambda r: r.index):
        banks.observe(result.tenant, result.block, result.word)
    return banks.memory()


async def _replay_and_stat(config, events, chaos=None, restores=0):
    """Replay ``events``, then poll ``stat`` until the shard has been
    restored ``restores`` times and its breaker is closed again."""
    service = PredictionService(config, chaos=chaos)
    await service.start()
    try:
        report = await replay_trace(
            "127.0.0.1", service.port, events, client_id="memory"
        )
        async with ServeClient(
            "127.0.0.1", service.port, "memory-stat"
        ) as client:
            for _ in range(400):
                stat = (await client.stat())["shards"][0]
                if stat["restores"] == restores and stat["state"] == "closed":
                    break
                await asyncio.sleep(0.05)
    finally:
        await service.stop()
    assert stat["restores"] == restores and stat["state"] == "closed", stat
    return report, stat


def _budgeted(**overrides):
    return ServeConfig(
        shards=1, seed=6, checkpoint_every=32, tenant_mhr_budget=4,
        tenant_pht_budget=16, eviction="lru", **overrides
    )


def test_a_budgeted_stat_memory_report_equals_the_worker_banks():
    config = _budgeted()
    events = synthetic_events(200, seed=6, nodes=3, blocks=12)
    report, stat = asyncio.run(_replay_and_stat(config, events))
    assert report.evicting > 0  # the budget bound
    expected = _shard_banks_memory(config, report.results)
    assert list(stat["memory"]) == list(expected)
    assert stat["memory"] == expected


def test_a_pong_carries_the_worker_banks_memory_report():
    # Workers report memory only on pongs.  A kill after the last
    # observation leaves the report to the restored worker, which the
    # stat polls ask once its breaker has closed.
    config = ServeConfig(shards=1, seed=7, checkpoint_every=32)
    events = synthetic_events(120, seed=7, nodes=3, blocks=12)
    report, stat = asyncio.run(
        _replay_and_stat(
            config,
            events,
            ChaosScript.parse("kill:shard=0,at=120"),
            restores=1,
        )
    )
    expected = _shard_banks_memory(config, report.results)
    assert list(stat["memory"]) == list(expected)
    assert stat["memory"] == expected


def test_an_unbudgeted_stat_reports_every_shards_memory():
    # No budget and no lost worker: only the stat's own pings report.
    config = ServeConfig(shards=2, seed=9, checkpoint_every=32)
    events = synthetic_events(160, seed=9, nodes=3, blocks=12)

    async def main():
        service = PredictionService(config)
        await service.start()
        try:
            report = await replay_trace(
                "127.0.0.1", service.port, events, client_id="unbudgeted"
            )
            async with ServeClient(
                "127.0.0.1", service.port, "unbudgeted-stat"
            ) as client:
                stats = (await client.stat())["shards"]
        finally:
            await service.stop()
        return report, stats

    report, stats = asyncio.run(main())
    assert report.degraded == 0
    for shard in stats:
        assert shard["state"] == "closed" and shard["restores"] == 0
        expected = _shard_banks_memory(
            config,
            [r for r in report.results if r.shard == shard["shard"]],
        )
        assert expected["tenants"] > 0
        assert list(shard["memory"]) == list(expected)
        assert shard["memory"] == expected


def test_a_stat_during_a_stall_answers_by_the_deadline():
    # Observation 5 stalls its worker 3 s, past the 250 ms deadline but
    # short of the 2 s hang budget that would open the breaker: the
    # stat's ping waits behind it, and the stat does not.
    deadline_ms = 250.0
    config = ServeConfig(
        shards=1, seed=10, deadline_ms=deadline_ms, hang_timeout_ms=2_000.0
    )
    chaos = ChaosScript.parse("stall:shard=0,at=5,ms=3000")
    events = synthetic_events(5, seed=10)

    async def main():
        service = PredictionService(config, chaos=chaos)
        await service.start()
        loop = asyncio.get_running_loop()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "stall"
            ) as client:
                for event in events[:4]:
                    await client.observe(
                        tenant_of(event), event.block, event.sender,
                        int(event.mtype),
                    )
                before = (await client.stat())["shards"][0]
                stalled = events[4]
                response = await client.observe(
                    tenant_of(stalled), stalled.block, stalled.sender,
                    int(stalled.mtype),
                )
                assert response.degraded  # the deadline answered it
                start = loop.time()
                during = (await client.stat())["shards"][0]
                elapsed = loop.time() - start
        finally:
            await service.stop()
        return before, during, elapsed

    before, during, elapsed = asyncio.run(main())
    assert before["memory"] is not None
    assert during["state"] == "closed"  # the hang budget has not run out
    assert during["trained"] == 4
    assert during["memory"] == before["memory"]
    assert deadline_ms / 1_000.0 <= elapsed + 0.01
    assert elapsed < deadline_ms / 1_000.0 + 0.5
