"""The front-end's event loop: never held up by a worker, few wake-ups.

The supervisor drives every shard worker's pipe from the event-loop
thread, so two properties matter: a worker that is slow to answer must
not delay answers from the other shards (nothing on the loop thread may
block on a pipe), and a closed-loop observation should cost a small,
fixed number of event-loop iterations.
"""

import asyncio
import cProfile
import logging
import pstats
import time

from repro.protocol.messages import MessageType
from repro.serve.chaos import ChaosScript
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.hashring import HashRing
from repro.serve.protocol import Status

from .common import synthetic_events, wait_all_closed

MTYPE = int(MessageType.GET_RO_RESPONSE)
TENANT = "n0.cache"

#: Shard 0's worker sleeps this long before answering its first
#: observation.
STALL_MS = 400.0


def _blocks_on(shard, count, shards=2):
    """The first ``count`` block addresses the ring routes to ``shard``."""
    ring = HashRing(shards)
    blocks = []
    candidate = 0
    while len(blocks) < count:
        if ring.shard_for(TENANT, candidate) == shard:
            blocks.append(candidate)
        candidate += 64
    return blocks


def test_a_stalled_worker_never_holds_up_the_other_shard(tmp_path):
    async def main():
        chaos = ChaosScript.parse(f"stall:shard=0,at=1,ms={STALL_MS:g}")
        config = ServeConfig(
            shards=2, deadline_ms=250.0, hang_timeout_ms=2_000.0
        )
        service = PredictionService(
            config, chaos=chaos, checkpoint_dir=tmp_path
        )
        await service.start()
        (stalled_block,) = _blocks_on(0, 1)
        healthy_blocks = _blocks_on(1, 20)
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "stalled"
            ) as stalled, ServeClient(
                "127.0.0.1", service.port, "healthy"
            ) as healthy:
                # Shard 0's first observation, not awaited: its worker
                # sits in the scripted stall while we go on.
                pending = asyncio.ensure_future(
                    stalled.observe(TENANT, stalled_block, 0, MTYPE)
                )
                for _ in range(200):
                    shards = (await healthy.stat())["shards"]
                    if shards[0]["inflight"] == 1:
                        break
                    await asyncio.sleep(0.005)
                else:
                    raise AssertionError("stalled observation never admitted")
                # The front-end serves one connection's requests in
                # order, so the healthy traffic uses its own connection.
                started = time.perf_counter()
                latencies = []
                for block in healthy_blocks:
                    before = time.perf_counter()
                    response = await healthy.observe(TENANT, block, 1, MTYPE)
                    latencies.append(time.perf_counter() - before)
                    assert response.status == Status.OK
                    assert response.shard == 1
                    assert not response.degraded
                elapsed = time.perf_counter() - started
                still_stalled = not pending.done()
                late = await pending
        finally:
            await service.stop()
        # Every healthy answer came back while shard 0 was still asleep,
        # each far inside the stall.
        assert still_stalled
        assert max(latencies) < 0.25 * STALL_MS / 1_000.0, latencies
        assert elapsed < 0.5 * STALL_MS / 1_000.0, elapsed
        # The stalled observation itself missed its deadline.
        assert late.status == Status.OK
        assert late.degraded

    asyncio.run(main())


#: The longest a loop callback may run in debug mode before asyncio
#: logs it; a worker's start-up (imports, warm restore) takes several
#: times this, so waiting for one on the loop cannot pass unnoticed.
SLOW_CALLBACK_S = 0.1


def test_nothing_blocks_the_loop_through_start_kill_and_restore(
    tmp_path, caplog
):
    async def main():
        asyncio.get_running_loop().slow_callback_duration = SLOW_CALLBACK_S
        chaos = ChaosScript.parse("kill:shard=0,at=5")
        service = PredictionService(
            ServeConfig(shards=1), chaos=chaos, checkpoint_dir=tmp_path
        )
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "unblocked"
            ) as client:
                degraded = 0
                for index in range(10):
                    response = await client.observe(
                        TENANT, 64 * index, 0, MTYPE
                    )
                    assert response.status == Status.OK
                    degraded += bool(response.degraded)
                assert await wait_all_closed(client)
                shard = (await client.stat())["shards"][0]
        finally:
            await service.stop()
        assert degraded >= 1
        assert shard["restores"] == 1
        assert shard["trained"] == shard["admitted"] == 10

    caplog.set_level(logging.WARNING, logger="asyncio")
    asyncio.run(main(), debug=True)
    slow = [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and "took" in record.getMessage()
    ]
    assert not slow, slow


#: Closed-loop observations measured under the profiler, after warm-up.
OBSERVATIONS = 200
#: Event-loop iterations one closed-loop observation may cost, with the
#: client in the service's own loop:
#:   1. the request wakes the server connection's read callback, which
#:      parses it, admits it and sends it down the shard worker's pipe;
#:   2. the worker's answer wakes the pipe reader, whose callback for
#:      the observation writes the response;
#:   3. the response wakes the client connection's read callback, which
#:      resolves the client's read waiter;
#:   4. the client task resumes and sends the next request.
MAX_ITERATIONS_PER_OBSERVATION = 4


def test_a_closed_loop_observation_costs_at_most_four_loop_iterations(
    tmp_path,
):
    async def main():
        events = synthetic_events(OBSERVATIONS + 20, seed=1)
        # The deadline and hang timers re-arm lazily: each wakes the
        # loop once per deadline_ms (hang_timeout_ms) of traffic.  Both
        # are set far above the run, so only the observations count.
        service = PredictionService(
            ServeConfig(
                shards=2,
                seed=1,
                deadline_ms=10_000.0,
                hang_timeout_ms=20_000.0,
            ),
            checkpoint_dir=tmp_path,
        )
        await service.start()
        profiler = cProfile.Profile()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "iterations"
            ) as client:
                for index, event in enumerate(events):
                    if index == len(events) - OBSERVATIONS:
                        profiler.enable()
                    response = await client.observe(
                        TENANT, event.block, event.sender, int(event.mtype)
                    )
                    assert response.status == Status.OK
                    assert not response.degraded
                profiler.disable()
        finally:
            profiler.disable()
            await service.stop()
        return profiler

    profiler = asyncio.run(main())
    iterations = sum(
        calls
        for (filename, _line, name), (_primitive, calls, *_rest) in (
            pstats.Stats(profiler).stats.items()
        )
        if name == "_run_once" and filename.endswith("base_events.py")
    )
    assert iterations > 0
    assert iterations <= MAX_ITERATIONS_PER_OBSERVATION * OBSERVATIONS, (
        iterations / OBSERVATIONS
    )
