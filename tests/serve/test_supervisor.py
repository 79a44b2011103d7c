"""Worker death and recovery (satellite: SIGKILL determinism).

The style follows ``tests/parallel/test_resume.py``: really kill the
process (here the worker SIGKILLs itself mid-stream via a scripted
chaos action), then assert the recovered run is *byte-identical* to an
undisturbed re-run with the same seed and checkpoint cadence -- the
warm restore plus outbox replay must reconstruct the exact predictor
state, not an approximation of it.
"""

import asyncio
import json
import multiprocessing
import os
import signal

from repro.core.tuples import pack
from repro.protocol.messages import MessageType
from repro.serve.chaos import ChaosScript
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.hashring import HashRing
from repro.serve.loadgen import (
    ObservationResult,
    replay_trace,
    tenant_of,
    verify_predictions,
)
from repro.serve.protocol import Status
from repro.sim.metrics import METRICS

from .common import synthetic_events, wait_all_closed

KILL_AT = 30


def _victim_shard(events, config):
    """The shard that receives enough traffic to hit the kill ordinal."""
    ring = HashRing(config.shards)
    counts = [0] * config.shards
    for event in events:
        counts[ring.shard_for(tenant_of(event), event.block)] += 1
    victim = max(range(config.shards), key=lambda s: counts[s])
    assert counts[victim] >= KILL_AT + 10, counts
    return victim


async def _stream_with_recovery(events, config, chaos, checkpoint_dir):
    """Replay sequentially; pause for recovery at the first degraded.

    Returns ``(responses, results, stats)`` where ``responses`` is the
    full byte-level answer sequence ``(seq, status, predicted,
    degraded, shard, index)`` -- the thing that must be identical
    across runs.
    """
    service = PredictionService(
        config, chaos=chaos, checkpoint_dir=checkpoint_dir
    )
    await service.start()
    responses = []
    results = []
    degraded_seen = 0
    try:
        async with ServeClient(
            "127.0.0.1", service.port, "killrun"
        ) as client:
            for event in events:
                response = await client.observe(
                    tenant_of(event),
                    event.block,
                    event.sender,
                    int(event.mtype),
                )
                responses.append(
                    (
                        response.seq,
                        response.status,
                        response.predicted,
                        response.degraded,
                        response.shard,
                        response.index,
                    )
                )
                from repro.core.tuples import pack

                results.append(
                    ObservationResult(
                        tenant=tenant_of(event),
                        block=event.block,
                        word=pack((event.sender, event.mtype)),
                        shard=response.shard,
                        index=response.index,
                        degraded=response.degraded,
                        predicted=response.predicted,
                    )
                )
                if response.degraded:
                    degraded_seen += 1
                    # Deterministic recovery barrier: wait until the
                    # breaker has left OPEN (worker respawned, outbox
                    # replayed) before sending anything else.
                    for _ in range(400):
                        stat = await client.stat()
                        if all(
                            s["state"] != "open" for s in stat["shards"]
                        ):
                            break
                        await asyncio.sleep(0.05)
                    else:
                        raise AssertionError("restore never completed")
            stats = (await client.stat())["shards"]
    finally:
        await service.stop()
    assert degraded_seen == 1, responses
    return responses, results, stats


def test_sigkill_midstream_recovers_byte_identically(tmp_path):
    events = synthetic_events(140, seed=5)
    base = ServeConfig(shards=2, checkpoint_every=8, seed=5)
    victim = _victim_shard(events, base)
    chaos = ChaosScript.parse(f"kill:shard={victim},at={KILL_AT}")

    async def run(tag):
        directory = tmp_path / tag
        directory.mkdir()
        return await _stream_with_recovery(events, base, chaos, directory)

    responses_a, results_a, stats_a = asyncio.run(run("a"))
    responses_b, _results_b, _stats_b = asyncio.run(run("b"))

    # The acceptance bar: same seed + same cadence => the recovered
    # response stream is byte-identical, kill and all.
    assert responses_a == responses_b

    # And externally correct: every non-degraded answer matches a
    # fresh mirror fed the same admissions in ordinal order.
    checked, wrong = verify_predictions(results_a)
    assert wrong == 0
    assert checked == len(events) - 1  # all but the one degraded answer

    by_shard = {s["shard"]: s for s in stats_a}
    assert by_shard[victim]["epoch"] == 1
    assert by_shard[victim]["restores"] == 1
    assert by_shard[victim]["breaker_opened"] == 1
    assert by_shard[victim]["state"] == "closed"
    assert by_shard[victim]["trained"] == by_shard[victim]["admitted"]
    other = by_shard[1 - victim]
    assert other["epoch"] == 0 and other["state"] == "closed"

    # The death left a forensic bundle next to the checkpoints.
    forensics = tmp_path / "a" / f"forensics-shard{victim:02d}-epoch0.json"
    record = json.loads(forensics.read_text())
    assert record["kind"] == "serve-worker-forensics"
    assert record["shard"] == victim
    assert record["exitcode"] == -9  # really SIGKILLed


def test_hang_past_budget_is_killed_and_restored(tmp_path):
    async def main():
        # Observation 3 stalls 3 s: past the 100 ms request deadline
        # (degraded answer) and past the 400 ms hang budget (supervisor
        # SIGKILLs the worker and warm-restores).
        chaos = ChaosScript.parse("stall:shard=0,at=3,ms=3000")
        config = ServeConfig(
            shards=1, deadline_ms=100.0, hang_timeout_ms=400.0
        )
        service = PredictionService(
            config, chaos=chaos, checkpoint_dir=tmp_path
        )
        await service.start()
        mtype = int(MessageType.GET_RO_RESPONSE)
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "hang"
            ) as client:
                for seq in range(3):
                    response = await client.observe("t", 64 * seq, 0, mtype)
                    assert response.status == Status.OK
                assert response.degraded  # the stalled observation
                # The hang is only *detected* when the 400 ms budget
                # fires, well after the degraded answer came back: wait
                # for the replacement worker, not just a non-open state.
                for _ in range(400):
                    stat = await client.stat()
                    shard = stat["shards"][0]
                    if shard["epoch"] >= 1 and shard["state"] != "open":
                        break
                    await asyncio.sleep(0.05)
                # The stalled observation was replayed into the restored
                # worker: no admitted learning lost.
                assert stat["shards"][0]["trained"] == 3
                # The restored worker answers fresh traffic for real.
                for seq in range(3, 7):
                    response = await client.observe("t", 64 * seq, 0, mtype)
                    assert response.status == Status.OK
                    assert not response.degraded
                final = (await client.stat())["shards"][0]
        finally:
            await service.stop()
        assert final["epoch"] == 1
        assert final["restores"] == 1
        assert final["state"] == "closed"
        assert final["trained"] == final["admitted"]
        forensics = tmp_path / "forensics-shard00-epoch0.json"
        assert json.loads(forensics.read_text())["exitcode"] == -9

    asyncio.run(main())


def test_a_restored_shard_closes_once_caught_up_with_no_traffic(tmp_path):
    # The kill follows the last observation, so nothing reaches the
    # restored worker afterwards: no client traffic and no stat poll.
    async def main():
        config = ServeConfig(shards=1, checkpoint_every=8, seed=8)
        service = PredictionService(
            config,
            chaos=ChaosScript.parse("kill:shard=0,at=40"),
            checkpoint_dir=tmp_path,
        )
        await service.start()
        try:
            await replay_trace(
                "127.0.0.1",
                service.port,
                synthetic_events(40, seed=8),
                client_id="idle",
            )
            for _ in range(400):
                shard = service.supervisor.stats()[0]
                if shard["restores"] == 1 and shard["state"] == "closed":
                    break
                await asyncio.sleep(0.05)
        finally:
            await service.stop()
        return shard

    METRICS.reset()
    shard = asyncio.run(main())
    assert shard["restores"] == 1 and shard["state"] == "closed", shard
    assert shard["breaker_opened"] == shard["breaker_closed"] == 1
    assert shard["trained"] == shard["admitted"] == 40
    assert METRICS.counter("serve.breaker.opened") == 1
    assert METRICS.counter("serve.breaker.closed") == 1


def test_start_up_is_not_bounded_by_the_hang_budget(tmp_path):
    async def main():
        # A spawned worker takes far longer than 50 ms to import and
        # send its ready handshake; the hang budget covers observations,
        # not start-up, so the service must still come up and serve.
        config = ServeConfig(shards=1, deadline_ms=10.0, hang_timeout_ms=50.0)
        service = PredictionService(config, checkpoint_dir=tmp_path)
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "start-up"
            ) as client:
                response = await client.observe(
                    "t", 0, 0, int(MessageType.GET_RO_RESPONSE)
                )
                assert response.status == Status.OK
        finally:
            await service.stop()

    asyncio.run(main())


async def _kill_new_child(known_pids):
    """SIGKILL the first worker process not in ``known_pids``."""
    for _ in range(5_000):
        for child in multiprocessing.active_children():
            if child.pid not in known_pids:
                os.kill(child.pid, signal.SIGKILL)
                return child.pid
        await asyncio.sleep(0.002)
    raise AssertionError("no replacement worker was spawned")


def test_a_replacement_that_dies_before_its_handshake_is_replaced(tmp_path):
    async def main():
        METRICS.reset()
        events = synthetic_events(60, seed=7)
        chaos = ChaosScript.parse("kill:shard=0,at=10")
        config = ServeConfig(shards=1, checkpoint_every=8, seed=7)
        service = PredictionService(
            config, chaos=chaos, checkpoint_dir=tmp_path
        )
        await service.start()
        first_workers = {
            child.pid for child in multiprocessing.active_children()
        }
        results = []
        killed = None
        try:
            async with ServeClient(
                "127.0.0.1", service.port, "respawn"
            ) as client:
                for event in events:
                    response = await client.observe(
                        tenant_of(event),
                        event.block,
                        event.sender,
                        int(event.mtype),
                    )
                    results.append(
                        ObservationResult(
                            tenant=tenant_of(event),
                            block=event.block,
                            word=pack((event.sender, event.mtype)),
                            shard=response.shard,
                            index=response.index,
                            degraded=response.degraded,
                            predicted=response.predicted,
                        )
                    )
                    if response.degraded and killed is None:
                        # The scripted kill fired: the replacement is
                        # still importing, far from its handshake.
                        killed = await _kill_new_child(first_workers)
                assert await wait_all_closed(client)
                shard = (await client.stat())["shards"][0]
        finally:
            await service.stop()
        return results, shard, killed

    results, shard, killed = asyncio.run(main())
    assert killed is not None
    assert METRICS.counter("serve.restore.spawn_failed") == 1
    assert shard["state"] == "closed"
    assert shard["trained"] == shard["admitted"] == 60
    _checked, wrong = verify_predictions(results)
    assert wrong == 0
    # Only the serving worker's death leaves a bundle.
    assert len(list(tmp_path.glob("forensics-*.json"))) == 1
