"""Benchmark: online prediction service throughput.

Runs under pytest-benchmark with the rest of the suite
(``pytest benchmarks/bench_serve.py``): one fault-free replay through
the full front-end/supervisor/worker path, checked against the mirror
oracle.  The serving throughput gate is perfbench's ``serve`` workload
under ``benchmarks/ab.py``; the chaos battery is ``repro-serve chaos``.
"""

import asyncio

from repro.serve.client import RetryPolicy
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.loadgen import replay_trace, verify_predictions

SEED = 0
SHARDS = 2
OBSERVATIONS = 300


def _events():
    from repro.experiments.common import get_trace

    return get_trace("moldyn", seed=SEED, quick=True)[:OBSERVATIONS]


async def _replay(events):
    """One full service lifecycle around a trace replay."""
    service = PredictionService(ServeConfig(shards=SHARDS, seed=SEED))
    await service.start()
    try:
        return await replay_trace(
            "127.0.0.1",
            service.port,
            events,
            client_id="bench",
            policy=RetryPolicy(base_delay_ms=10.0, max_retries=20),
        )
    finally:
        await service.stop()


def test_serve_fault_free_throughput(benchmark):
    """Sequential observation rate through the full service stack."""
    events = _events()

    def run():
        return asyncio.run(_replay(events))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.ok == report.sent == len(events)
    checked, wrong = verify_predictions(report.results)
    assert checked == len(events) and wrong == 0
    benchmark.extra_info["obs_per_sec"] = round(report.throughput)
