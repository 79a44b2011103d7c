"""``repro-serve``: serve, bench, and chaos-test the prediction service.

Three subcommands:

* ``serve`` -- run the service in the foreground until interrupted.
* ``bench`` -- start an in-process service, replay a cached simulator
  trace through it, and report latency/throughput (optionally as JSON).
* ``chaos`` -- the same replay under a scripted chaos battery (worker
  SIGKILL, stalls past the deadline, queue floods, slow clients).

Both replays then verify the acceptance invariants: zero incorrect
non-degraded responses (the mirror oracle) and every lost shard
re-admitted through its circuit breaker.  They exit non-zero when
either fails.  The oracle replays from fresh predictors, so both refuse
(exit 2) a ``--checkpoint-dir`` that already holds checkpoints of the
same service configuration: its shards would warm-start from them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

from ..core.eviction import EVICTION_POLICIES
from ..errors import ServeError
from ..sim.metrics import METRICS, dump_metrics_json
from .chaos import ChaosScript
from .client import ServeClient
from .config import ServeConfig
from .frontend import PredictionService
from .loadgen import replay_trace, verify_predictions
from .state import own_checkpoints

WORKLOADS = ("appbt", "barnes", "dsmc", "moldyn", "unstructured", "zipf")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--deadline-ms", type=float, default=250.0)
    parser.add_argument("--hang-timeout-ms", type=float, default=2_000.0)
    parser.add_argument("--checkpoint-every", type=int, default=64)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tenant-mhr-budget",
        type=int,
        default=0,
        help="MHR entries per tenant bank per shard (0 = unbounded)",
    )
    parser.add_argument(
        "--tenant-pht-budget",
        type=int,
        default=0,
        help="PHT entries per tenant bank per shard (0 = unbounded)",
    )
    parser.add_argument(
        "--eviction",
        choices=EVICTION_POLICIES,
        default="lru",
        help="replacement policy for budgeted tenant banks",
    )


def _config_of(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        shards=args.shards,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        hang_timeout_ms=args.hang_timeout_ms,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        tenant_mhr_budget=args.tenant_mhr_budget,
        tenant_pht_budget=args.tenant_pht_budget,
        eviction=args.eviction,
    )


async def _wait_all_closed(
    host: str, port: int, timeout_s: float = 60.0
) -> bool:
    """Poll ``stat`` until every shard's breaker is closed."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout_s
    async with ServeClient(host, port, "cli-stat") as client:
        while True:
            stat = await client.stat()
            if all(
                shard["state"] == "closed" for shard in stat["shards"]
            ):
                return True
            if loop.time() > deadline:
                return False
            await asyncio.sleep(0.05)


async def _run_replay(args, chaos: Optional[ChaosScript], events) -> dict:
    config = _config_of(args)
    service = PredictionService(
        config, chaos=chaos, checkpoint_dir=args.checkpoint_dir
    )
    await service.start()
    try:
        report = await replay_trace(
            service.config.host,
            service.port,
            events,
            chaos_actions=chaos.client_actions() if chaos else (),
            rate=getattr(args, "rate", None),
        )
        recovered = await _wait_all_closed(service.config.host, service.port)
        # Once every breaker is closed, one more stat asks every worker.
        async with ServeClient(
            service.config.host, service.port, "cli-stat"
        ) as client:
            stats = (await client.stat())["shards"]
    finally:
        await service.stop()
    checked, wrong = verify_predictions(report.results, config)
    latency = METRICS.histogram("serve.latency.ok_us")
    return {
        "observations": report.sent,
        "ok": report.ok,
        "degraded": report.degraded,
        "evicting": report.evicting,
        "shed": METRICS.counter("serve.response.retry_after"),
        "deadline_missed": METRICS.counter("serve.deadline.missed"),
        "restores": METRICS.counter("serve.restore.count"),
        "checked": checked,
        "wrong": wrong,
        "recovered": recovered,
        "throughput_obs_per_s": round(report.throughput, 1),
        "latency_ok_p50_us": latency.quantile(0.50) if latency else 0.0,
        "latency_ok_p99_us": latency.quantile(0.99) if latency else 0.0,
        "shards": stats,
    }


def _events_for(args) -> list:
    from ..experiments.common import get_trace

    events = get_trace(args.workload, seed=args.seed, quick=True)
    if args.observations:
        events = events[: args.observations]
    return events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online Cosmos prediction service (see docs/serving.md)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the service until ^C")
    _add_config_args(serve)

    bench = commands.add_parser("bench", help="replay a trace, fault-free")
    _add_config_args(bench)
    bench.add_argument("--workload", choices=WORKLOADS, default="moldyn")
    bench.add_argument("--observations", type=int, default=0)
    bench.add_argument("--rate", type=float, default=None)
    bench.add_argument("--metrics-json", default=None)

    chaos = commands.add_parser("chaos", help="replay under a chaos script")
    _add_config_args(chaos)
    chaos.add_argument("--workload", choices=WORKLOADS, default="moldyn")
    chaos.add_argument("--observations", type=int, default=600)
    chaos.add_argument(
        "--script",
        default=None,
        help="explicit chaos spec; default: the seeded standard battery",
    )
    chaos.add_argument("--metrics-json", default=None)

    stat = commands.add_parser(
        "stat",
        help="query a running service: breaker states, training "
        "progress, and per-shard predictor memory",
    )
    stat.add_argument("--host", default="127.0.0.1")
    stat.add_argument("--port", type=int, required=True)

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stat":
        return _cmd_stat(args)
    if args.command == "bench":
        return _cmd_replay(args, chaos_script=None)
    return _cmd_replay(args, chaos_script=_chaos_script(args))


def _chaos_script(args) -> ChaosScript:
    if args.script is not None:
        return ChaosScript.parse(args.script)
    return ChaosScript.battery(
        seed=args.seed,
        shards=args.shards,
        observations=args.observations or 600,
    )


def _cmd_serve(args) -> int:
    async def _run() -> None:
        service = PredictionService(
            _config_of(args), checkpoint_dir=args.checkpoint_dir
        )
        await service.start()
        print(
            f"repro-serve: {args.shards} shard(s) on "
            f"{service.config.host}:{service.port}",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_stat(args) -> int:
    async def _run() -> dict:
        async with ServeClient(args.host, args.port, "cli-stat") as client:
            return await client.stat()

    print(json.dumps(asyncio.run(_run()), indent=2, sort_keys=True))
    return 0


def _refuse_warm_start(args) -> None:
    """Refuse a checkpoint directory this replay's shards would
    warm-start from: :func:`verify_predictions` replays every tenant
    from a fresh predictor and would count the learned answers wrong."""
    if args.checkpoint_dir is None:
        return
    config = _config_of(args)
    warm = own_checkpoints(
        args.checkpoint_dir, config.shards, config.fingerprint()
    )
    if warm:
        raise ServeError(
            f"--checkpoint-dir {args.checkpoint_dir} already holds "
            f"{len(warm)} shard checkpoint(s) of this service "
            f"configuration (e.g. {warm[-1].name}); {args.command} "
            f"checks answers against cold-started predictors, so use an "
            f"empty directory or another --seed"
        )


def _cmd_replay(args, chaos_script: Optional[ChaosScript]) -> int:
    try:
        _refuse_warm_start(args)
    except ServeError as exc:
        print(f"repro-serve {args.command}: {exc}", file=sys.stderr)
        return 2
    METRICS.reset()
    events = _events_for(args)
    if chaos_script is not None:
        print(f"chaos script: {chaos_script.spec()}", file=sys.stderr)
    summary = asyncio.run(_run_replay(args, chaos_script, events))
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.metrics_json:
        dump_metrics_json(METRICS.snapshot(), args.metrics_json)
    failures = []
    if summary["wrong"]:
        failures.append(
            f"{summary['wrong']} incorrect non-degraded response(s)"
        )
    if not summary["recovered"]:
        failures.append("a lost shard was never re-admitted")
    if failures:
        print(f"{args.command} run FAILED: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
