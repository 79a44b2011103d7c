"""Benchmark of the repro package: simulation, trace replay and serving.

Run from the repository root::

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sim``, ``replay``,
``replay-bounded`` and ``serve``.  The seed makes every input; the
program under test runs from the sources in ``src/`` with nothing to
build.  The last line printed is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are end to end and untraced:

* ``events_per_s`` -- events completed per second of operation time,
  the median over ten consecutive slices of the run's operations;
* ``us_per_event_p50`` / ``us_per_event_p90`` -- median and 90th
  percentile over operations of an operation's time per event (for
  ``serve`` the mean request latency within a burst of requests);
* ``setup_s`` -- median time from a fresh process to the first
  operation (``serve``: service start with its workers ready).

With ``--trace 1`` the same operations run under a deterministic
profile (``layers.py``) and the metrics are per layer: each layer's
share of self time, its calls per event, the traced time per event
(its ratio to the untraced time is the tracing overhead), and the
prediction, eviction and retry counts.

Exits non-zero, printing no result, when the repository's sources are
missing or a workload cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: Scratch files (traces, service checkpoints); removed after each run.
WORK = BENCH / ".work"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("sim", "replay", "replay-bounded", "serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up measurement in a fresh interpreter.
    parser.add_argument("--setup-probe", metavar="WORKDIR",
                        help=argparse.SUPPRESS)
    return parser


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


#: ``events_per_s`` is the median rate over this many equal slices of a
#: run, so a slow spell of the host moves it less than a mean would.
SLICES = 10


def end_to_end(run, setup_times) -> dict:
    """The untraced, user-visible metrics of one run."""
    per_event_us = [
        seconds / events * 1e6 for events, seconds in run.samples if events
    ]
    size = -(-len(run.samples) // SLICES)
    rates = []
    for first in range(0, len(run.samples), size):
        part = run.samples[first:first + size]
        rates.append(sum(e for e, _s in part) / sum(s for _e, s in part))
    return {
        "events_per_s": _metric(statistics.median(rates), "1/s"),
        "us_per_event_p50": _metric(statistics.median(per_event_us), "us"),
        "us_per_event_p90": _metric(
            statistics.quantiles(per_event_us, n=10)[8], "us"
        ),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def per_layer(run, tracer) -> dict:
    """The traced run's metrics, one group per layer."""
    from layers import CALL_LAYERS, LAYER_NAMES

    seconds, calls = tracer.fold()
    total = sum(seconds.values())
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.self_pct"] = _metric(
            100.0 * seconds[name] / total, "%"
        )
    for name in CALL_LAYERS:
        metrics[f"{name}.calls_per_event"] = _metric(
            calls[name] / run.events, "calls/event"
        )
    metrics["traced_us_per_event"] = _metric(
        run.seconds / run.events * 1e6, "us"
    )
    metrics["pred.hit_pct"] = _metric(
        100.0 * run.hits / run.refs if run.refs else 0.0, "%"
    )
    metrics["pred.evictions_per_event"] = _metric(
        run.evictions / run.events, "1/event"
    )
    metrics["serve.retries"] = _metric(run.retries, "count")
    return metrics


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # One CPU for everything the run starts (children inherit the
    # mask): the clock then measures the speed of the CPU every stage
    # of an operation runs on, service workers included.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).setup_probe()
        return 0

    from clock import Clock

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, Clock())
        workload.prepare()
        if args.trace:
            from layers import LayerTrace

            tracer = LayerTrace(str(SRC))
        else:
            setup_times = workload.setup_seconds()
            tracer = nullcontext()
        gc.collect()
        run = workload.run(args.seconds, tracer)
    finally:
        # Spawning service workers starts multiprocessing's resource
        # tracker; stop it and wait for it, as for every other child.
        tracker = sys.modules.get("multiprocessing.resource_tracker")
        if tracker is not None:
            tracker._resource_tracker._stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's files are still there
    metrics = per_layer(run, tracer) if args.trace else end_to_end(
        run, setup_times
    )
    print(
        f"{args.workload}: {len(run.samples)} operations, {run.events} "
        f"events in {run.seconds:.3f}s, {run.failed} failed",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": len(run.samples),
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
