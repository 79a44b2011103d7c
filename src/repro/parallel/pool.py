"""The shard loop: execute a :class:`~repro.parallel.plan.Plan`.

One loop, two executors.  At ``jobs == 1`` every shard runs in this
process; above it, shards run in ``spawn`` worker processes (fresh
interpreters -- no inherited RNG state, no copy-on-write surprises,
same behaviour on every platform).  Either way a shard runs under its
own trace cache, fault profile, derived ``random`` seed and metrics
registry, and ships back its result plus that metrics snapshot.  The
loop journals each outcome, folds its metrics into the global registry
and hands experiment sections on in plan order, so scheduling never
leaks into the report.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import RunInterrupted, ShardError
from ..sim.metrics import METRICS
from .journal import RunJournal
from .plan import ExperimentShard, Plan, TraceShard

_Shard = Union[TraceShard, ExperimentShard]


@dataclass(frozen=True)
class ShardOutcome:
    """What one shard produced, plus per-shard accounting."""

    kind: str  # "trace" | "experiment"
    name: str
    index: int
    text: str  # experiment shards: the rendered table/figure
    events: int  # trace shards: number of trace events produced
    seconds: float
    pid: int
    metrics: Dict[str, dict]
    #: Traceback text when the shard failed; ``None`` on success.  A
    #: failed shard still ships its metrics snapshot, so the work it did
    #: before dying (cache writes, simulations) is accounted for.
    error: Optional[str] = None

    @property
    def events_per_second(self) -> float:
        return self.events / self.seconds if self.seconds > 0 else 0.0


def _shard_identity(shard: _Shard) -> Tuple[str, str, int]:
    """``(kind, name, index)`` for any shard type."""
    if isinstance(shard, TraceShard):
        return "trace", shard.app, -1
    return "experiment", shard.name, shard.index


def _failure_outcome(shard: _Shard, error: str) -> ShardOutcome:
    """The outcome of a worker that died without shipping a result."""
    kind, name, index = _shard_identity(shard)
    return ShardOutcome(
        kind=kind,
        name=name,
        index=index,
        text="",
        events=0,
        seconds=0.0,
        pid=0,
        metrics={},
        error=error,
    )


def _run_shard(shard: _Shard) -> ShardOutcome:
    """Run one shard; the entry point of both executors.

    Must be top-level (picklable for ``spawn``).  The shard runs under
    exactly its own ambient state -- its trace cache, its fault profile
    (``None`` = reliable interconnect), ``random`` seeded from its
    derived seed, and an empty metrics registry -- and the caller's
    state is restored afterwards, so a shard run in this process leaves
    the caller's ``METRICS`` and ``random`` as it found them.

    Failures are captured and returned as an error outcome rather than
    raised: the caller must see the shard's metrics snapshot (it may
    have warmed the cache or finished simulations before dying) and
    must keep draining the remaining shards.
    """
    import random

    from ..experiments.common import (
        configure_faults,
        configure_trace_cache,
        current_faults,
        get_trace,
    )
    from ..trace.cache import TraceCache

    kind, name, index = _shard_identity(shard)
    caller_metrics = METRICS.snapshot()
    caller_random = random.getstate()
    caller_faults = current_faults()
    caller_cache = configure_trace_cache(
        TraceCache(shard.cache_dir) if shard.cache_dir is not None else None
    )
    random.seed(shard.shard_seed)
    METRICS.reset()
    text, n_events, error = "", 0, None
    start = time.perf_counter()
    try:
        configure_faults(shard.fault_spec, shard.fault_seed)
        if isinstance(shard, TraceShard):
            n_events = len(
                get_trace(
                    shard.app,
                    iterations=shard.iterations,
                    seed=shard.seed,
                    quick=shard.quick,
                )
            )
        else:
            from ..experiments.runner import EXPERIMENTS

            text = EXPERIMENTS[shard.name](shard.quick, shard.seed)
        METRICS.inc(f"shard.{kind}")
    except Exception:
        METRICS.inc(f"shard.{kind}.failed")
        error = traceback.format_exc()
    finally:
        seconds = time.perf_counter() - start
        metrics = METRICS.snapshot()
        METRICS.reset()
        METRICS.merge(caller_metrics)
        random.setstate(caller_random)
        configure_faults(*caller_faults)
        configure_trace_cache(caller_cache)
    return ShardOutcome(
        kind=kind,
        name=name,
        index=index,
        text=text,
        events=n_events,
        seconds=seconds,
        pid=os.getpid(),
        metrics=metrics,
        error=error,
    )


def _drain(
    pool: Optional[ProcessPoolExecutor],
    shards: Tuple[_Shard, ...],
    journal: Optional[RunJournal] = None,
    on_section: Optional[Callable[[Tuple[str, str, float]], None]] = None,
) -> List[Tuple[_Shard, ShardOutcome]]:
    """Run ``shards`` and collect every outcome, crashed workers included.

    Without a ``pool`` each shard runs in this process, in order; with
    one, every shard is submitted and outcomes land in completion
    order.  ``_run_shard`` converts ordinary exceptions into error
    outcomes; a worker that dies without returning at all (killed
    process, broken pool) surfaces here as a future exception,
    converted to an error outcome with no metrics so the stage still
    drains completely.  Once the pool is broken it refuses every
    ``submit``: that shard and every later one get the same error
    outcome.

    Every outcome is handled the same way the moment it lands: it is
    durably recorded in the ``journal`` (so a kill arriving mid-stage
    preserves every finished shard), its metrics are merged into the
    global registry, and ``on_section`` receives each successful
    experiment's section once it and every earlier shard have landed.
    With a ``journal``, shards whose successful outcome is already
    journaled are not run again: their recorded outcome is spliced
    back in.  Results are returned in plan order.
    """
    results: List[Optional[Tuple[_Shard, ShardOutcome]]] = [None] * len(shards)
    emitted = 0

    def land(position: int, shard: _Shard, outcome: ShardOutcome) -> None:
        nonlocal emitted
        results[position] = (shard, outcome)
        METRICS.merge(outcome.metrics)
        while emitted < len(results) and results[emitted] is not None:
            done = results[emitted][1]
            if on_section is not None and done.error is None:
                on_section((done.name, done.text, done.seconds))
            emitted += 1

    pending: Dict[object, Tuple[int, _Shard]] = {}
    broken: Optional[str] = None  # why the pool refuses submissions
    try:
        for position, shard in enumerate(shards):
            record = (
                journal.outcome_record(shard) if journal is not None else None
            )
            if record is not None:
                METRICS.inc("journal.shards_skipped")
                land(position, shard, ShardOutcome(**record))
                continue
            if pool is None:
                outcome = _run_shard(shard)
            else:
                if broken is None:
                    try:
                        future = pool.submit(_run_shard, shard)
                    except BrokenProcessPool as exc:
                        broken = f"{type(exc).__name__}: {exc}"
                    else:
                        pending[future] = (position, shard)
                        continue
                outcome = _failure_outcome(shard, broken)
            if journal is not None:
                journal.record(shard, outcome)
            land(position, shard, outcome)
        for future in as_completed(pending):
            position, shard = pending[future]
            try:
                outcome = future.result()
            except Exception as exc:  # worker died before shipping a result
                outcome = _failure_outcome(
                    shard, f"{type(exc).__name__}: {exc}"
                )
            if journal is not None:
                journal.record(shard, outcome)
            land(position, shard, outcome)
    except KeyboardInterrupt:
        for future in pending:
            future.cancel()
        raise
    return [pair for pair in results if pair is not None]


def run_plan(
    plan: Plan,
    jobs: int,
    journal: Optional[RunJournal] = None,
    on_section: Optional[Callable[[Tuple[str, str, float]], None]] = None,
) -> Tuple[List[Tuple[str, str, float]], List[ShardOutcome]]:
    """Execute ``plan`` in this process (``jobs == 1``) or on ``jobs``
    spawn workers.

    Returns ``(sections, outcomes)`` where ``sections`` is the ordered
    ``(name, text, elapsed)`` list matching the requested experiment
    order exactly, and ``outcomes`` covers every shard (traces first)
    for metrics/throughput reporting.  Both executors share one shard
    loop: each outcome is journaled and its metrics merged into the
    global registry as it lands, and ``on_section`` receives each
    section in plan order as soon as it and every earlier one are done.
    A ``ProcessPoolExecutor`` is built only when ``jobs > 1``.

    Shard failures do not abort the run mid-flight: every shard is
    drained and every shard's metrics (including a failed shard's
    partial metrics) are merged first, then a :class:`ShardError`
    carrying the failed shard descriptors is raised.

    A ``journal`` (see :mod:`repro.parallel.journal`) makes the run
    resumable: journaled shards are skipped, fresh completions are
    fsync'd as they land, and an interrupt (Ctrl-C / SIGTERM converted
    to :class:`KeyboardInterrupt`) abandons in-flight work and raises
    :class:`~repro.errors.RunInterrupted` naming the run directory.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    pool = None
    if jobs > 1:
        pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=get_context("spawn")
        )
    try:
        # Stage 1: warm the trace cache.  A barrier here keeps stage 2
        # workers from racing to re-simulate the same workload.
        with METRICS.timer("parallel.stage.traces"):
            trace_results = _drain(pool, plan.traces, journal)
        with METRICS.timer("parallel.stage.experiments"):
            experiment_results = _drain(
                pool, plan.experiments, journal, on_section
            )
    except KeyboardInterrupt:
        # Abandon queued and running shards without waiting for them;
        # everything already finished is safe in the journal.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if journal is not None:
            journal.close()
            raise RunInterrupted(
                "run interrupted; completed shards are journaled in "
                f"{journal.run_dir}",
                run_dir=str(journal.run_dir),
            ) from None
        raise
    if pool is not None:
        pool.shutdown()
    failures = [
        (shard, outcome)
        for shard, outcome in trace_results + experiment_results
        if outcome.error is not None
    ]
    if failures:
        lines = [
            f"{len(failures)} of {plan.n_shards} shards failed "
            "(all shards drained; partial metrics merged):"
        ]
        for shard, outcome in failures:
            last = outcome.error.strip().splitlines()[-1]
            lines.append(f"  {shard!r}: {last}")
        lines.append("first failure traceback:")
        lines.append(failures[0][1].error.rstrip())
        if journal is not None:
            lines.append(
                "completed shards are journaled; re-run only the "
                f"failures with: repro-experiments --resume {journal.run_dir}"
            )
        raise ShardError(
            "\n".join(lines),
            failures=[
                (shard, outcome.error) for shard, outcome in failures
            ],
        )
    outcomes = [outcome for _, outcome in trace_results + experiment_results]
    sections = [
        (outcome.name, outcome.text, outcome.seconds)
        for _, outcome in experiment_results
    ]
    return sections, outcomes
