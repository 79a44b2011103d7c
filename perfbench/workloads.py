"""The benchmark's workloads.

Every workload builds its inputs from the seed, runs operations for a
fixed time, and checks each operation's output.  An *event* is one
coherence-message reception, the unit all three surfaces of the
package share: the simulator delivers it, the replay scores a
prediction for it, and the service answers one observation of it.

* ``sim`` -- the protocol simulator on the paper's five applications at
  quick scale, round robin.  One operation is one simulated iteration;
  the start-up phase and the trace hand-off are operations without
  events, timed but left out of the percentiles.  Checked: every run ends
  quiescent, every message sent was delivered and traced, and each
  application's trace is identical on every repetition.
* ``replay`` -- unbounded Cosmos replay (depth 2, arcs and iteration
  checkpoints on, as the experiment drivers run it) of those five
  traces.  One operation is one replay of one trace.  Checked against
  the generic object-at-a-time evaluation loop.
* ``replay-bounded`` -- capacity-bounded replay of a Zipf stream whose
  distinct blocks far exceed the per-module budget, so eviction runs on
  most misses; the three eviction policies take turns.  Checked against
  the object loop, plus the budget held and evictions happened.
* ``serve`` -- the online prediction service (two shard workers) fed
  the moldyn trace by one client over loopback TCP, closed loop: the
  next observation is sent when the previous answer arrives.  One
  operation is a burst of 16 observations sent one after another.
  Checked with the mirror oracle: no answer wrong, none degraded.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

APPS = ("appbt", "barnes", "dsmc", "moldyn", "unstructured")


@dataclass
class Run:
    """What one measurement produced."""

    #: ``(events, reference seconds)`` per operation.
    samples: List[Tuple[int, float]] = field(default_factory=list)
    failed: int = 0
    hits: int = 0
    refs: int = 0
    evictions: int = 0
    retries: int = 0

    @property
    def events(self) -> int:
        return sum(events for events, _seconds in self.samples)

    @property
    def seconds(self) -> float:
        return sum(seconds for _events, seconds in self.samples)


def _quick_trace(app: str, seed: int):
    from repro.experiments.common import iterations_for, workload_for
    from repro.sim.machine import simulate

    return simulate(
        workload_for(app, quick=True),
        iterations_for(app, quick=True),
        seed=seed,
    ).events


class Workload:
    """Inputs from a seed, a set-up time, and a timed run."""

    name = ""
    #: Set-up is repeated this many times per run; the median counts.
    SETUP_REPEATS = 7

    def __init__(self, seed: int, workdir: Path, clock=None) -> None:
        self.seed = seed
        self.workdir = workdir
        #: A :class:`clock.Clock`; none in a set-up probe.
        self.clock = clock

    def prepare(self) -> None:
        """Build the inputs and the expected outputs (untimed)."""

    def setup_probe(self) -> None:
        """Bring the program to its first operation; runs in a child."""

    def setup_seconds(self) -> List[float]:
        """Wall time of :meth:`setup_probe` in fresh interpreters.

        A fresh interpreter pays what a user of the command line pays
        before the first operation: start-up, imports, building state.
        """
        command = [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--workload", self.name,
            "--seed", str(self.seed),
            "--setup-probe", str(self.workdir),
        ]
        times = []
        for _ in range(self.SETUP_REPEATS):
            self.clock.calibrate()
            start = time.perf_counter()
            subprocess.run(command, check=True, timeout=120)
            times.append(self.clock.span(start))
        return times

    def run(self, seconds: float, tracer) -> Run:
        raise NotImplementedError


class Simulation(Workload):
    """``sim``: whole-machine simulation."""

    name = "sim"

    def setup_probe(self) -> None:
        """Build every application's machine, as a fresh process would."""
        from repro.experiments.common import workload_for
        from repro.sim.machine import Machine

        for app in APPS:
            Machine(seed=self.seed)
            workload_for(app, quick=True)

    def run(self, seconds: float, tracer) -> Run:
        from repro.errors import ProtocolError
        from repro.experiments.common import iterations_for, workload_for
        from repro.sim.machine import Machine

        clock = self.clock
        run = Run()
        digests = {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for app in APPS:
                machine = Machine(seed=self.seed)
                workload = workload_for(app, quick=True)
                network = machine.network
                first = len(run.samples)
                # Start-up and the trace hand-off are timed but carry no
                # events: the trace, as in the paper, is the main
                # iterations only, and these fixed costs would otherwise
                # be the slowest "events" of every run.
                clock.calibrate()
                with tracer:
                    start = time.perf_counter()
                    iterations = machine.begin_workload(
                        workload, iterations_for(app, quick=True)
                    )
                    run.samples.append((0, clock.since(start)))
                for index in range(1, iterations + 1):
                    sent = network.messages_sent
                    clock.calibrate()
                    with tracer:
                        start = time.perf_counter()
                        machine.run_iteration(workload, index)
                        run.samples.append(
                            (network.messages_sent - sent, clock.since(start))
                        )
                clock.calibrate()
                with tracer:
                    start = time.perf_counter()
                    trace = machine.finish_workload().events
                    run.samples.append((0, clock.since(start)))
                digest = hash(tuple(trace))
                try:
                    machine.assert_quiescent()
                    ok = (
                        len(machine.collector.all_events)
                        == network.messages_sent
                        and digests.setdefault(app, digest) == digest
                    )
                except ProtocolError:
                    ok = False
                if not ok:
                    run.failed += len(run.samples) - first
        return run


def _summary(result) -> tuple:
    """Everything a replay reports, in comparable form."""
    return (
        result.overall,
        result.by_role,
        result.arcs.tallies,
        result.checkpoints,
        result.overhead,
    )


def _reference(events, config, checkpoints) -> tuple:
    """The generic object-at-a-time loop's answer for ``events``."""
    from repro.core.evaluation import evaluate_trace
    from repro.core.predictor import CosmosPredictor

    return _summary(
        evaluate_trace(
            events, None, lambda: CosmosPredictor(config), checkpoints, True
        )
    )


class Replay(Workload):
    """``replay``: unbounded replay of the five application traces."""

    name = "replay"
    CHECKPOINTS = (2, 4)

    def __init__(self, seed: int, workdir: Path, clock=None) -> None:
        super().__init__(seed, workdir, clock)
        self.paths = [workdir / f"{app}.trace" for app in APPS]

    def prepare(self) -> None:
        from repro.core.config import CosmosConfig
        from repro.trace.io import load_trace, save_trace

        for app, path in zip(APPS, self.paths):
            save_trace(_quick_trace(app, self.seed), path)
        self.config = CosmosConfig(depth=2)
        self.traces = [load_trace(path) for path in self.paths]
        self.expected = [
            _reference(trace, self.config, self.CHECKPOINTS)
            for trace in self.traces
        ]

    def setup_probe(self) -> None:
        """Load the traces, as ``repro-trace evaluate`` does."""
        import repro.core.evaluation  # noqa: F401
        from repro.trace.io import load_trace

        for path in self.paths:
            load_trace(path)

    def run(self, seconds: float, tracer) -> Run:
        from repro.core.evaluation import evaluate_trace

        clock = self.clock
        run = Run()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for trace, expected in zip(self.traces, self.expected):
                clock.calibrate()
                with tracer:
                    start = time.perf_counter()
                    result = evaluate_trace(
                        trace, self.config, None, self.CHECKPOINTS, True
                    )
                    run.samples.append((len(trace), clock.since(start)))
                run.hits += result.overall.hits
                run.refs += result.overall.refs
                if _summary(result) != expected:
                    run.failed += 1
        return run


class BoundedReplay(Workload):
    """``replay-bounded``: a Zipf stream through budgeted predictors."""

    name = "replay-bounded"
    #: 32Ki events from 4 tenants over 64Ki blocks: each tenant's module
    #: sees a few thousand distinct blocks against a 1Ki-entry budget.
    EVENTS = 1 << 15
    BLOCKS = 1 << 16
    TENANTS = 4
    CAPACITY = 1 << 10

    def __init__(self, seed: int, workdir: Path, clock=None) -> None:
        super().__init__(seed, workdir, clock)
        self.path = workdir / "zipf.trace"

    def prepare(self) -> None:
        from repro.core.config import CosmosConfig
        from repro.core.eviction import EVICTION_POLICIES
        from repro.trace.io import load_trace, save_trace
        from repro.workloads.zipf import zipf_trace

        save_trace(
            zipf_trace(
                self.EVENTS, self.BLOCKS, tenants=self.TENANTS, seed=self.seed
            ),
            self.path,
        )
        self.trace = load_trace(self.path)
        self.configs = [
            CosmosConfig(
                mhr_capacity=self.CAPACITY,
                pht_capacity=self.CAPACITY,
                eviction=policy,
            )
            for policy in EVICTION_POLICIES
        ]
        self.expected = [
            _reference(self.trace, config, ()) for config in self.configs
        ]

    def setup_probe(self) -> None:
        import repro.core.evaluation  # noqa: F401
        from repro.trace.io import load_trace

        load_trace(self.path)

    def run(self, seconds: float, tracer) -> Run:
        from repro.core.evaluation import evaluate_trace
        from repro.sim.metrics import METRICS

        def evictions() -> int:
            return METRICS.counter("pred.mem.evictions_mhr") + METRICS.counter(
                "pred.mem.evictions_pht"
            )

        clock = self.clock
        run = Run()
        budget = self.CAPACITY * self.TENANTS
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for config, expected in zip(self.configs, self.expected):
                before = evictions()
                clock.calibrate()
                with tracer:
                    start = time.perf_counter()
                    result = evaluate_trace(self.trace, config, None, (), True)
                    run.samples.append((len(self.trace), clock.since(start)))
                evicted = evictions() - before
                run.evictions += evicted
                run.hits += result.overall.hits
                run.refs += result.overall.refs
                overhead = result.overhead
                if (
                    _summary(result) != expected
                    or evicted <= 0
                    or overhead.mhr_entries > budget
                    or overhead.pht_entries > budget
                ):
                    run.failed += 1
        return run


class Serve(Workload):
    """``serve``: one closed-loop client against the live service."""

    name = "serve"
    SHARDS = 2
    #: Observations per operation.  One observation takes a few hundred
    #: microseconds, in which a single interrupt of the host weighs as
    #: much as the work; a burst spreads it over many.
    BURST = 16

    def __init__(self, seed: int, workdir: Path, clock=None) -> None:
        from repro.serve.config import ServeConfig

        super().__init__(seed, workdir, clock)
        # Deadlines far above any loopback round trip: the workload
        # measures the healthy path, where no answer is degraded.
        self.config = ServeConfig(
            shards=self.SHARDS,
            seed=seed,
            deadline_ms=10_000.0,
            hang_timeout_ms=20_000.0,
        )
        self._services = 0

    def prepare(self) -> None:
        from repro.core.tuples import pack
        from repro.serve.loadgen import tenant_of

        #: ``(tenant, block, sender, mtype, packed word)`` per observation.
        self.requests = [
            (tenant_of(e), e.block, e.sender, int(e.mtype), pack(e.tuple))
            for e in _quick_trace("moldyn", self.seed)
        ]

    def _service(self):
        from repro.serve.frontend import PredictionService

        # A fresh checkpoint directory per instance: a service must not
        # warm-restore state an earlier instance learned.
        self._services += 1
        return PredictionService(
            self.config,
            checkpoint_dir=self.workdir / f"service-{self._services}",
        )

    def setup_seconds(self) -> List[float]:
        """Service start-up time (workers spawned and ready), repeated."""

        async def starts() -> List[float]:
            times = []
            for _ in range(self.SETUP_REPEATS):
                service = self._service()
                self.clock.calibrate()
                start = time.perf_counter()
                await service.start()
                times.append(self.clock.span(start))
                await service.stop()
            return times

        return asyncio.run(starts())

    def run(self, seconds: float, tracer) -> Run:
        return asyncio.run(self._run(seconds, tracer))

    async def _run(self, seconds: float, tracer) -> Run:
        from repro.serve.client import RetryPolicy, ServeClient
        from repro.serve.loadgen import ObservationResult, verify_predictions
        from repro.serve.protocol import Status
        from repro.sim.metrics import METRICS

        clock = self.clock
        run = Run()
        results = []
        requests = self.requests
        retries = METRICS.counter("serve.client.retry_after")
        service = self._service()
        await service.start()
        try:
            async with ServeClient(
                "127.0.0.1",
                service.port,
                "perfbench",
                RetryPolicy(attempt_timeout_ms=15_000.0),
            ) as client:
                index = 0
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    burst = [
                        requests[(index + i) % len(requests)]
                        for i in range(self.BURST)
                    ]
                    index += self.BURST
                    responses = []
                    clock.calibrate()
                    with tracer:
                        start = time.perf_counter()
                        for tenant, block, sender, mtype, _word in burst:
                            responses.append(
                                await client.observe(
                                    tenant, block, sender, mtype
                                )
                            )
                        run.samples.append((self.BURST, clock.since(start)))
                    if any(
                        r.status != Status.OK or r.degraded for r in responses
                    ):
                        run.failed += 1
                    results.extend(
                        ObservationResult(
                            tenant=tenant,
                            block=block,
                            word=word,
                            shard=response.shard,
                            index=response.index,
                            degraded=response.degraded,
                            predicted=response.predicted,
                        )
                        for (tenant, block, _s, _m, word), response in zip(
                            burst, responses
                        )
                    )
        finally:
            await service.stop()
        run.retries = METRICS.counter("serve.client.retry_after") - retries
        # Answers are checked after the run, where the burst that held a
        # wrong one is no longer known: each counts as a failed operation.
        _checked, wrong = verify_predictions(results, self.config)
        run.failed = min(run.failed + wrong, len(run.samples))
        run.refs = len(results)
        run.hits = sum(r.predicted == r.word for r in results)
        return run


WORKLOADS = {
    workload.name: workload
    for workload in (Simulation, Replay, BoundedReplay, Serve)
}
