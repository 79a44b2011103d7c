"""The simulated 16-node shared-memory machine.

:class:`Machine` ties together the event engine, the interconnect, the
per-node cache and directory controllers, and a processor model that
issues each workload's access streams.  Running a workload yields a
coherence-message trace (one event per message *reception*, exactly what
a Cosmos predictor would observe sitting beside each module).

Processor model: within a phase, every processor walks its access list
sequentially -- the next access issues after the previous one completes
plus a small seeded think time.  The jitter in think times varies the
interleaving of different processors' requests at the directories, which
is the arrival-order variation Cosmos must adapt to (paper Section 3.5).
A barrier separates phases and iterations; barrier traffic itself is not
modeled (the paper excludes barrier variables from its traces).
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import ProtocolError, SimulationError
from ..obs.log import OBS
from ..protocol.messages import RECEIVER_BIT, ROLE_OF_BIT, Message
from ..protocol.recovery import RecoveryConfig
from ..protocol.stache import DEFAULT_OPTIONS, StacheOptions
from ..protocol.state import CacheState
from ..trace.collector import TraceCollector
from ..workloads.access import Access, Phase
from ..workloads.base import Workload
from .engine import Engine
from .faults import FaultProfile, FaultyNetwork
from .memory_map import Allocator, MemoryMap
from .metrics import METRICS
from .network import Network
from .node import Node
from .params import PAPER_PARAMS, SystemParams

if TYPE_CHECKING:
    from .watchdog import Watchdog

#: Base think time between a processor's consecutive shared accesses (ns).
_THINK_BASE_NS = 20
#: Spread of the per-processor fixed speed offset (ns).  Real programs run
#: the same loop every iteration, so a processor's relative pacing is
#: stable; this offset makes arrival orders at the directories mostly
#: repeatable across iterations.
_PROC_OFFSET_NS = 150
#: Small per-access jitter (ns): occasional order swaps between closely
#: paced processors, the noise Cosmos must filter or adapt to.
_THINK_JITTER_NS = 10
#: Maximum initial stagger of processors at a phase start (ns).
_PHASE_STAGGER_NS = 40
#: Cache / local-memory hit latencies (ns).
_CACHE_HIT_NS = 1


class Machine:
    """A directory-based shared-memory multiprocessor.

    Besides its trace, a run leaves one number per completed access:
    :attr:`access_latencies`, an ``array("q")`` of issue-to-completion
    latencies in ns, in completion order.
    """

    def __init__(
        self,
        params: SystemParams = PAPER_PARAMS,
        options: StacheOptions = DEFAULT_OPTIONS,
        seed: int = 0,
        faults: Optional[FaultProfile] = None,
        fault_seed: int = 0,
        watchdog: Optional["Watchdog"] = None,
        network_factory: Optional[Callable] = None,
    ) -> None:
        self.params = params
        self.options = options
        self.seed = seed
        self.engine = Engine()
        self.memory_map = MemoryMap(params)
        self.collector = TraceCollector()
        # An *active* fault profile swaps in the unreliable interconnect
        # and arms the protocol's recovery machinery; an inactive/absent
        # one leaves the timing-exact reliable path completely untouched
        # (no timeout events are ever scheduled), so fault-free runs stay
        # bit-identical to builds without this layer.
        self.faults = faults if faults is not None and faults.is_active else None
        self.fault_seed = fault_seed
        self.recovery: Optional[RecoveryConfig] = None
        if network_factory is not None:
            # A custom interconnect (schedule exploration) owns fault
            # composition itself; the factory sees the same constructor
            # head as Network.
            self.network = network_factory(
                self.engine, params, self._deliver
            )
        elif self.faults is not None:
            self.network = FaultyNetwork(
                self.engine, params, self._deliver, self.faults, fault_seed
            )
        else:
            self.network = Network(self.engine, params, self._deliver)
        # Recovery is armed whenever delivery order can deviate from the
        # constant-latency FIFO model -- by chance (faults) or by choice
        # (an adversarial exploring network).  The timeout budget covers
        # the network's own worst-case skew.
        if self.faults is not None or getattr(
            self.network, "adversarial", False
        ):
            self.recovery = RecoveryConfig.for_network(
                params.one_way_message_ns,
                getattr(self.network, "max_skew_ns", 0),
            )
        #: Observers invoked after each delivery is fully processed (the
        #: receiving controller ran, coherence was checked).  Used by the
        #: schedule explorer's invariant oracles; empty on normal runs.
        self.deliver_hooks: List[Callable[[Message], None]] = []
        self.invariant_checks = 0
        self.nodes: List[Node] = [
            Node(
                node_id,
                self.network.send,
                options,
                recovery=self.recovery,
                schedule=self.engine.schedule,
            )
            for node_id in range(params.n_nodes)
        ]
        #: Replacement log in finite-cache mode: (time, node, block).
        self.replacements: List[tuple] = []
        if options.finite_caches:
            n_sets = max(1, params.cache_bytes // params.cache_block_bytes)
            for node in self.nodes:
                node.cache.configure_finite(
                    n_sets,
                    params.cache_block_bytes,
                    partial(self._replaced, node.node_id),
                )
        self._rng = random.Random(seed)
        self._proc_offset = [
            self._rng.randrange(0, _PROC_OFFSET_NS)
            for _ in range(params.n_nodes)
        ]
        self._pending: List[List[Access]] = []
        self._cursor: List[int] = []
        self._issue_time: List[int] = [0] * params.n_nodes
        #: Each processor's access-completion callback, built once.
        self._done = [
            partial(self._completed, proc) for proc in range(params.n_nodes)
        ]
        self.accesses_issued = 0
        #: Issue-to-completion latency (ns) of each completed access, in
        #: completion order: one int64 per access.
        self.access_latencies = array("q")
        #: Samples already folded into ``sim.access.latency_ns`` by
        #: :meth:`finish_workload`.
        self._folded_latencies = 0
        self.attach(watchdog)

    def attach(self, watchdog: Optional["Watchdog"]) -> None:
        """Make this the running machine: guarded by ``watchdog`` and
        owning the OBS clock.

        Called at construction and by a checkpoint restore.  OBS is
        process-global, so the most recently attached machine owns the
        clock timestamp-less emitters (protocol controllers) read --
        fine for the sequential capture runs observability uses.
        """
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.attach(self)
        OBS.set_clock(lambda: self.engine.now)

    def __getstate__(self) -> dict:
        # The watchdog and delivery hooks belong to the run driving the
        # machine, not to its state: a checkpoint drops them and the
        # restoring run attaches its own.
        state = self.__dict__.copy()
        state["watchdog"] = None
        state["deliver_hooks"] = []
        return state

    def _replaced(self, node_id: int, block: int) -> None:
        """Finite-cache replacement hook: log ``(time, node, block)``."""
        self.replacements.append((self.engine.now, node_id, block))

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------

    def _deliver(self, msg: Message) -> None:
        now = self.engine.now
        mtype = msg.mtype
        to_directory = RECEIVER_BIT[mtype]
        if OBS.msg:
            OBS.emit(
                now,
                "net",
                "deliver",
                msg.dst,
                msg.block,
                {
                    "src": msg.src,
                    "mtype": mtype.name,
                    "role": ROLE_OF_BIT[to_directory].value,
                },
            )
            # Deliberately OBS-gated (unlike the latency histograms):
            # queue depth is a *sampling* diagnostic whose cost scales
            # with the queue, and its value depends on when you look --
            # there is no end-of-run fold that could reconstruct it.
            METRICS.observe("sim.queue.depth", self.engine.pending())
        self.collector.record(
            now, msg.dst, to_directory, msg.block, msg.src, mtype
        )
        if self.watchdog is not None:
            self.watchdog.note_delivery(msg.block)
        # The controller is looked up per delivery, not bound once:
        # subclasses (the predictive machine) swap directories in after
        # construction.
        node = self.nodes[msg.dst]
        if to_directory:
            node.directory.handle_message(msg)
        else:
            node.cache.handle_message(msg)
        if self.recovery is not None:
            self._check_coherence(msg.block)
        if self.deliver_hooks:
            for hook in self.deliver_hooks:
                hook(msg)

    # ------------------------------------------------------------------
    # coherence-invariant checker (armed under fault injection)
    # ------------------------------------------------------------------

    def _check_coherence(self, block: int) -> None:
        """Assert the machine is in a *legal* state for ``block``.

        Faults and recovery may delay or repeat transitions but must
        never create an illegal state (cf. the paper's Section 4.3
        argument for mispredictions).  Checked after every delivery:

        * at most one cache holds ``block`` exclusively, and that cache
          is the one the home directory records as owner (or is about to
          record: a forwarding owner answers the requester before the
          revision notice lands, so the in-flight transaction's final
          state also legitimizes a copy);
        * a shared copy is always known to the directory the same way;
        * the directory entry itself is consistent (owner xor sharers).

        The converse directions are deliberately *not* asserted: under
        loss and duplication the directory may record copies a cache no
        longer holds (lost response, duplicate invalidation) -- that is
        legal over-approximation, never a safety violation.
        """
        self.invariant_checks += 1
        home = self.memory_map.home_of(block)
        directory = self.nodes[home].directory
        entry = directory.entry_of(block)
        entry.check_invariants()
        pending = directory.pending_grant(block)
        pending_owner = pending[0] if pending else None
        pending_sharers = pending[1] if pending else ()
        exclusive: Optional[int] = None
        for node in self.nodes:
            if node.node_id == home:
                continue  # the home's copy *is* the directory entry
            state = node.cache.state_of(block)
            if state is CacheState.EXCLUSIVE:
                if exclusive is not None:
                    raise ProtocolError(
                        f"block 0x{block:x} is exclusive at both "
                        f"P{exclusive} and P{node.node_id}"
                    )
                exclusive = node.node_id
                if (
                    entry.owner != node.node_id
                    and pending_owner != node.node_id
                ):
                    raise ProtocolError(
                        f"P{node.node_id} holds block 0x{block:x} "
                        f"exclusively but the directory records owner "
                        f"{entry.owner}"
                    )
            elif state is CacheState.SHARED:
                if (
                    node.node_id not in entry.sharers
                    and entry.owner != node.node_id
                    and node.node_id not in pending_sharers
                ):
                    raise ProtocolError(
                        f"P{node.node_id} holds a shared copy of block "
                        f"0x{block:x} the directory does not know about"
                    )

    def assert_quiescent(self) -> None:
        """Assert every transaction completed (no livelocked residue).

        Called by tests and the chaos harness after a workload run: all
        processor streams drained (``_run_phase`` already checks that),
        no cache has an outstanding miss, and no directory is holding or
        queueing a transaction.
        """
        for node in self.nodes:
            blocks = node.cache.outstanding_blocks()
            if blocks:
                raise ProtocolError(
                    f"P{node.node_id} finished with outstanding misses "
                    f"for blocks {[hex(b) for b in blocks]}"
                )
            if node.directory.active_blocks() or node.directory.queued_blocks():
                raise ProtocolError(
                    f"directory at P{node.node_id} finished with active "
                    "or queued transactions"
                )

    def _fold_fault_metrics(self) -> None:
        """Fold controller recovery counters into the global registry.

        The :class:`FaultyNetwork` mirrors its ``net.fault.*`` counts
        live; controller counters are per-instance and folded here once
        per run so ``--metrics-json`` reports machine-wide totals.
        """
        totals = {
            "proto.retry.requests": 0,
            "proto.retry.poisoned": 0,
            "proto.retry.invals": 0,
            "proto.stale.responses": 0,
            "proto.stale.acks": 0,
            "proto.dup.invals_acked": 0,
            "proto.dup.regrants": 0,
            "proto.dup.requests_merged": 0,
            "proto.pushes_rejected": 0,
        }
        for node in self.nodes:
            totals["proto.retry.requests"] += node.cache.request_retries
            totals["proto.retry.poisoned"] += node.cache.poisoned_reissues
            totals["proto.retry.invals"] += node.directory.inval_retries
            totals["proto.stale.responses"] += (
                node.cache.stale_responses_dropped
            )
            totals["proto.stale.acks"] += node.directory.stale_acks_dropped
            totals["proto.dup.invals_acked"] += (
                node.cache.duplicate_invals_acked
            )
            totals["proto.dup.regrants"] += (
                node.directory.duplicate_requests_regranted
            )
            totals["proto.dup.requests_merged"] += (
                node.directory.duplicate_requests_merged
            )
            totals["proto.pushes_rejected"] += node.cache.pushes_rejected
        totals["proto.invariant_checks"] = self.invariant_checks
        for name, value in totals.items():
            METRICS.inc(name, value)
        for node in self.nodes:
            for backoff_ns in node.cache.retry_backoffs_ns:
                METRICS.observe("proto.retry.backoff_ns", backoff_ns)
            for backoff_ns in node.directory.retry_backoffs_ns:
                METRICS.observe("proto.retry.backoff_ns", backoff_ns)

    # ------------------------------------------------------------------
    # processor model
    # ------------------------------------------------------------------

    def _run_phase(self, phase: Phase) -> None:
        if len(phase) != self.params.n_nodes:
            raise SimulationError(
                f"phase has {len(phase)} processor streams for a "
                f"{self.params.n_nodes}-node machine"
            )
        self._pending = [list(stream) for stream in phase]
        self._cursor = [0] * self.params.n_nodes
        for proc in range(self.params.n_nodes):
            if self._pending[proc]:
                stagger = self._proc_offset[proc] + self._rng.randrange(
                    0, _PHASE_STAGGER_NS
                )
                self.engine.schedule(stagger, self._issue_next, proc)
        if self.watchdog is not None:
            self.watchdog.run_engine(self.engine)
        else:
            self.engine.run()
        stuck = [
            (proc, len(self._pending[proc]) - self._cursor[proc])
            for proc in range(self.params.n_nodes)
            if self._cursor[proc] != len(self._pending[proc])
        ]
        if stuck:
            detail = ", ".join(f"P{proc}: {n} left" for proc, n in stuck)
            raise SimulationError(
                f"{len(stuck)} processor(s) finished a phase with accesses "
                f"pending ({detail}); engine queue: "
                f"{self.engine.describe_pending()}"
            )

    def _issue_next(self, proc: int) -> None:
        stream = self._pending[proc]
        index = self._cursor[proc]
        if index >= len(stream):
            return
        block, is_write = stream[index]
        self._cursor[proc] = index + 1
        self.accesses_issued += 1
        self._issue_time[proc] = self.engine.now
        home = self.memory_map.home_of(block)
        node = self.nodes[proc]
        if home == proc:
            hit = node.directory.local_access(
                block, is_write, self._done[proc]
            )
            if hit:
                self.engine.schedule(
                    self.params.memory_access_ns, self._completed, proc
                )
        else:
            hit = node.cache.access(block, home, is_write, self._done[proc])
            if hit:
                self.engine.schedule(_CACHE_HIT_NS, self._completed, proc)

    def _completed(self, proc: int) -> None:
        self.access_latencies.append(self.engine.now - self._issue_time[proc])
        if self.watchdog is not None:
            self.watchdog.note_completion()
        think = (
            _THINK_BASE_NS
            + self._proc_offset[proc]
            + self._rng.randrange(0, _THINK_JITTER_NS)
        )
        self.engine.schedule(think, self._issue_next, proc)

    # ------------------------------------------------------------------
    # workload driving
    # ------------------------------------------------------------------

    def begin_workload(
        self,
        workload: Workload,
        iterations: Optional[int] = None,
    ) -> int:
        """Lay out memory and run the start-up phase; return the resolved
        iteration count.

        The workload-driving loop is split into ``begin_workload`` /
        ``run_iteration`` / ``finish_workload`` so a driver can pause at
        any iteration boundary -- a quiescent point where the event queue
        is empty and every transaction has completed -- and capture the
        machine into a checkpoint (:mod:`repro.sim.checkpoint`).
        """
        if workload.n_procs != self.params.n_nodes:
            raise SimulationError(
                f"workload is built for {workload.n_procs} processors but "
                f"the machine has {self.params.n_nodes} nodes"
            )
        if iterations is None:
            iterations = workload.default_iterations
        if iterations < 1:
            raise SimulationError("need at least one iteration")

        layout_rng = random.Random(self.seed ^ 0x5EED)
        workload.setup(Allocator(self.memory_map), layout_rng)

        self.collector.iteration = 0
        for phase in workload.startup(self._rng):
            self._run_phase(phase)
        self.collector.mark_startup_complete()
        return iterations

    def run_iteration(self, workload: Workload, index: int) -> None:
        """Run one main iteration (numbered from 1) of ``workload``."""
        self.collector.iteration = index
        for phase in workload.iteration(index, self._rng):
            self._run_phase(phase)

    def finish_workload(self) -> TraceCollector:
        """End-of-run checks and metric folds; returns the collector."""
        if self.recovery is not None:
            self.assert_quiescent()
            self._fold_fault_metrics()
        # One end-of-run fold, not a hot-path hook: the access-latency
        # distribution goes to ``--metrics-json`` even with OBS off.
        # Latencies repeat heavily, so each distinct value is one bulk
        # update; the cursor makes a second call fold nothing.
        unfolded = Counter(self.access_latencies[self._folded_latencies:])
        for latency_ns, count in unfolded.items():
            METRICS.observe_many("sim.access.latency_ns", latency_ns, count)
        self._folded_latencies = len(self.access_latencies)
        # Same for the network's deferred per-send latency samples
        # (custom interconnects may not batch and need no flush).
        flush = getattr(self.network, "flush_metrics", None)
        if flush is not None:
            flush()
        return self.collector

    def run_workload(
        self,
        workload: Workload,
        iterations: Optional[int] = None,
    ) -> TraceCollector:
        """Run ``workload`` for ``iterations`` main iterations.

        Returns the trace collector; its ``events`` property excludes the
        start-up phase, matching the paper's methodology.  Iterations are
        numbered from 1; start-up events carry iteration 0.
        """
        iterations = self.begin_workload(workload, iterations)
        for index in range(1, iterations + 1):
            self.run_iteration(workload, index)
        return self.finish_workload()


def simulate(
    workload: Workload,
    iterations: Optional[int] = None,
    params: SystemParams = PAPER_PARAMS,
    options: StacheOptions = DEFAULT_OPTIONS,
    seed: int = 0,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    watchdog: Optional["Watchdog"] = None,
) -> TraceCollector:
    """One-call convenience: build a machine, run ``workload``, return the trace."""
    machine = Machine(
        params=params,
        options=options,
        seed=seed,
        faults=faults,
        fault_seed=fault_seed,
        watchdog=watchdog,
    )
    return machine.run_workload(workload, iterations=iterations)
