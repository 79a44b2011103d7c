"""Inline integration: a prediction-accelerated directory protocol.

The paper studies prediction in isolation and sketches integration in
Section 4.  This module builds two of Table 2's actions for real, inside
the directory controller, each driven by a live Cosmos predictor that
observes the directory's incoming messages:

* **exclusive grant** (read-modify-write optimization): when a read miss
  arrives and Cosmos predicts the *next* message for the block will be an
  ``upgrade_request`` from the same requester, answer the read with an
  exclusive copy.  A correct prediction deletes the whole upgrade
  transaction; a misprediction costs extra invalidation work later, which
  the simulator charges naturally.
* **data push** (producer-initiated communication): when Cosmos predicts
  the next message will be a ``get_ro_request`` from some consumer, send
  that consumer the data before it asks.  A correct prediction turns the
  consumer's miss into a hit (two messages saved); a misprediction leaves
  a harmless extra sharer that later invalidations must visit.

Both actions are of Section 4.3's cheapest recovery class: they only move
the protocol between legal states, so mispredictions can never corrupt
coherence -- the protocol's own invariant checks run throughout.

:func:`compare_acceleration` runs the same workload on a plain machine
and a predictive machine (same seed, hence identical access streams) and
reports messages, grants, pushes, and elapsed simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.config import CosmosConfig
from ..core.predictor import CosmosPredictor
from ..protocol.directory_ctrl import DirectoryController, _Request, _Txn
from ..protocol.messages import Message, MessageType
from ..protocol.recovery import RecoveryConfig, Scheduler
from ..protocol.stache import DEFAULT_OPTIONS, StacheOptions
from ..sim.faults import FaultProfile
from ..sim.machine import Machine
from ..sim.params import PAPER_PARAMS, SystemParams
from ..workloads.base import Workload


class PredictiveDirectoryController(DirectoryController):
    """Directory with Cosmos-driven exclusive grants and data pushes."""

    def __init__(
        self,
        node_id: int,
        send: Callable[[Message], None],
        options: StacheOptions = DEFAULT_OPTIONS,
        config: CosmosConfig = CosmosConfig(depth=2),
        grant_exclusive: bool = True,
        push_data: bool = False,
        *,
        recovery: Optional[RecoveryConfig] = None,
        schedule: Optional[Scheduler] = None,
    ) -> None:
        super().__init__(
            node_id, send, options, recovery=recovery, schedule=schedule
        )
        self.predictor = CosmosPredictor(config)
        self.grant_exclusive = grant_exclusive
        self.push_data = push_data
        self.exclusive_grants = 0
        self.pushes = 0

    def handle_message(self, msg: Message) -> None:
        # Train on every incoming message first, so the prediction below
        # is conditioned on a history that includes this message.
        self.predictor.observe(msg.block, (msg.src, msg.mtype))
        if (
            self.grant_exclusive
            and msg.mtype is MessageType.GET_RO_REQUEST
            # A requester already listed as a sharer sent this request
            # before our data push reached it; granting exclusive now
            # would double-respond.  Let the base re-grant path serve it.
            and msg.src not in self.entry_of(msg.block).sharers
        ):
            predicted = self.predictor.predict(msg.block)
            if predicted == (msg.src, MessageType.UPGRADE_REQUEST):
                # Serve the read as a write: the requester gets the block
                # exclusive and its upcoming upgrade never happens.
                self.exclusive_grants += 1
                self._admit(
                    msg.block,
                    _Request(
                        requester=msg.src,
                        is_write=True,
                        was_upgrade=False,
                        done_cb=None,
                        req_seq=msg.seq,
                        txn=msg.txn,
                    ),
                )
                self._try_push(msg.block)
                return
        super().handle_message(msg)
        self._try_push(msg.block)

    def _try_push(self, block: int) -> None:
        """Push data to a predicted consumer, when legal right now."""
        if not self.push_data or self.is_busy(block):
            return
        if self._recovery is not None:
            # The Table 1 vocabulary has no push ack/nack, so a pushed
            # copy racing an invalidation cannot be closed out safely on
            # an unreliable network; caches refuse pushes under faults
            # and the directory does not offer them.
            return
        predicted = self.predictor.predict(block)
        if predicted is None:
            return
        consumer, mtype = predicted
        if mtype is not MessageType.GET_RO_REQUEST:
            return
        entry = self.entry_of(block)
        if (
            entry.owner is not None
            or consumer == self.node_id
            or consumer in entry.sharers
        ):
            return
        self.pushes += 1
        entry.sharers.add(consumer)
        self._send(
            Message(
                src=self.node_id,
                dst=consumer,
                mtype=MessageType.GET_RO_RESPONSE,
                block=block,
            )
        )

    def _start_read(self, block, entry, request):
        # A push may race the consumer's own read request; re-grant the
        # (now listed) sharer instead of treating it as a protocol error.
        if (
            self.push_data
            and request.requester in entry.sharers
            and not request.is_local
        ):
            return _Txn(
                request=request,
                pending_acks=set(),
                final_owner=None,
                final_sharers=set(entry.sharers),
                reply_type=MessageType.GET_RO_RESPONSE,
            )
        return super()._start_read(block, entry, request)


class PredictiveMachine(Machine):
    """A machine whose directories act on Cosmos predictions."""

    def __init__(
        self,
        params: SystemParams = PAPER_PARAMS,
        options: StacheOptions = DEFAULT_OPTIONS,
        seed: int = 0,
        config: CosmosConfig = CosmosConfig(depth=2),
        grant_exclusive: bool = True,
        push_data: bool = False,
        faults: Optional[FaultProfile] = None,
        fault_seed: int = 0,
    ) -> None:
        super().__init__(
            params=params,
            options=options,
            seed=seed,
            faults=faults,
            fault_seed=fault_seed,
        )
        self.predictor_config = config
        for node in self.nodes:
            node.directory = PredictiveDirectoryController(
                node.node_id,
                self.network.send,
                options,
                config,
                grant_exclusive=grant_exclusive,
                push_data=push_data,
                recovery=self.recovery,
                schedule=self.engine.schedule,
            )
            if push_data:
                node.cache.allow_pushed_data = True

    @property
    def exclusive_grants(self) -> int:
        return sum(
            node.directory.exclusive_grants
            for node in self.nodes
            if isinstance(node.directory, PredictiveDirectoryController)
        )

    @property
    def pushes(self) -> int:
        return sum(
            node.directory.pushes
            for node in self.nodes
            if isinstance(node.directory, PredictiveDirectoryController)
        )

    @property
    def pushed_blocks_accepted(self) -> int:
        return sum(node.cache.pushed_blocks_accepted for node in self.nodes)


@dataclass(frozen=True)
class AccelerationComparison:
    """Plain vs prediction-accelerated run of the same workload."""

    baseline_messages: int
    accelerated_messages: int
    baseline_time_ns: int
    accelerated_time_ns: int
    exclusive_grants: int
    pushes: int = 0
    baseline_stall_ns: int = 0
    accelerated_stall_ns: int = 0

    @property
    def stall_reduction(self) -> float:
        """Fractional reduction in total access stall time.

        The empirical counterpart of the Section 4.4 model's ``f``:
        correctly predicted transactions overlap or skip protocol work,
        shrinking the time processors spend waiting on shared accesses.
        (Total stall -- not mean miss latency -- because the actions turn
        the *shortest* misses into hits, which would misleadingly raise
        the mean of the misses that remain.)
        """
        if self.baseline_stall_ns <= 0:
            return 0.0
        return 1.0 - self.accelerated_stall_ns / self.baseline_stall_ns

    @property
    def message_reduction(self) -> float:
        """Fraction of coherence messages eliminated by prediction."""
        if self.baseline_messages == 0:
            return 0.0
        return 1.0 - self.accelerated_messages / self.baseline_messages

    @property
    def time_speedup(self) -> float:
        """Simulated-time speedup of the accelerated machine."""
        if self.accelerated_time_ns == 0:
            return float("inf")
        return self.baseline_time_ns / self.accelerated_time_ns


def compare_acceleration(
    workload_factory: Callable[[], Workload],
    iterations: Optional[int] = None,
    params: SystemParams = PAPER_PARAMS,
    options: StacheOptions = DEFAULT_OPTIONS,
    seed: int = 0,
    config: CosmosConfig = CosmosConfig(depth=2),
    grant_exclusive: bool = True,
    push_data: bool = False,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
) -> AccelerationComparison:
    """Run one workload with and without directory-side prediction.

    ``workload_factory`` must build a fresh workload per call (workloads
    carry layout state, so instances cannot be reused across machines).
    """
    baseline = Machine(
        params=params,
        options=options,
        seed=seed,
        faults=faults,
        fault_seed=fault_seed,
    )
    baseline.run_workload(workload_factory(), iterations=iterations)
    predictive = PredictiveMachine(
        params=params,
        options=options,
        seed=seed,
        config=config,
        grant_exclusive=grant_exclusive,
        push_data=push_data,
        faults=faults,
        fault_seed=fault_seed,
    )
    predictive.run_workload(workload_factory(), iterations=iterations)
    return AccelerationComparison(
        baseline_messages=baseline.network.messages_sent,
        accelerated_messages=predictive.network.messages_sent,
        baseline_time_ns=baseline.engine.now,
        accelerated_time_ns=predictive.engine.now,
        exclusive_grants=predictive.exclusive_grants,
        pushes=predictive.pushes,
        baseline_stall_ns=sum(
            latency for latency, _ in baseline.access_latencies
        ),
        accelerated_stall_ns=sum(
            latency for latency, _ in predictive.access_latencies
        ),
    )
