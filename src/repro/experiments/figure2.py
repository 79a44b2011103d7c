"""Experiment: Figure 2 -- the producer-consumer message signature.

Builds the paper's motivating example from first principles: a producer
incrementing a shared counter read by one consumer, run on the real
simulator, then the incoming-message signature observed at each module
and Cosmos' accuracy once it has locked on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.arcs import measure_arcs
from ..analysis.signatures import Signature, extract_signatures
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..protocol.messages import Role
from ..sim.machine import simulate
from ..sim.memory_map import Allocator
from ..trace.events import TraceEvent
from ..workloads.access import Phase, read
from ..workloads.base import Workload
from ..workloads.patterns import producer_consumer


class ProducerConsumerMicro(Workload):
    """The paper's Figure 2 microworkload: one producer, N consumers."""

    name = "producer-consumer-micro"
    description = "one shared counter: producer increments, consumers read"
    default_iterations = 50

    def __init__(self, n_procs: int = 16, n_consumers: int = 1) -> None:
        super().__init__(n_procs)
        if not 1 <= n_consumers < n_procs:
            raise ValueError("need between 1 and n_procs-1 consumers")
        self.n_consumers = n_consumers
        self._block = 0
        self.producer = 1  # node 0 is the home; keep endpoints remote
        self.consumers = [
            2 + (index % (n_procs - 2)) for index in range(n_consumers)
        ]

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        self._block = allocator.alloc_block(home=0)

    @property
    def block(self) -> int:
        return self._block

    def iteration(self, index: int, rng: random.Random) -> List[Phase]:
        update = self._new_phase()
        producer_consumer(update, self._block, self.producer, [])
        consume = self._new_phase()
        for consumer in self.consumers:
            consume[consumer].append(read(self._block))
        return [update, consume]


@dataclass(frozen=True)
class Figure2Result:
    """Observed signatures and steady-state accuracy of the microworkload."""

    signatures: Dict[Role, Signature]
    steady_accuracy: float
    events: int

    def format(self) -> str:
        lines = [
            "Figure 2: producer-consumer coherence message signature",
            f"(trace: {self.events} messages; steady-state depth-1 Cosmos "
            f"accuracy after warm-up: {self.steady_accuracy:.0%})",
            "",
        ]
        for role, signature in self.signatures.items():
            lines.append(str(signature))
        return "\n".join(lines)


def run_figure2(iterations: int = 50, seed: int = 0) -> Figure2Result:
    """Regenerate the Figure 2 signature from a live simulation."""
    workload = ProducerConsumerMicro()
    collector = simulate(workload, iterations=iterations, seed=seed)
    events = collector.events
    arcs = measure_arcs(events, depth=1, min_ref_percent=0.0)
    signatures = {
        role: sig
        for role, sig in extract_signatures(arcs).items()
        if sig is not None
    }
    # Steady-state accuracy: skip the first 20% of iterations as warm-up.
    warm = [e for e in events if e.iteration > max(1, iterations // 5)]
    result = evaluate_trace(warm, CosmosConfig(depth=1), track_arcs=False)
    return Figure2Result(
        signatures=signatures,
        steady_accuracy=result.overall_accuracy,
        events=len(events),
    )
