"""Offline optimality reference for table predictors.

How much of Cosmos' miss rate is *learnable* and how much is inherent
noise?  For a fixed history depth ``d``, consider the offline oracle
that knows the whole trace and stores, for every (module, block,
depth-d pattern) context, the single most frequent successor.  Its
accuracy,

    sum over contexts of max successor count  /  total references,

is the ceiling for every *static* depth-``d`` table predictor and a
strong reference point for adaptive ones.  (It is not an absolute bound
for adaptive predictors: on a nonstationary stream -- a context followed
by A all spring and B all summer -- an online learner can beat the best
single static choice.  In practice Cosmos sits below it on all five
applications, so the decomposition reads cleanly.)

Comparing Cosmos to this reference separates its two loss sources:
training loss (cold starts, re-learning after pattern changes) versus
residual per-context noise.

References made while the MHR is still filling have no context and count
as misses for both (matching Cosmos' no-prediction behaviour).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..core.tuples import TUPLE_BITS, pack, shift_history
from ..protocol.messages import Role
from ..trace.events import TraceEvent


@dataclass(frozen=True)
class OptimalityBound:
    """The offline ceiling and Cosmos' standing relative to it."""

    depth: int
    bound_accuracy: float
    cosmos_accuracy: float
    contexts: int
    references: int

    @property
    def gap(self) -> float:
        """Accuracy points between Cosmos and the ceiling (training loss)."""
        return self.bound_accuracy - self.cosmos_accuracy

    @property
    def efficiency(self) -> float:
        """Fraction of the achievable accuracy Cosmos realizes."""
        if self.bound_accuracy == 0.0:
            return 0.0
        return self.cosmos_accuracy / self.bound_accuracy


def optimal_table_accuracy(
    events: Sequence[TraceEvent], depth: int
) -> Tuple[float, int, int]:
    """(ceiling accuracy, context count, reference count) at ``depth``.

    Contexts are (node, role, block, pattern) -- the same indexing a
    per-module Cosmos uses.  References observed before a block's MHR
    fills have no context and count as unavoidable misses.
    """
    full_at = 1 << (TUPLE_BITS * depth)
    counters: Dict[tuple, Counter] = defaultdict(Counter)
    #: (node, role, block) -> marker-led packed history word.
    histories: Dict[tuple, int] = {}
    references = 0
    for event in events:
        references += 1
        key = (event.node, event.role, event.block)
        history = histories.get(key, 1)
        word = pack(event.tuple)
        if history >= full_at:
            counters[key + (history,)][word] += 1
        histories[key] = shift_history(history, word, full_at)
    optimal_hits = sum(
        counter.most_common(1)[0][1] for counter in counters.values()
    )
    accuracy = optimal_hits / references if references else 0.0
    return accuracy, len(counters), references


def measure_bounds(
    events: Sequence[TraceEvent],
    depths: Iterable[int] = (1, 2, 3),
) -> List[OptimalityBound]:
    """Ceiling vs measured Cosmos accuracy at each depth."""
    bounds: List[OptimalityBound] = []
    for depth in depths:
        ceiling, contexts, references = optimal_table_accuracy(events, depth)
        result = evaluate_trace(
            events, CosmosConfig(depth=depth), track_arcs=False
        )
        bounds.append(
            OptimalityBound(
                depth=depth,
                bound_accuracy=ceiling,
                cosmos_accuracy=result.overall_accuracy,
                contexts=contexts,
                references=references,
            )
        )
    return bounds
