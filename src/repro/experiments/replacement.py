"""Experiment: Section 3.7 -- cache replacement and Cosmos history loss.

Stache never replaces remote blocks, so the paper's Cosmos always keeps
its history; Section 3.7 warns that an implementation merging the
first-level table into the cache-block state would lose a block's
history at every replacement.  This experiment quantifies both halves:

1. **Traffic**: shrinking the cache forces silent replacement of clean
   blocks, whose re-reads inflate coherence traffic.
2. **Prediction**: the same trace is scored twice -- once with
   *persistent* predictor history (a decoupled table, the paper's
   recommendation) and once with history *dropped on every replacement*
   (the merged organization).  The gap is the cost of merging.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, List, Optional, Sequence, Tuple

import random

from ..analysis.report import render_table
from ..core.bank import PredictorBank
from ..core.config import CosmosConfig
from ..protocol.messages import Role
from ..protocol.stache import StacheOptions
from ..sim.machine import Machine
from ..sim.memory_map import Allocator
from ..sim.params import PAPER_PARAMS, SystemParams
from ..trace.events import TraceEvent
from ..workloads.access import Phase, read, write
from ..workloads.base import Workload


class ReadMostlyMicro(Workload):
    """Shared lookup tables: read every iteration, written rarely.

    Invalidation-based sharing already forces a miss after every write,
    so cache capacity only shows up as extra traffic when blocks are
    *re-read without intervening writes* -- exactly this access pattern.
    Each processor reads all table blocks every iteration; an owner
    refreshes the table only every ``write_period`` iterations.
    """

    name = "read-mostly-micro"
    description = "shared lookup tables, reread each iteration, rare writes"
    default_iterations = 30

    def __init__(
        self,
        n_procs: int = 16,
        table_blocks: int = 48,
        readers: int = 4,
        write_period: int = 10,
    ) -> None:
        super().__init__(n_procs)
        self.table_blocks = table_blocks
        self.readers = readers
        self.write_period = write_period
        self._blocks: list = []

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        self._blocks = allocator.alloc_blocks(self.table_blocks)

    def iteration(self, index: int, rng: random.Random):
        phase = self._new_phase()
        if index % self.write_period == 1:
            for block_index, block in enumerate(self._blocks):
                phase[block_index % self.n_procs].append(write(block))
        lookups = self._new_phase()
        for block_index, block in enumerate(self._blocks):
            owner = block_index % self.n_procs
            for offset in range(1, self.readers + 1):
                lookups[(owner + offset) % self.n_procs].append(read(block))
        return [phase, lookups]

#: A replacement marker: (time, node, block).
Replacement = Tuple[int, int, int]


def evaluate_with_history_loss(
    events: Sequence[TraceEvent],
    replacements: Iterable[Replacement],
    config: Optional[CosmosConfig] = None,
) -> float:
    """Overall accuracy when cache-side history dies with the cache line.

    Events and replacement markers are merged in time order; each marker
    erases the evicted block's history in the evicting node's cache-side
    predictor (directory-side history is unaffected -- directory state is
    persistent, as Section 3.7 notes).
    """
    bank = PredictorBank(
        config if config is not None else CosmosConfig(depth=1)
    )

    # Merge the two time-ordered streams (tag 0 = replacement first at a
    # tie: the eviction happens before the next message is handled).
    timeline = heapq.merge(
        ((time, 0, (node, block)) for time, node, block in replacements),
        (
            (event.time, 1, event)
            for event in events
        ),
    )
    hits = refs = 0
    # Own loop, not evaluate_trace's: a replacement marker must reach
    # ``forget`` between two events of the replay.
    for _time, tag, payload in timeline:
        if tag == 0:
            node, block = payload
            bank.predictor_for(node, Role.CACHE).forget(block)
        else:
            observation = bank.observe(payload)
            refs += 1
            hits += observation.hit
    return hits / refs if refs else 0.0


@dataclass(frozen=True)
class ReplacementPoint:
    """Measurements at one cache size."""

    cache_blocks: Optional[int]  # None = infinite (Stache)
    messages: int
    replacements: int
    accuracy_persistent: float
    accuracy_merged: float

    @property
    def history_loss_cost(self) -> float:
        """Accuracy points lost by merging history into cache state."""
        return 100.0 * (self.accuracy_persistent - self.accuracy_merged)


@dataclass(frozen=True)
class ReplacementResult:
    """Cache-size sweep for one application."""

    app: str
    depth: int
    points: List[ReplacementPoint]

    def format(self) -> str:
        headers = [
            "cache (blocks)",
            "messages",
            "replacements",
            "persistent-history acc",
            "merged-history acc",
            "merge cost (points)",
        ]
        body = []
        for point in self.points:
            body.append(
                [
                    "inf" if point.cache_blocks is None else point.cache_blocks,
                    point.messages,
                    point.replacements,
                    f"{100 * point.accuracy_persistent:.1f}%",
                    f"{100 * point.accuracy_merged:.1f}%",
                    f"{point.history_loss_cost:.1f}",
                ]
            )
        return render_table(
            headers,
            body,
            title=(
                f"Section 3.7 replacement study ({self.app}, Cosmos depth "
                f"{self.depth}): persistent vs cache-merged history"
            ),
        )


def run_replacement_study(
    cache_blocks: Iterable[Optional[int]] = (None, 64, 32, 16),
    depth: int = 1,
    seed: int = 0,
) -> ReplacementResult:
    """Sweep cache capacity; measure traffic and history-loss cost.

    The workload is :class:`ReadMostlyMicro`: under write-invalidate
    coherence, actively shared blocks are invalidated between uses
    anyway, so only read-mostly reuse exposes the capacity-traffic
    effect.
    """
    points: List[ReplacementPoint] = []
    for capacity in cache_blocks:
        if capacity is None:
            params = PAPER_PARAMS
            options = StacheOptions()
        else:
            params = dc_replace(
                PAPER_PARAMS,
                cache_bytes=capacity * PAPER_PARAMS.cache_block_bytes,
            )
            options = StacheOptions(finite_caches=True)
        machine = Machine(params=params, options=options, seed=seed)
        workload = ReadMostlyMicro()
        machine.run_workload(workload, iterations=workload.default_iterations)
        events = machine.collector.events
        config = CosmosConfig(depth=depth)
        persistent = evaluate_with_history_loss(events, [], config)
        merged = evaluate_with_history_loss(
            events, machine.replacements, config
        )
        points.append(
            ReplacementPoint(
                cache_blocks=capacity,
                messages=len(events),
                replacements=len(machine.replacements),
                accuracy_persistent=persistent,
                accuracy_merged=merged,
            )
        )
    return ReplacementResult(
        app=ReadMostlyMicro.name, depth=depth, points=points
    )
