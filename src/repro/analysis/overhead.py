"""Memory-overhead analysis across depths (paper Table 7), plus the
Section 3.7 preallocation study (LimitLESS-style static PHT entries with
a dynamic overflow pool) and the Section 7 macroblock ablation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..core.memory import MemoryOverhead
from ..trace.events import TraceEvent


@dataclass(frozen=True)
class OverheadRow:
    """One (application, depth) cell of Table 7."""

    depth: int
    ratio: float
    overhead_percent: float
    mhr_entries: int
    pht_entries: int

    @classmethod
    def from_overhead(cls, overhead: MemoryOverhead) -> "OverheadRow":
        return cls(
            depth=overhead.depth,
            ratio=overhead.ratio,
            overhead_percent=overhead.overhead_percent,
            mhr_entries=overhead.mhr_entries,
            pht_entries=overhead.pht_entries,
        )


def overhead_sweep(
    events: Sequence[TraceEvent],
    depths: Iterable[int] = (1, 2, 3, 4),
) -> List[OverheadRow]:
    """Measure Table 7 quantities for one trace at several depths."""
    rows: List[OverheadRow] = []
    for depth in depths:
        config = CosmosConfig(depth=depth)
        result = evaluate_trace(events, config, track_arcs=False)
        assert result.overhead is not None  # Cosmos banks always report it
        rows.append(OverheadRow.from_overhead(result.overhead))
    return rows


def pht_size_histogram(
    events: Sequence[TraceEvent],
    config: Optional[CosmosConfig] = None,
) -> Dict[int, int]:
    """How many blocks ended the run with N PHT entries, machine-wide.

    The paper's Section 3.7 observes that the number of pattern histories
    per block is low (under four on average at depth 1), motivating a
    scheme that statically preallocates a few entries per block and
    spills the rest to a shared pool (like LimitLESS directory entries).
    """
    bank = evaluate_trace(events, config, track_arcs=False).bank
    histogram: Counter = Counter()
    for _key, predictor in bank:
        for size in predictor.pht_sizes():
            histogram[size] += 1
        histogram[0] += predictor.mhr_entries - len(predictor.pht_sizes())
    return dict(histogram)


@dataclass(frozen=True)
class PreallocationReport:
    """Outcome of a static-N-entries-per-block PHT organization."""

    static_entries: int
    blocks: int
    blocks_overflowing: int
    entries_total: int
    entries_in_overflow_pool: int

    @property
    def overflow_block_fraction(self) -> float:
        return self.blocks_overflowing / self.blocks if self.blocks else 0.0

    @property
    def overflow_entry_fraction(self) -> float:
        if self.entries_total == 0:
            return 0.0
        return self.entries_in_overflow_pool / self.entries_total


def preallocation_report(
    histogram: Dict[int, int], static_entries: int = 4
) -> PreallocationReport:
    """Evaluate a static-allocation size against a PHT size histogram."""
    blocks = sum(histogram.values())
    overflowing = sum(
        count for size, count in histogram.items() if size > static_entries
    )
    entries_total = sum(size * count for size, count in histogram.items())
    overflow_entries = sum(
        (size - static_entries) * count
        for size, count in histogram.items()
        if size > static_entries
    )
    return PreallocationReport(
        static_entries=static_entries,
        blocks=blocks,
        blocks_overflowing=overflowing,
        entries_total=entries_total,
        entries_in_overflow_pool=overflow_entries,
    )


@dataclass(frozen=True)
class MacroblockPoint:
    """One point of the accuracy-vs-memory macroblock trade-off."""

    macroblock_bytes: Optional[int]
    overall_accuracy: float
    mhr_entries: int
    pht_entries: int


def macroblock_sweep(
    events: Sequence[TraceEvent],
    macroblock_sizes: Iterable[Optional[int]] = (None, 128, 256, 512),
    depth: int = 1,
) -> List[MacroblockPoint]:
    """Trade accuracy for table size by widening the MHT index.

    ``None`` means per-block tables (the paper's baseline); wider
    macroblocks shrink both tables but let unrelated blocks' histories
    interleave in one MHR.
    """
    points: List[MacroblockPoint] = []
    for size in macroblock_sizes:
        config = CosmosConfig(depth=depth, macroblock_bytes=size)
        result = evaluate_trace(events, config, track_arcs=False)
        assert result.overhead is not None
        points.append(
            MacroblockPoint(
                macroblock_bytes=size,
                overall_accuracy=result.overall_accuracy,
                mhr_entries=result.overhead.mhr_entries,
                pht_entries=result.overhead.pht_entries,
            )
        )
    return points
