"""Accuracy summaries: the C / D / O columns of the paper's Table 5."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.config import CosmosConfig
from ..core.evaluation import EvaluationResult, evaluate_trace
from ..protocol.messages import Role
from ..trace.events import TraceEvent


@dataclass(frozen=True)
class AccuracyRow:
    """One (application, depth) cell of Table 5, in percent."""

    depth: int
    cache: float
    directory: float
    overall: float

    @classmethod
    def from_result(cls, depth: int, result: EvaluationResult) -> "AccuracyRow":
        return cls(
            depth=depth,
            cache=100.0 * result.cache_accuracy,
            directory=100.0 * result.directory_accuracy,
            overall=100.0 * result.overall_accuracy,
        )


def depth_sweep(
    events: Sequence[TraceEvent],
    depths: Iterable[int] = (1, 2, 3, 4),
) -> List[AccuracyRow]:
    """Evaluate one trace at several MHR depths, unfiltered (a Table 5
    column group)."""
    rows = []
    for depth in depths:
        config = CosmosConfig(depth=depth)
        result = evaluate_trace(events, config, track_arcs=False)
        rows.append(AccuracyRow.from_result(depth, result))
    return rows


def filter_sweep(
    events: Sequence[TraceEvent],
    depths: Iterable[int] = (1, 2),
    filter_counts: Iterable[int] = (0, 1, 2),
) -> Dict[int, Dict[int, float]]:
    """Overall accuracy (%) per (depth, filter max count): Table 6 cells."""
    table: Dict[int, Dict[int, float]] = {}
    for depth in depths:
        table[depth] = {}
        for max_count in filter_counts:
            config = CosmosConfig(depth=depth, filter_max_count=max_count)
            result = evaluate_trace(events, config, track_arcs=False)
            table[depth][max_count] = 100.0 * result.overall_accuracy
    return table
