"""Per-arc (message-transition) statistics: the labels of Figures 6 and 7.

The paper's signature figures draw, for each application and each role, a
graph whose nodes are incoming message types and whose arcs are observed
consecutive-message transitions per block.  Each arc is labelled ``X/Y``:
X = percentage of references to that arc predicted correctly, Y = the
arc's share of all references at that role.  Both are measured with a
depth-1, filterless Cosmos predictor, which is what
:func:`repro.core.evaluation.evaluate_trace` tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.config import CosmosConfig
from ..core.evaluation import ArcStats, EvaluationResult, evaluate_trace
from ..protocol.messages import MessageType, Role
from ..trace.events import TraceEvent


@dataclass(frozen=True)
class Arc:
    """One labelled arc of a signature figure."""

    role: Role
    src: MessageType
    dst: MessageType
    hit_percent: float
    ref_percent: float
    refs: int

    @property
    def label(self) -> str:
        """The paper's ``X/Y`` arc label."""
        return f"{self.hit_percent:.0f}/{self.ref_percent:.0f}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.role}] {self.src} -> {self.dst}  {self.label} "
            f"({self.refs} refs)"
        )


def arcs_from_result(
    result: EvaluationResult,
    min_ref_percent: float = 0.0,
) -> List[Arc]:
    """Extract labelled arcs from an evaluation, largest share first."""
    stats: ArcStats = result.arcs
    arcs: List[Arc] = []
    totals = {
        Role.CACHE: stats.total_refs(Role.CACHE),
        Role.DIRECTORY: stats.total_refs(Role.DIRECTORY),
    }
    for (arc_role, src, dst), tally in stats.tallies.items():
        total = totals[arc_role]
        ref_percent = 100.0 * tally.refs / total if total else 0.0
        if ref_percent < min_ref_percent:
            continue
        arcs.append(
            Arc(
                role=arc_role,
                src=src,
                dst=dst,
                hit_percent=100.0 * tally.accuracy,
                ref_percent=ref_percent,
                refs=tally.refs,
            )
        )
    arcs.sort(key=lambda arc: (-arc.ref_percent, str(arc.src), str(arc.dst)))
    return arcs


def measure_arcs(
    events: Sequence[TraceEvent],
    depth: int = 1,
    min_ref_percent: float = 1.0,
) -> List[Arc]:
    """Run a depth-``depth`` Cosmos over ``events`` and return its arcs."""
    result = evaluate_trace(events, CosmosConfig(depth=depth))
    return arcs_from_result(result, min_ref_percent=min_ref_percent)
