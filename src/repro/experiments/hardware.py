"""Experiment: hardware-budget studies of Cosmos.

The paper evaluates an unbounded Cosmos (Stache's tables live in main
memory and persist).  A hardware implementation faces two knobs the
paper leaves open:

* **Capacity** -- a bounded Message History Table must evict predictor
  state (``mhr_capacity`` with LRU eviction here).  We sweep per-module
  MHT capacity and watch accuracy fall off once the table no longer
  covers the active working set of blocks.
* **Confidence** -- Section 4's actions pay real costs on
  mispredictions, so an implementation may only act on *confident*
  predictions.  Gating on the filter counter trades coverage for
  precision; we report the trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..trace.events import TraceEvent
from .common import get_trace

#: The application whose trace the hardware sweep replays.
HARDWARE_APP = "moldyn"


@dataclass(frozen=True)
class CapacityPoint:
    """Accuracy at one per-module MHT capacity."""

    capacity: Optional[int]  # None = unbounded
    overall: float
    evictions: int


@dataclass(frozen=True)
class ConfidencePoint:
    """Coverage/precision at one confidence threshold."""

    threshold: int
    accuracy: float
    precision: float
    coverage: float


@dataclass(frozen=True)
class HardwareResult:
    """Capacity and confidence sweeps for one application."""

    app: str
    capacity_points: List[CapacityPoint]
    confidence_points: List[ConfidencePoint]

    def format(self) -> str:
        cap_headers = ["MHT capacity / module", "overall", "evictions"]
        cap_body = [
            [
                "unbounded" if p.capacity is None else p.capacity,
                f"{p.overall:.1%}",
                p.evictions,
            ]
            for p in self.capacity_points
        ]
        text = render_table(
            cap_headers,
            cap_body,
            title=f"Hardware budget ({self.app}): accuracy vs MHT capacity",
        )
        conf_headers = ["confidence threshold", "accuracy", "precision",
                        "coverage"]
        conf_body = [
            [
                p.threshold,
                f"{p.accuracy:.1%}",
                f"{p.precision:.1%}",
                f"{p.coverage:.1%}",
            ]
            for p in self.confidence_points
        ]
        text += "\n\n" + render_table(
            conf_headers,
            conf_body,
            title=(
                f"Confidence gating ({self.app}): coverage/precision "
                "trade-off (depth 1, filter max 3)"
            ),
        )
        return text


def _run_bank(
    events: Iterable[TraceEvent], config: CosmosConfig
) -> Tuple[int, int, int, int]:
    """(hits, predictions, refs, evictions) over a per-module bank."""
    result = evaluate_trace(events, config, track_arcs=False)
    predictions = sum(p.predictions for _key, p in result.bank)
    report = result.bank.memory_report()
    evictions = report["evictions_mhr"] if report is not None else 0
    return result.overall.hits, predictions, result.overall.refs, evictions


def run_hardware(
    app: str = HARDWARE_APP,
    capacities: Iterable[Optional[int]] = (None, 256, 64, 16, 4),
    thresholds: Iterable[int] = (0, 1, 2, 3),
    seed: int = 0,
    quick: bool = False,
) -> HardwareResult:
    """Sweep MHT capacity and confidence threshold on one trace."""
    events = get_trace(app, seed=seed, quick=quick)
    capacity_points: List[CapacityPoint] = []
    for capacity in capacities:
        config = CosmosConfig(
            depth=1, mhr_capacity=capacity or 0, eviction="lru"
        )
        hits, _preds, refs, evictions = _run_bank(events, config)
        capacity_points.append(
            CapacityPoint(
                capacity=capacity,
                overall=hits / refs if refs else 0.0,
                evictions=evictions,
            )
        )
    confidence_points: List[ConfidencePoint] = []
    for threshold in thresholds:
        config = CosmosConfig(
            depth=1, filter_max_count=3, confidence_threshold=threshold
        )
        hits, preds, refs, _evictions = _run_bank(events, config)
        confidence_points.append(
            ConfidencePoint(
                threshold=threshold,
                accuracy=hits / refs if refs else 0.0,
                precision=hits / preds if preds else 0.0,
                coverage=preds / refs if refs else 0.0,
            )
        )
    return HardwareResult(
        app=app,
        capacity_points=capacity_points,
        confidence_points=confidence_points,
    )
