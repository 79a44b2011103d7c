"""Experiment: critical-path composition under prediction.

Not a table from the paper -- the paper's *argument*, made measurable.
Section 2 claims a correct prediction removes the directory-indirection
hop from a coherence transaction's critical path; the accuracy tables
(5, 6, 8) only show how often predictions are right.  This experiment
traces every transaction causally (:mod:`repro.obs.spans`), segments its
critical path (:mod:`repro.obs.critpath`), and compares predictors on
*composition*: how much of the aggregate critical path remains directory
indirection, how much is converted to predicted shortcuts, and what the
mispredictions cost -- per workload, in simulated nanoseconds.

Each application is simulated once with span tracing on; every predictor
then replays the same trace (the paper's trace-driven methodology), so
differences between rows are attributable to the predictor alone.  The
output is deterministic for a given (workload, seed, depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..accel.model import F, R
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..obs.critpath import (
    CritPathSummary,
    attributed_paths,
    replay_outcomes,
    summarize,
)
from ..obs.spans import SPANS, build_transactions
from ..predictors.last_message import LastMessagePredictor
from ..sim.machine import simulate
from ..sim.params import PAPER_PARAMS
from ..workloads.registry import BENCHMARK_NAMES
from .common import iterations_for, workload_for

#: Predictor rows, in presentation order.  ``none`` is the no-predictor
#: baseline every comparison anchors on.
PREDICTOR_NAMES = ("none", "last-message", "cosmos")

#: MHR depth of the Cosmos row.
DEPTH = 2


@dataclass(frozen=True)
class CriticalPathResult:
    """Per-(application, predictor) critical-path summaries."""

    depth: int
    #: ``summaries[app][predictor]`` -> :class:`CritPathSummary`.
    summaries: Dict[str, Dict[str, CritPathSummary]]

    def format(self) -> str:
        parts: List[str] = [
            "Critical-path composition by predictor (Cosmos depth "
            f"{self.depth}; f={F}, r={R} as in Section 4).\n"
            "'indirection' is the directory time a correct prediction "
            "shortcuts;\n'saved' / 'penalty' are critical-path ns "
            "removed by hits / added by misses."
        ]
        for app, by_predictor in self.summaries.items():
            rows: List[List[object]] = []
            for predictor in PREDICTOR_NAMES:
                summary = by_predictor[predictor]
                rows.append(
                    [
                        predictor,
                        summary.transactions,
                        f"{summary.mean_share('indirection'):.1%}",
                        f"{summary.mean_share('predicted-shortcut'):.1%}",
                        f"{summary.mean_share('transfer'):.1%}",
                        f"{summary.mean_share('queue'):.1%}",
                        summary.hits,
                        summary.misses,
                        f"{summary.saved_ns:.0f}",
                        f"{summary.penalty_ns:.0f}",
                    ]
                )
            parts.append(
                render_table(
                    [
                        "predictor",
                        "txns",
                        "indirect",
                        "shortcut",
                        "transfer",
                        "queue",
                        "hits",
                        "misses",
                        "saved ns",
                        "penalty ns",
                    ],
                    rows,
                    title=f"{app}: mean critical-path shares",
                )
            )
        return "\n\n".join(parts)


def _trace_spans(app: str, seed: int, quick: bool):
    """Simulate ``app`` once with span tracing; return (events, txns)."""
    SPANS.enable()
    try:
        collector = simulate(
            workload_for(app, quick),
            iterations=iterations_for(app, quick),
            seed=seed,
        )
        transactions = build_transactions(SPANS.records)
    finally:
        SPANS.disable()
    return collector.all_events, transactions


def run_critical_path(
    apps: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = False,
) -> CriticalPathResult:
    """Compare predictors on critical-path composition per workload."""
    apps = list(apps) if apps is not None else list(BENCHMARK_NAMES)
    latency_ns = PAPER_PARAMS.one_way_message_ns
    summaries: Dict[str, Dict[str, CritPathSummary]] = {}
    for app in apps:
        events, transactions = _trace_spans(app, seed, quick)
        by_predictor: Dict[str, CritPathSummary] = {}
        for predictor in PREDICTOR_NAMES:
            outcomes: Dict[int, Optional[str]] = {}
            if predictor != "none":
                if predictor == "last-message":
                    replay = dict(predictor_factory=LastMessagePredictor)
                else:
                    replay = dict(config=CosmosConfig(depth=DEPTH))
                column = evaluate_trace(
                    events, track_arcs=False, record_outcomes=True, **replay
                ).outcomes
                outcomes = replay_outcomes(events, transactions, column)
            paths = attributed_paths(transactions, outcomes, latency_ns)
            by_predictor[predictor] = summarize(paths)
        summaries[app] = by_predictor
    return CriticalPathResult(depth=DEPTH, summaries=summaries)
