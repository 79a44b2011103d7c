"""Experiment: critical-path composition under prediction.

Not a table from the paper -- the paper's *argument*, made measurable.
Section 2 claims a correct prediction removes the directory-indirection
hop from a coherence transaction's critical path; the accuracy tables
(5, 6, 8) only show how often predictions are right.  This experiment
traces every transaction causally (span capture on :data:`repro.obs.OBS`,
rebuilt by :mod:`repro.obs.spans`), segments its
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
from ..obs.log import OBS
from ..obs.spans import Transaction, build_transactions
from ..predictors.last_message import LastMessagePredictor
from ..sim.faults import FaultProfile
from ..sim.machine import simulate
from ..sim.params import PAPER_PARAMS
from ..trace.events import TraceEvent
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


def trace_spans(
    app: str,
    seed: int,
    quick: bool,
    iterations: Optional[int] = None,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
) -> Tuple[List[TraceEvent], Dict[int, Transaction]]:
    """Simulate ``app`` once with span capture on; return (events, txns).

    ``iterations`` defaults to the experiments' count for ``app``.
    """
    if iterations is None:
        iterations = iterations_for(app, quick)
    OBS.set_spans(True)
    try:
        collector = simulate(
            workload_for(app, quick),
            iterations=iterations,
            seed=seed,
            faults=faults,
            fault_seed=fault_seed,
        )
        transactions = build_transactions(OBS.records)
    finally:
        OBS.set_spans(False)
    return collector.all_events, transactions


def predicted_outcomes(
    events: List[TraceEvent],
    transactions: Dict[int, Transaction],
    **replay: object,
) -> Dict[int, Optional[str]]:
    """Map each transaction to its outcome under one predictor's replay.

    ``replay`` picks the predictor as for :func:`evaluate_trace`
    (``config=`` or ``predictor_factory=``).
    """
    column = evaluate_trace(
        events, track_arcs=False, record_outcomes=True, **replay
    ).outcomes
    return replay_outcomes(events, transactions, column)


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
        events, transactions = trace_spans(app, seed, quick)
        by_predictor: Dict[str, CritPathSummary] = {}
        for predictor in PREDICTOR_NAMES:
            outcomes: Dict[int, Optional[str]] = {}
            if predictor != "none":
                if predictor == "last-message":
                    replay = dict(predictor_factory=LastMessagePredictor)
                else:
                    replay = dict(config=CosmosConfig(depth=DEPTH))
                outcomes = predicted_outcomes(events, transactions, **replay)
            paths = attributed_paths(transactions, outcomes, latency_ns)
            by_predictor[predictor] = summarize(paths)
        summaries[app] = by_predictor
    return CriticalPathResult(depth=DEPTH, summaries=summaries)
