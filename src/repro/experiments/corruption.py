"""Experiment: Cosmos accuracy vs predictor-state corruption rate.

The fault study (``repro.experiments.faults``) perturbs the *messages*
Cosmos observes; this study perturbs the *predictor's own SRAM*.  Each
application's fault-free trace (shared with every other experiment
through the trace cache -- corruption never touches the simulation) is
replayed through predictor banks armed with increasing soft-error
rates: per observation, a stored tuple suffers a single bit flip with
probability ``rate`` and a whole block's history is lost with
probability ``rate / 4`` (whole-entry errors are the rarer failure
mode).

The defended predictor (parity per stored tuple, drop-and-relearn on
mismatch -- see :mod:`repro.core.corruption`) should degrade *smoothly*:
detected corruption costs one relearning window, never a wrong
prediction served indefinitely.  The table reports how many errors were
injected, how many the parity check caught, and what the surviving
corruption cost in accuracy points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.corruption import CorruptionProfile
from ..core.evaluation import evaluate_trace
from ..core.predictor import CosmosPredictor, armed_factory
from ..workloads.registry import BENCHMARK_NAMES
from .common import get_trace

#: Per-observation bit-flip probabilities swept by the study.
CORRUPTION_RATES = (0.0, 0.001, 0.01, 0.05)

#: Entry-loss probability as a fraction of the flip probability.
LOSS_RATIO = 0.25

#: MHR depth of the replayed predictors.
DEPTH = 2


@dataclass(frozen=True)
class CorruptionRow:
    """One (application, corruption rate) cell of the study."""

    app: str
    rate: float
    events: int
    injected_flips: int
    injected_losses: int
    detected: int
    cache_accuracy: float
    directory_accuracy: float
    overall_accuracy: float


@dataclass(frozen=True)
class CorruptionStudyResult:
    """Accuracy-vs-soft-error-rate sweep."""

    rows: List[CorruptionRow]
    depth: int

    def row(self, app: str, rate: float) -> CorruptionRow:
        for row in self.rows:
            if row.app == app and row.rate == rate:
                return row
        raise KeyError(f"no ({app}, {rate}) row")

    def format(self) -> str:
        headers = [
            "Application",
            "rate",
            "events",
            "flips",
            "losses",
            "detected",
            "cache",
            "dir",
            "overall",
        ]
        body: List[List[object]] = []
        for row in self.rows:
            body.append(
                [
                    row.app,
                    f"{row.rate:g}",
                    row.events,
                    row.injected_flips,
                    row.injected_losses,
                    row.detected,
                    f"{row.cache_accuracy:.1%}",
                    f"{row.directory_accuracy:.1%}",
                    f"{row.overall_accuracy:.1%}",
                ]
            )
        text = render_table(
            headers,
            body,
            title=(
                f"Cosmos (depth {self.depth}) accuracy vs predictor-state "
                "corruption rate (parity-protected, drop-and-relearn)"
            ),
        )
        rates = list(dict.fromkeys(row.rate for row in self.rows))
        drops: List[List[object]] = []
        for app in dict.fromkeys(row.app for row in self.rows):
            baseline = self.row(app, rates[0])
            line: List[object] = [app]
            for rate in rates:
                delta = (
                    self.row(app, rate).overall_accuracy
                    - baseline.overall_accuracy
                )
                line.append(f"{100 * delta:+.1f}")
            drops.append(line)
        text += "\n\n" + render_table(
            ["Application"] + [f"{rate:g}" for rate in rates],
            drops,
            title="Overall-accuracy change vs corruption-free replay (points)",
        )
        return text


def run_corruption_study(
    seed: int = 0, quick: bool = False
) -> CorruptionStudyResult:
    """Replay every application's trace at every corruption rate.

    The underlying traces are fault-free and cache-shared; corruption is
    injected only into the predictor replay, so a sweep costs one
    simulation (or cache hit) per application regardless of how many
    rates it scores.
    """
    rows: List[CorruptionRow] = []
    config = CosmosConfig(depth=DEPTH)
    for app in BENCHMARK_NAMES:
        events = get_trace(app, seed=seed, quick=quick)
        for rate in CORRUPTION_RATES:
            armed: List[CosmosPredictor] = []
            factory = None
            if rate:
                factory, armed = armed_factory(
                    config,
                    CorruptionProfile(flip=rate, loss=rate * LOSS_RATIO),
                    seed=0,  # the same error streams under every trace seed
                )
            result = evaluate_trace(
                events, config, predictor_factory=factory, track_arcs=False
            )
            rows.append(
                CorruptionRow(
                    app=app,
                    rate=rate,
                    events=len(events),
                    injected_flips=sum(p.corrupt_flips for p in armed),
                    injected_losses=sum(p.corrupt_losses for p in armed),
                    detected=sum(p.corrupt_detected for p in armed),
                    cache_accuracy=result.cache_accuracy,
                    directory_accuracy=result.directory_accuracy,
                    overall_accuracy=result.overall_accuracy,
                )
            )
    return CorruptionStudyResult(rows=rows, depth=DEPTH)
