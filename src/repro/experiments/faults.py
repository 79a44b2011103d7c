"""Experiment: Cosmos accuracy and protocol overhead vs interconnect faults.

The paper assumes a reliable interconnect; this study measures what an
*unreliable* one costs.  Each application is simulated under every fault
preset (``none``/``light``/``moderate``/``heavy`` -- increasing drop,
duplicate, and reorder rates), with the protocol's timeout/retry recovery
layer enabled.  Two questions:

* **Robustness** -- does the recovery layer keep every run terminating
  with a coherent final state?  (The simulation itself asserts the
  coherence invariants after every delivery; a row existing means the
  run survived.)
* **Prediction under noise** -- how much does fault-induced message
  shuffling degrade Cosmos' accuracy?  Retries and reordered deliveries
  perturb the per-block message histories the predictor learns from, so
  accuracy should fall as fault rates rise; the interesting result is by
  how little.

Rows bypass the trace cache on purpose: the retry/drop counters come
from the simulation itself, so every cell reflects a fresh run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..sim.faults import PRESETS, FaultProfile
from ..sim.machine import simulate
from ..sim.metrics import METRICS
from ..workloads.registry import BENCHMARK_NAMES
from .common import iterations_for, workload_for

#: Counters sampled (as deltas) around each simulation.
_COUNTERS = (
    "net.fault.sent",
    "net.fault.dropped",
    "net.fault.duplicated",
    "net.fault.reordered",
    "proto.retry.requests",
    "proto.retry.poisoned",
    "proto.retry.invals",
)

#: MHR depth of the scored predictor.
DEPTH = 2


@dataclass(frozen=True)
class FaultRow:
    """One (application, fault profile) cell of the study."""

    app: str
    profile: str
    events: int
    counters: Dict[str, int]
    cache_accuracy: float
    directory_accuracy: float
    overall_accuracy: float


@dataclass(frozen=True)
class FaultStudyResult:
    """Accuracy and recovery-overhead sweep across fault presets."""

    rows: List[FaultRow]
    depth: int

    def row(self, app: str, profile: str) -> FaultRow:
        for row in self.rows:
            if row.app == app and row.profile == profile:
                return row
        raise KeyError(f"no ({app}, {profile}) row")

    def format(self) -> str:
        headers = [
            "Application",
            "profile",
            "events",
            "dropped",
            "dup",
            "reordered",
            "retries",
            "poisoned",
            "cache",
            "dir",
            "overall",
        ]
        body: List[List[object]] = []
        for row in self.rows:
            body.append(
                [
                    row.app,
                    row.profile,
                    row.events,
                    row.counters["net.fault.dropped"],
                    row.counters["net.fault.duplicated"],
                    row.counters["net.fault.reordered"],
                    row.counters["proto.retry.requests"]
                    + row.counters["proto.retry.invals"],
                    row.counters["proto.retry.poisoned"],
                    f"{row.cache_accuracy:.1%}",
                    f"{row.directory_accuracy:.1%}",
                    f"{row.overall_accuracy:.1%}",
                ]
            )
        text = render_table(
            headers,
            body,
            title=(
                f"Cosmos (depth {self.depth}) accuracy vs interconnect fault "
                "rate; every run passed the coherence-invariant checker"
            ),
        )
        drops: List[List[object]] = []
        for app in dict.fromkeys(row.app for row in self.rows):
            baseline = self.row(app, "none")
            line: List[object] = [app]
            for profile in dict.fromkeys(row.profile for row in self.rows):
                delta = (
                    self.row(app, profile).overall_accuracy
                    - baseline.overall_accuracy
                )
                line.append(f"{100 * delta:+.1f}")
            drops.append(line)
        profiles = list(dict.fromkeys(row.profile for row in self.rows))
        text += "\n\n" + render_table(
            ["Application"] + profiles,
            drops,
            title="Overall-accuracy change vs fault-free run (points)",
        )
        return text


def run_fault_study(
    apps: Iterable[str] = BENCHMARK_NAMES,
    seed: int = 0,
    quick: bool = False,
) -> FaultStudyResult:
    """Simulate every (application, fault preset) pair and score Cosmos."""
    rows: List[FaultRow] = []
    config = CosmosConfig(depth=DEPTH)
    for app in apps:
        iterations = iterations_for(app, quick)
        for name in PRESETS:
            profile: Optional[FaultProfile] = PRESETS[name]
            if profile is not None and not profile.is_active:
                profile = None
            before = {key: METRICS.counter(key) for key in _COUNTERS}
            collector = simulate(
                workload_for(app, quick),
                iterations=iterations,
                seed=seed,
                faults=profile,
            )
            counters = {
                key: METRICS.counter(key) - before[key] for key in _COUNTERS
            }
            result = evaluate_trace(collector.events, config, track_arcs=False)
            rows.append(
                FaultRow(
                    app=app,
                    profile=name,
                    events=len(collector),
                    counters=counters,
                    cache_accuracy=result.cache_accuracy,
                    directory_accuracy=result.directory_accuracy,
                    overall_accuracy=result.overall_accuracy,
                )
            )
    return FaultStudyResult(rows=rows, depth=DEPTH)
