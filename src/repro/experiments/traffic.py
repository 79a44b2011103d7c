"""Experiment: traffic characterization / workload-model validation.

Prints the Gupta-&-Weber-style traffic summary for every application and
checks the quantities the paper quotes against the models:

* moldyn's producer-consumer coordinates average ~4.9 consumers, so its
  largest invalidation bursts should reach that scale;
* unstructured averages ~2.6 consumers per producer;
* appbt's boundary exchange has one consumer, so its invalidating writes
  overwhelmingly hit a single copy;
* most writes across all applications invalidate very few copies (the
  "average number of sharers is usually less than two" observation
  motivating shallow MHRs, Section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.traffic import TrafficSummary, summarize_traffic
from ..workloads.registry import BENCHMARK_NAMES
from .common import get_trace


@dataclass(frozen=True)
class TrafficResult:
    """Traffic summaries per application."""

    summaries: Dict[str, TrafficSummary]

    def format(self) -> str:
        parts = []
        for app, summary in self.summaries.items():
            parts.append(f"== {app} ==")
            parts.append(summary.format())
            parts.append("")
        return "\n".join(parts).rstrip()


def run_traffic(seed: int = 0, quick: bool = False) -> TrafficResult:
    """Characterize every application's coherence traffic."""
    summaries = {
        app: summarize_traffic(get_trace(app, seed=seed, quick=quick))
        for app in BENCHMARK_NAMES
    }
    return TrafficResult(summaries=summaries)
