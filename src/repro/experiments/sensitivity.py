"""Experiment: Section 5's latency-insensitivity claim.

"Changing the network latency from 40 nanoseconds to one microsecond
hardly changes Cosmos' prediction rates."  We rerun applications with the
network latency stretched 25x and compare depth-1 overall accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Tuple

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..sim.machine import simulate
from ..sim.params import PAPER_PARAMS
from .common import iterations_for, workload_for

#: The stretched network latency: Section 5's one microsecond.
SLOW_LATENCY_NS = 1000


@dataclass(frozen=True)
class SensitivityResult:
    """Overall accuracy (%) at baseline vs stretched network latency."""

    accuracies: Dict[str, Tuple[float, float]]
    base_latency_ns: int
    slow_latency_ns: int

    def max_delta(self) -> float:
        """Largest absolute accuracy change across applications."""
        return max(
            abs(slow - base) for base, slow in self.accuracies.values()
        )

    def format(self) -> str:
        headers = [
            "Application",
            f"{self.base_latency_ns} ns",
            f"{self.slow_latency_ns} ns",
            "delta",
        ]
        body = []
        for app, (base, slow) in self.accuracies.items():
            body.append(
                [app, f"{base:.1f}", f"{slow:.1f}", f"{slow - base:+.1f}"]
            )
        return render_table(
            headers,
            body,
            title=(
                "Section 5 sensitivity: depth-1 overall accuracy (%) vs "
                "network latency"
            ),
        )


def run_sensitivity(
    apps: Iterable[str] = ("appbt", "dsmc"),
    seed: int = 0,
    quick: bool = True,
) -> SensitivityResult:
    """Compare accuracy at the paper's 40 ns latency and a stretched one."""
    base_params = PAPER_PARAMS
    slow_params = replace(base_params, network_latency_ns=SLOW_LATENCY_NS)
    config = CosmosConfig(depth=1)
    accuracies: Dict[str, Tuple[float, float]] = {}
    for app in apps:
        iterations = iterations_for(app, quick)
        values = []
        for params in (base_params, slow_params):
            collector = simulate(
                workload_for(app, quick),
                iterations=iterations,
                params=params,
                seed=seed,
            )
            result = evaluate_trace(
                collector.events, config, track_arcs=False
            )
            values.append(100.0 * result.overall_accuracy)
        accuracies[app] = (values[0], values[1])
    return SensitivityResult(
        accuracies=accuracies,
        base_latency_ns=base_params.network_latency_ns,
        slow_latency_ns=SLOW_LATENCY_NS,
    )
