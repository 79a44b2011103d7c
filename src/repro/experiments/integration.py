"""Experiment: Section 4 integration -- does prediction actually accelerate?

Two complementary measurements beyond the paper's scope (it stops at
prediction accuracy and the analytic model):

* the Section 4.4 latency model applied to each application's *measured*
  per-message prediction accuracy (``repro.accel.model``);
* a genuine inline integration: the read-modify-write optimization driven
  by a Cosmos predictor inside each directory, measured as real message
  and simulated-time savings (``repro.accel.integration``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..accel.integration import AccelerationComparison, compare_acceleration
from ..accel.model import F, R, speedup
from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from .common import get_trace, iterations_for, workload_for


#: The applications whose replayed accuracy feeds the speedup model.
MODEL_APPS = ("appbt", "moldyn", "unstructured")

#: The inline action modes compared by the experiment.
ACTION_MODES = {
    "grant": dict(grant_exclusive=True, push_data=False),
    "push": dict(grant_exclusive=False, push_data=True),
    "both": dict(grant_exclusive=True, push_data=True),
}


@dataclass(frozen=True)
class IntegrationResult:
    """Model-based and inline acceleration results per application."""

    #: Measured per-message prediction accuracy per application.
    accuracies: Dict[str, float]
    inline_comparisons: Dict[str, AccelerationComparison]

    def model_speedup(self, app: str) -> float:
        """The Section 4.4 model at ``app``'s measured accuracy."""
        return speedup(self.accuracies[app], F, R)

    def format(self) -> str:
        body = [
            [app, f"{accuracy:.1%}", f"{self.model_speedup(app):.2f}x"]
            for app, accuracy in self.accuracies.items()
        ]
        text = render_table(
            ["Application", "accuracy", "model speedup"],
            body,
            title=(
                "Section 4.4 model applied to measured outcomes "
                f"(f={F}, r={R})"
            )
            if self.accuracies
            else "",
        )
        if self.inline_comparisons:
            headers2 = [
                "Application/mode",
                "msgs (plain)",
                "msgs (predictive)",
                "reduction",
                "grants",
                "pushes",
                "stall cut",
                "time speedup",
            ]
            body2 = []
            for label, cmp in self.inline_comparisons.items():
                body2.append(
                    [
                        label,
                        cmp.baseline_messages,
                        cmp.accelerated_messages,
                        f"{cmp.message_reduction:.1%}",
                        cmp.exclusive_grants,
                        cmp.pushes,
                        f"{cmp.stall_reduction:+.1%}",
                        f"{cmp.time_speedup:.3f}x",
                    ]
                )
            text += "\n\n" + render_table(
                headers2,
                body2,
                title=(
                    "Inline integration (Table 2 actions): exclusive "
                    "grants on predicted upgrades, data pushes to "
                    "predicted consumers"
                ),
            )
        return text


def run_integration(
    model_apps: Iterable[str] = MODEL_APPS,
    inline_apps: Iterable[str] = ("appbt", "moldyn"),
    seed: int = 0,
    quick: bool = False,
) -> IntegrationResult:
    """Measure model-based and inline acceleration with a depth-2 Cosmos."""
    config = CosmosConfig(depth=2)
    accuracies = {
        app: evaluate_trace(
            get_trace(app, seed=seed, quick=quick), config, track_arcs=False
        ).overall_accuracy
        for app in model_apps
    }
    inline_comparisons: Dict[str, AccelerationComparison] = {}
    for app in inline_apps:
        for mode, action_kwargs in ACTION_MODES.items():
            inline_comparisons[f"{app}/{mode}"] = compare_acceleration(
                lambda app=app: workload_for(app, quick),
                iterations=iterations_for(app, quick),
                seed=seed,
                config=config,
                **action_kwargs,
            )
    return IntegrationResult(
        accuracies=accuracies, inline_comparisons=inline_comparisons
    )
