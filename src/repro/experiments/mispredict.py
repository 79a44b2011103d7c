"""Experiment: misprediction forensics profile.

Not a table from the paper -- a diagnostic the paper's accuracy numbers
beg for.  For each benchmark the trace is replayed through a Cosmos bank
with forensic capture (:func:`repro.obs.forensics.explain_trace`) and
the history patterns that produced the most mispredictions are ranked,
per role.  A pattern with many references and a low hit rate is a
sharing signature Cosmos cannot learn at this MHR depth (the paper's
Section 3.4 depth discussion); a pattern with few references is noise
the filter should be absorbing.

The output is deterministic for a given (workload, seed, config): ties
are broken on the rendered pattern text, so the report is byte-stable
and safe for golden comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..obs.forensics import ForensicsReport, explain_trace, format_pattern
from ..workloads.registry import BENCHMARK_NAMES
from .common import get_trace


@dataclass(frozen=True)
class MispredictProfileResult:
    """Per-application forensic reports plus the config that produced them."""

    config: CosmosConfig
    reports: Dict[str, ForensicsReport]
    top: int

    def format(self) -> str:
        parts: List[str] = [
            "Misprediction forensics profile "
            f"({self.config.describe()}; worst {self.top} history "
            "patterns per application)"
        ]
        for app, report in self.reports.items():
            rate = (
                report.total_mispredicts / report.total_refs
                if report.total_refs
                else 0.0
            )
            rows: List[List[object]] = [
                [
                    str(role),
                    format_pattern(pattern) or "(empty)",
                    mispredicts,
                    refs,
                    f"{(refs - mispredicts) / refs:.1%}" if refs else "-",
                ]
                for role, pattern, mispredicts, refs in report.top_patterns(
                    self.top
                )
            ]
            title = (
                f"{app}: {report.total_mispredicts} mispredictions in "
                f"{report.total_refs} references ({rate:.1%})"
            )
            if rows:
                parts.append(
                    render_table(
                        ["role", "history pattern", "mispred", "refs", "hit%"],
                        rows,
                        title=title,
                    )
                )
            else:
                parts.append(f"{title}\n  (no mispredictions)")
        return "\n\n".join(parts)


def run_mispredict_profile(
    apps: Iterable[str] = BENCHMARK_NAMES,
    seed: int = 0,
    quick: bool = False,
    top: int = 8,
) -> MispredictProfileResult:
    """Rank misprediction-causing history patterns per benchmark, for a
    depth-1 filterless Cosmos."""
    config = CosmosConfig()
    reports: Dict[str, ForensicsReport] = {}
    for app in apps:
        events = get_trace(app, seed=seed, quick=quick)
        reports[app] = explain_trace(events, config)
    return MispredictProfileResult(config=config, reports=reports, top=top)
