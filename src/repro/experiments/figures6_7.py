"""Experiment: Figures 6 and 7 -- dominant message signatures per application.

For each application and each role (cache / directory), reports every
dominant transition arc with the paper's ``X/Y`` label (X = percent of
references to the arc predicted correctly by a depth-1 filterless Cosmos,
Y = the arc's share of all references at the role) and the dominant
cyclic signature traced through the heaviest arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..analysis.arcs import Arc, measure_arcs
from ..analysis.signatures import Signature, extract_signatures
from ..protocol.messages import Role
from ..workloads.registry import BENCHMARK_NAMES
from .common import get_trace

#: The figures draw only arcs carrying at least this share of a role's
#: references.
MIN_REF_PERCENT = 2.0


@dataclass(frozen=True)
class AppSignatures:
    """One application's arcs and dominant cycles."""

    app: str
    arcs: List[Arc]
    signatures: Dict[Role, Optional[Signature]]


@dataclass(frozen=True)
class Figures67Result:
    """Signature graphs for every application."""

    apps: Dict[str, AppSignatures]
    min_ref_percent: float

    def format(self) -> str:
        lines = [
            "Figures 6-7: dominant incoming-message signatures",
            f"(arcs with >= {self.min_ref_percent:.0f}% of role references; "
            "label X/Y = hit% / reference%)",
        ]
        for app, data in self.apps.items():
            lines.append("")
            lines.append(f"== {app} ==")
            for role in (Role.CACHE, Role.DIRECTORY):
                lines.append(f"  at the {role}:")
                for arc in data.arcs:
                    if arc.role == role:
                        lines.append(
                            f"    {str(arc.src):22s} -> {str(arc.dst):22s} "
                            f"{arc.label}"
                        )
                signature = data.signatures.get(role)
                if signature is not None:
                    cycle = " -> ".join(str(m) for m in signature.cycle)
                    lines.append(f"    dominant signature: {cycle} -> (repeat)")
        return "\n".join(lines)


def run_figures6_7(
    apps: Iterable[str] = BENCHMARK_NAMES,
    seed: int = 0,
    quick: bool = False,
) -> Figures67Result:
    """Regenerate the Figure 6/7 arc labels and dominant signatures."""
    results: Dict[str, AppSignatures] = {}
    for app in apps:
        events = get_trace(app, seed=seed, quick=quick)
        arcs = measure_arcs(
            events, depth=1, min_ref_percent=MIN_REF_PERCENT
        )
        results[app] = AppSignatures(
            app=app, arcs=arcs, signatures=extract_signatures(arcs)
        )
    return Figures67Result(apps=results, min_ref_percent=MIN_REF_PERCENT)
