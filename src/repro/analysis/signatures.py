"""Dominant-signature extraction (the dotted cycles of Figures 6 and 7).

A *signature* is the cyclic sequence of incoming message types a sharing
pattern induces at a module.  The paper draws each application's dominant
signature as the dotted cycle through its transition graph.  We extract
it the same way a reader would: starting from the most-referenced
transition, repeatedly follow the most-probable outgoing arc until the
walk closes a cycle (or dies out).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..protocol.messages import MessageType, Role
from .arcs import Arc

#: A dominant cycle must close within this many arcs.
MAX_SIGNATURE_HOPS = 12


@dataclass(frozen=True)
class Signature:
    """A dominant cyclic message signature at one role."""

    role: Role
    cycle: Tuple[MessageType, ...]
    weight: float  # summed reference share of the cycle's arcs

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        path = " -> ".join(str(m) for m in self.cycle)
        return f"[{self.role}] {path} -> (repeat)  weight={self.weight:.0f}%"


def dominant_signature(
    arcs: Sequence[Arc],
    role: Role,
) -> Optional[Signature]:
    """Follow heaviest arcs from the heaviest transition until a cycle closes.

    Returns ``None`` when the role has no arcs or no cycle is reachable
    within :data:`MAX_SIGNATURE_HOPS` hops (acyclic or starved graphs).
    """
    outgoing: Dict[MessageType, List[Arc]] = defaultdict(list)
    for arc in arcs:
        if arc.role == role:
            outgoing[arc.src].append(arc)
    if not outgoing:
        return None
    for succs in outgoing.values():
        succs.sort(key=lambda arc: -arc.ref_percent)

    start = max(
        (arc for succs in outgoing.values() for arc in succs),
        key=lambda arc: arc.ref_percent,
    ).src

    path: List[MessageType] = [start]
    weight = 0.0
    seen_at: Dict[MessageType, int] = {start: 0}
    current = start
    for _ in range(MAX_SIGNATURE_HOPS):
        succs = outgoing.get(current)
        if not succs:
            return None
        best = succs[0]
        weight += best.ref_percent
        nxt = best.dst
        if nxt in seen_at:
            cycle = tuple(path[seen_at[nxt] :])
            return Signature(role=role, cycle=cycle, weight=weight)
        seen_at[nxt] = len(path)
        path.append(nxt)
        current = nxt
    return None


def extract_signatures(
    arcs: Sequence[Arc],
) -> Dict[Role, Optional[Signature]]:
    """Dominant signature at the cache and at the directory."""
    return {
        Role.CACHE: dominant_signature(arcs, Role.CACHE),
        Role.DIRECTORY: dominant_signature(arcs, Role.DIRECTORY),
    }
