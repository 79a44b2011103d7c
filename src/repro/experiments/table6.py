"""Experiment: Table 6 -- noise-filter effect on prediction accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..analysis.accuracy import filter_sweep
from ..analysis.report import render_table
from ..workloads.registry import BENCHMARK_NAMES
from .common import get_trace
from .paper_data import PAPER_TABLE6

#: The paper's Table 6 rows (MHR depths) and columns (filter maxima;
#: 0 = no filter).
DEPTHS = (1, 2)
FILTER_COUNTS = (0, 1, 2)


@dataclass(frozen=True)
class Table6Result:
    """Measured Table 6: app -> depth -> filter max count -> overall %."""

    cells: Dict[str, Dict[int, Dict[int, float]]]
    depths: tuple
    filter_counts: tuple

    def format(self, with_paper: bool = True) -> str:
        headers: List[object] = ["Depth"]
        for app in self.cells:
            headers.extend(f"{app}:{c}" for c in self.filter_counts)
        body: List[List[object]] = []
        for depth in self.depths:
            line: List[object] = [depth]
            for app in self.cells:
                line.extend(
                    f"{self.cells[app][depth][count]:.0f}"
                    for count in self.filter_counts
                )
            body.append(line)
        text = render_table(
            headers,
            body,
            title=(
                "Table 6: overall prediction rate (%) vs filter saturating-"
                "counter maximum (columns 0/1/2 per app; 0 = no filter)"
            ),
        )
        if with_paper:
            paper_body: List[List[object]] = []
            for depth in self.depths:
                line = [depth]
                for app in self.cells:
                    line.extend(
                        PAPER_TABLE6[app][depth][count]
                        for count in self.filter_counts
                    )
                paper_body.append(line)
            text += "\n\n" + render_table(
                headers, paper_body, title="Paper's Table 6 (for reference)"
            )
        return text


def run_table6(
    apps: Iterable[str] = BENCHMARK_NAMES,
    seed: int = 0,
    quick: bool = False,
) -> Table6Result:
    """Regenerate Table 6 (filter sweep at MHR depths 1 and 2)."""
    cells: Dict[str, Dict[int, Dict[int, float]]] = {}
    for app in apps:
        events = get_trace(app, seed=seed, quick=quick)
        cells[app] = filter_sweep(
            events, depths=DEPTHS, filter_counts=FILTER_COUNTS
        )
    return Table6Result(
        cells=cells, depths=DEPTHS, filter_counts=FILTER_COUNTS
    )
