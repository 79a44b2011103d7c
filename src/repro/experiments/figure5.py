"""Experiment: Figure 5 -- the speedup model's curves.

Analytic, so this reproduction is exact: speedup over the
correct-prediction overlap fraction ``f`` at accuracy ``p = 0.8`` for a
family of misprediction penalties ``r``, rendered as the table of points
behind the paper's plot.  Also verifies the paper's quoted example point
(p=0.8, f=0.3, r=1 -> 56% speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..accel.model import SpeedupSeries, figure5_series, speedup_percent
from ..analysis.report import render_matrix
from .paper_data import PAPER_FIGURE5_EXAMPLE

#: The overlap fractions tabulated: every tenth from 0 to 1.
F_VALUES = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class Figure5Result:
    """The family of speedup curves plus the quoted example point."""

    series: List[SpeedupSeries]
    example_speedup_percent: float

    def format(self) -> str:
        f_values = self.series[0].f_values
        col_labels = [f"f={f:.2f}" for f in f_values]
        row_labels = [f"r={s.r:.2f}" for s in self.series]
        values = [
            [f"{x:.2f}" for x in s.speedups] for s in self.series
        ]
        text = render_matrix(
            row_labels,
            col_labels,
            values,
            corner=f"speedup (p={self.series[0].p})",
            title="Figure 5: speedup of the Section 4.4 execution model",
        )
        quoted = PAPER_FIGURE5_EXAMPLE["speedup_percent"]
        text += (
            f"\n\nExample point (p={PAPER_FIGURE5_EXAMPLE['p']}, "
            f"f={PAPER_FIGURE5_EXAMPLE['f']}, r={PAPER_FIGURE5_EXAMPLE['r']}): "
            f"measured {self.example_speedup_percent:.0f}% speedup, "
            f"paper quotes {quoted}%"
        )
        return text


def run_figure5() -> Figure5Result:
    """Regenerate the Figure 5 curve family (``p`` and ``r`` as in
    :func:`~repro.accel.model.figure5_series`)."""
    series = figure5_series(f_values=F_VALUES)
    example = speedup_percent(
        PAPER_FIGURE5_EXAMPLE["p"],
        PAPER_FIGURE5_EXAMPLE["f"],
        PAPER_FIGURE5_EXAMPLE["r"],
    )
    return Figure5Result(series=series, example_speedup_percent=example)
