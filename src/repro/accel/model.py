"""The Section 4.4 execution model and Figure 5 curves.

The paper's "simplistic execution model" assumes runtime is proportional
to the number of coherence messages on the critical path.  With

* ``p`` -- prediction accuracy per message,
* ``f`` -- fraction of a message's delay still paid when it is predicted
  correctly (``f = 0``: fully overlapped),
* ``r`` -- extra delay fraction paid on a misprediction (``r = 0.5``: a
  mispredicted message costs 1.5x),

the time with prediction, relative to without, is
``p*f + (1 - p)*(1 + r)``, so the speedup is its reciprocal.  Figure 5
plots the speedup for ``p = 0.8`` over ``f`` for several ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..errors import ConfigError

#: Fraction of a correctly predicted message's delay still paid: the
#: ``f`` every Section 4 measurement here uses.
F = 0.3

#: Extra delay fraction of a mispredicted message: the ``r`` every
#: Section 4 measurement here uses.
R = 0.5


def relative_time(p: float, f: float, r: float) -> float:
    """Time with prediction / time without (the model's denominator)."""
    _validate(p, f, r)
    return p * f + (1.0 - p) * (1.0 + r)


def speedup(p: float, f: float, r: float) -> float:
    """Speedup of the prediction-accelerated protocol under the model."""
    rel = relative_time(p, f, r)
    if rel <= 0.0:
        raise ConfigError(
            "model degenerates: zero relative time (p=1 and f=0?)"
        )
    return 1.0 / rel


def speedup_percent(p: float, f: float, r: float) -> float:
    """Speedup expressed as a percentage gain over no prediction."""
    return 100.0 * (speedup(p, f, r) - 1.0)


def _validate(p: float, f: float, r: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"prediction accuracy p={p} must be in [0, 1]")
    if f < 0.0:
        raise ConfigError(f"overlap fraction f={f} must be non-negative")
    if r < 0.0:
        raise ConfigError(f"misprediction penalty r={r} must be non-negative")


@dataclass(frozen=True)
class SpeedupSeries:
    """One Figure 5 curve: speedup over ``f`` at fixed ``p`` and ``r``."""

    p: float
    r: float
    f_values: Tuple[float, ...]
    speedups: Tuple[float, ...]


def figure5_series(
    p: float = 0.8,
    r_values: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    f_values: Sequence[float] = tuple(i / 20 for i in range(21)),
) -> List[SpeedupSeries]:
    """The family of curves in the paper's Figure 5."""
    series: List[SpeedupSeries] = []
    for r in r_values:
        series.append(
            SpeedupSeries(
                p=p,
                r=r,
                f_values=tuple(f_values),
                speedups=tuple(speedup(p, f, r) for f in f_values),
            )
        )
    return series
