"""Experiment: accuracy-vs-capacity frontier for bounded Cosmos banks.

The paper's Table 7 sizes an *unbounded* Cosmos bank after the fact;
a real directory controller gets a fixed SRAM budget up front.  This
experiment quantifies what that budget costs: it replays a streaming
Zipf pressure workload (millions of candidate blocks, far more than any
budget) through capacity-limited predictors and sweeps

* **eviction policy** (``lru`` / ``clock`` / ``decay``),
* **per-module capacity** (MHR entries; the PHT budget scales with it),

at one workload skew (Zipf alpha, :data:`ALPHA`).

Each row reports overall accuracy, the gap to the unbounded predictor
on the identical stream, eviction counts, and the estimated table bytes
(Table 7 cost model).  Accuracy must grow monotonically with capacity
and converge to the unbounded baseline -- the graceful-degradation
contract that ``tests/experiments/test_capacity.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.report import render_table
from ..core.config import CosmosConfig
from ..core.evaluation import EvaluationResult, evaluate_trace
from ..core.eviction import EVICTION_POLICIES
from ..sim.metrics import METRICS
from ..workloads.zipf import zipf_trace

#: Metric counters folded by the evaluator for bounded banks; the sweep
#: reads them as before/after deltas (METRICS is cumulative).
_MEM_COUNTERS = (
    "pred.mem.evictions_mhr",
    "pred.mem.evictions_pht",
    "pred.mem.peak_mhr",
    "pred.mem.peak_pht",
    "pred.mem.bytes_est",
)

#: PHT entries budgeted per MHR entry (a block's history fans out into
#: a handful of patterns; 4x keeps the two tables in rough balance).
_PHT_PER_MHR = 4

#: Per-module MHR budgets swept; ``None`` is the unbounded baseline.
CAPACITIES = (16, 64, 256, None)

#: Zipf skew of the stream, and the MHR depth of every predictor.
ALPHA = 0.99
DEPTH = 1


@dataclass(frozen=True)
class CapacityPoint:
    """One (alpha, policy, capacity) cell of the frontier."""

    alpha: float
    policy: str
    mhr_capacity: Optional[int]  # None = unbounded
    pht_capacity: Optional[int]
    accuracy: float
    baseline_accuracy: float
    evictions_mhr: int
    evictions_pht: int
    peak_entries: int
    est_bytes: int

    @property
    def gap_points(self) -> float:
        """Accuracy points given up relative to the unbounded bank."""
        return 100.0 * (self.baseline_accuracy - self.accuracy)


@dataclass(frozen=True)
class CapacityResult:
    """The full policy x capacity sweep."""

    depth: int
    n_events: int
    n_blocks: int
    tenants: int
    points: List[CapacityPoint]

    def format(self) -> str:
        headers = [
            "alpha",
            "policy",
            "mhr cap",
            "pht cap",
            "accuracy",
            "gap (points)",
            "evictions mhr/pht",
            "peak entries",
            "est bytes",
        ]
        body = []
        for point in self.points:
            unbounded = point.mhr_capacity is None
            body.append(
                [
                    f"{point.alpha:.2f}",
                    point.policy,
                    "inf" if unbounded else point.mhr_capacity,
                    "inf" if unbounded else point.pht_capacity,
                    f"{100 * point.accuracy:.1f}%",
                    "-" if unbounded else f"{point.gap_points:.1f}",
                    f"{point.evictions_mhr}/{point.evictions_pht}",
                    point.peak_entries,
                    point.est_bytes,
                ]
            )
        return render_table(
            headers,
            body,
            title=(
                f"Capacity frontier (zipf stream, {self.n_events} events, "
                f"{self.n_blocks} block ranks, {self.tenants} tenants, "
                f"Cosmos depth {self.depth}): accuracy under a memory "
                f"budget"
            ),
        )


def _bounded_run(
    config: CosmosConfig,
    n_events: int,
    n_blocks: int,
    alpha: float,
    tenants: int,
    seed: int,
) -> Tuple[EvaluationResult, Dict[str, int]]:
    """Evaluate one config on a fresh stream; return (result, counters)."""
    before = {name: METRICS.counter(name) for name in _MEM_COUNTERS}
    result = evaluate_trace(
        zipf_trace(
            n_events, n_blocks, alpha=alpha, tenants=tenants, seed=seed
        ),
        config,
        track_arcs=False,
    )
    deltas = {
        name: METRICS.counter(name) - before[name] for name in _MEM_COUNTERS
    }
    return result, deltas


def run_capacity_study(quick: bool = False, seed: int = 0) -> CapacityResult:
    """Sweep eviction policy x capacity on one Zipf stream.

    Each bounded cell of :data:`CAPACITIES` carries a PHT budget of
    ``_PHT_PER_MHR`` entries per MHR entry.  Every cell replays the
    *identical* per-seed stream, so differences are purely the budget's
    doing.
    """
    n_events = 5_000 if quick else 40_000
    n_blocks = 1_000 if quick else 20_000
    tenants = 2
    stream_seed = seed * 7 + 3

    points: List[CapacityPoint] = []
    baseline, _ = _bounded_run(
        CosmosConfig(depth=DEPTH),
        n_events, n_blocks, ALPHA, tenants, stream_seed,
    )
    baseline_accuracy = baseline.overall_accuracy
    for policy in EVICTION_POLICIES:
        for capacity in CAPACITIES:
            if capacity is None:
                points.append(
                    CapacityPoint(
                        alpha=ALPHA,
                        policy=policy,
                        mhr_capacity=None,
                        pht_capacity=None,
                        accuracy=baseline_accuracy,
                        baseline_accuracy=baseline_accuracy,
                        evictions_mhr=0,
                        evictions_pht=0,
                        peak_entries=0,
                        est_bytes=0,
                    )
                )
                continue
            config = CosmosConfig(
                depth=DEPTH,
                mhr_capacity=capacity,
                pht_capacity=capacity * _PHT_PER_MHR,
                eviction=policy,
            )
            result, mem = _bounded_run(
                config, n_events, n_blocks, ALPHA, tenants, stream_seed
            )
            points.append(
                CapacityPoint(
                    alpha=ALPHA,
                    policy=policy,
                    mhr_capacity=capacity,
                    pht_capacity=capacity * _PHT_PER_MHR,
                    accuracy=result.overall_accuracy,
                    baseline_accuracy=baseline_accuracy,
                    evictions_mhr=mem["pred.mem.evictions_mhr"],
                    evictions_pht=mem["pred.mem.evictions_pht"],
                    peak_entries=(
                        mem["pred.mem.peak_mhr"] + mem["pred.mem.peak_pht"]
                    ),
                    est_bytes=mem["pred.mem.bytes_est"],
                )
            )
    return CapacityResult(
        depth=DEPTH,
        n_events=n_events,
        n_blocks=n_blocks,
        tenants=tenants,
        points=points,
    )
