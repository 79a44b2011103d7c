"""Experiment: Figure 8 / Section 7 -- Cosmos vs directed optimizations.

The paper argues Cosmos subsumes directed predictors: the trigger
signatures of dynamic self-invalidation (Figure 8a) and migratory
protocols (Figure 8b) are just rows in Cosmos' pattern tables.  This
experiment runs microworkloads that exercise exactly those signatures and
compares Cosmos against the directed predictors on their home turf and on
unstructured (the application whose composite pattern no directed
predictor tracks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..core.predictor import CosmosPredictor
from ..predictors.dsi import DSIPredictor
from ..predictors.last_message import LastMessagePredictor
from ..predictors.migratory import MigratoryPredictor
from ..predictors.most_common import MostCommonPredictor
from ..protocol.messages import Role
from ..sim.machine import simulate
from ..sim.memory_map import Allocator
from ..trace.events import TraceEvent
from ..workloads.access import Phase, read, write
from ..workloads.base import Workload
from ..workloads.patterns import migratory
from .common import get_trace

#: The applications whose traces Figure 8 scores the predictors on.
FIGURE8_APPS = ("unstructured", "moldyn")


class MigratoryMicro(Workload):
    """Blocks migrating through fixed processor chains (Figure 8b)."""

    name = "migratory-micro"
    description = "pure migratory sharing: read-modify-write in turn"
    default_iterations = 40

    def __init__(
        self, n_procs: int = 16, n_blocks: int = 16, chain_length: int = 3
    ) -> None:
        super().__init__(n_procs)
        self.n_blocks = n_blocks
        self.chain_length = chain_length
        self._blocks: List[int] = []
        self._chains: List[List[int]] = []

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        self._blocks = allocator.alloc_blocks(self.n_blocks)
        self._chains = [
            rng.sample(range(self.n_procs), self.chain_length)
            for _ in range(self.n_blocks)
        ]

    def iteration(self, index: int, rng: random.Random) -> List[Phase]:
        phase = self._new_phase()
        for block, chain in zip(self._blocks, self._chains):
            migratory(phase, block, chain)
        return [phase]


class SelfInvalidationMicro(Workload):
    """Write-miss-then-steal blocks (Figure 8a's DSI trigger)."""

    name = "dsi-micro"
    description = "blocks written by one node then immediately stolen"
    default_iterations = 40

    def __init__(self, n_procs: int = 16, n_blocks: int = 16) -> None:
        super().__init__(n_procs)
        self.n_blocks = n_blocks
        self._blocks: List[int] = []
        self._writers: List[int] = []
        self._stealers: List[int] = []

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        self._blocks = allocator.alloc_blocks(self.n_blocks)
        self._writers = [
            index % self.n_procs for index in range(self.n_blocks)
        ]
        self._stealers = [
            (writer + 1 + rng.randrange(self.n_procs - 1)) % self.n_procs
            for writer in self._writers
        ]

    def iteration(self, index: int, rng: random.Random) -> List[Phase]:
        produce = self._new_phase()
        for block, writer in zip(self._blocks, self._writers):
            produce[writer].append(write(block))
        steal = self._new_phase()
        for block, stealer in zip(self._blocks, self._stealers):
            steal[stealer].append(write(block))
        return [produce, steal]


@dataclass(frozen=True)
class PredictorScore:
    """One predictor's cache-side score on one trace."""

    predictor: str
    accuracy: float
    precision: float
    coverage: float


@dataclass(frozen=True)
class Figure8Result:
    """Cosmos vs directed predictors across traces."""

    scores: Dict[str, List[PredictorScore]]

    def format(self) -> str:
        lines = [
            "Figure 8 / Section 7: Cosmos vs directed predictors "
            "(cache-side messages only)",
            "accuracy = hits/all refs; precision = hits/predictions made; "
            "coverage = predictions/refs",
        ]
        for trace_name, scores in self.scores.items():
            lines.append("")
            lines.append(f"== {trace_name} ==")
            for score in scores:
                lines.append(
                    f"  {score.predictor:14s} accuracy={score.accuracy:6.1%} "
                    f"precision={score.precision:6.1%} "
                    f"coverage={score.coverage:6.1%}"
                )
        return "\n".join(lines)


def _score_predictors(
    events: Sequence[TraceEvent],
    factories: Dict[str, Callable[[], object]],
) -> List[PredictorScore]:
    cache_events = [event for event in events if event.role is Role.CACHE]
    scores: List[PredictorScore] = []
    for name, factory in factories.items():
        result = evaluate_trace(
            cache_events, predictor_factory=factory, track_arcs=False
        )
        modules = [predictor for _key, predictor in result.bank]
        hits = sum(p.hits for p in modules)
        preds = sum(p.predictions for p in modules)
        refs = preds + sum(p.no_prediction for p in modules)
        scores.append(
            PredictorScore(
                predictor=name,
                accuracy=hits / refs if refs else 0.0,
                precision=hits / preds if preds else 0.0,
                coverage=preds / refs if refs else 0.0,
            )
        )
    return scores


def default_factories() -> Dict[str, Callable[[], object]]:
    """The standard comparison line-up."""
    return {
        "cosmos-d1": lambda: CosmosPredictor(CosmosConfig(depth=1)),
        "cosmos-d2": lambda: CosmosPredictor(CosmosConfig(depth=2)),
        "migratory": lambda: MigratoryPredictor(predict_reacquire=True),
        "dsi": lambda: DSIPredictor(),
        "last-message": LastMessagePredictor,
        "most-common": MostCommonPredictor,
    }


def run_figure8(
    iterations: int = 40,
    seed: int = 0,
    include_apps: Iterable[str] = FIGURE8_APPS,
    quick: bool = False,
) -> Figure8Result:
    """Score Cosmos and the directed predictors on trigger microworkloads
    and on real applications."""
    factories = default_factories()
    scores: Dict[str, List[PredictorScore]] = {}
    for workload in (MigratoryMicro(), SelfInvalidationMicro()):
        collector = simulate(workload, iterations=iterations, seed=seed)
        scores[workload.name] = _score_predictors(collector.events, factories)
    for app in include_apps:
        events = get_trace(app, seed=seed, quick=quick)
        scores[app] = _score_predictors(events, factories)
    return Figure8Result(scores=scores)
