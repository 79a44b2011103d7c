"""A machine-wide bank of Cosmos predictors.

The paper allocates one Cosmos predictor beside every cache module and
every directory module.  :class:`PredictorBank` is the one collection
every trace replay takes its predictors from, and routes trace events to
the right predictor.  ``share_roles=True`` is an ablation that merges
each node's two predictors into one (cheaper, but cache- and
directory-side patterns then alias in one table).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from ..protocol.messages import Role
from ..sim.metrics import METRICS
from ..trace.events import TraceEvent
from .config import CosmosConfig
from .memory import MemoryOverhead, memory_report
from .predictor import CosmosPredictor, Observation


class PredictorBank:
    """One predictor per (node, role) -- or per node when roles are shared.

    ``factory`` builds each module's predictor instead (then ``config``
    is unused): a non-Cosmos predictor, or a corruption-armed one from
    :func:`~repro.core.predictor.armed_factory`.
    """

    def __init__(
        self,
        config: Optional[CosmosConfig] = None,
        share_roles: bool = False,
        factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.config = config if config is not None else CosmosConfig()
        self.share_roles = share_roles
        self.factory = factory
        self._predictors: Dict[Tuple[int, Role], object] = {}

    def _key(self, node: int, role: Role) -> Tuple[int, Role]:
        if self.share_roles:
            return (node, Role.CACHE)  # canonical key for the merged bank
        return (node, role)

    def predictor_for(self, node: int, role: Role) -> CosmosPredictor:
        """The predictor attached to the given module (created on demand)."""
        key = self._key(node, role)
        predictor = self._predictors.get(key)
        if predictor is None:
            if self.factory is not None:
                predictor = self.factory()
            else:
                predictor = CosmosPredictor(self.config)
            self._predictors[key] = predictor
        return predictor

    def observe(self, event: TraceEvent) -> Observation:
        """Route one trace event to its module's predictor."""
        predictor = self.predictor_for(event.node, event.role)
        return predictor.observe(event.block, event.tuple)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, Role], CosmosPredictor]]:
        return iter(self._predictors.items())

    def __len__(self) -> int:
        return len(self._predictors)

    def _cosmos_config(self) -> Optional[CosmosConfig]:
        """The modules' config, or ``None`` unless every one is Cosmos."""
        predictors = self._predictors.values()
        if not predictors or not all(
            isinstance(p, CosmosPredictor) for p in predictors
        ):
            return None
        return next(iter(predictors)).config

    def memory_report(self) -> Optional[Dict[str, int]]:
        """Machine-wide storage totals; ``None`` unless there are Cosmos
        predictors only."""
        config = self._cosmos_config()
        if config is None:
            return None
        return memory_report(config, self._predictors.values())

    @property
    def overhead(self) -> Optional[MemoryOverhead]:
        """Machine-wide Table 7 quantities, from :meth:`memory_report`."""
        report = self.memory_report()
        if report is None:
            return None
        config = self._cosmos_config()
        return MemoryOverhead(
            mhr_entries=report["mhr_live"],
            pht_entries=report["pht_live"],
            depth=config.depth,
            peak_mhr_entries=report["peak_mhr"],
            peak_pht_entries=report["peak_pht"],
        )

    def fold_metrics(self) -> None:
        """End-of-replay fold: per-block PHT sizes to the
        ``pred.pht.block_entries`` histogram and, for a capacity-bounded
        bank only, :meth:`memory_report` to ``pred.mem.*`` counters."""
        for predictor in self._predictors.values():
            pht_sizes = getattr(predictor, "pht_sizes", None)
            if pht_sizes is not None:
                for size in pht_sizes():
                    METRICS.observe("pred.pht.block_entries", size)
        config = self._cosmos_config()
        if config is not None and (
            config.mhr_capacity or config.pht_capacity
        ):
            for name, value in self.memory_report().items():
                METRICS.inc(f"pred.mem.{name}", value)
