"""Trace-driven predictor evaluation.

Replays a coherence-message trace through a bank of predictors (one per
cache / directory module, as in the paper) and accumulates:

* hit/reference counts split by role -- the C / D / O columns of Table 5;
* per-arc statistics (previous message type -> current message type) for
  the signature graphs of Figures 6 and 7;
* cumulative per-iteration checkpoints for the adaptation analysis
  (Table 8 and the "time to adapt" discussion);
* the memory-overhead quantities of Table 7 (for Cosmos banks);
* on request, a per-event outcome column (hit, miss or no prediction)
  for callers that score individual messages.

The evaluator works with any predictor implementing the
:class:`repro.predictors.base.MessagePredictor` interface; by default it
builds Cosmos predictors from a :class:`CosmosConfig`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.log import OBS
from ..protocol.messages import MessageType, Role
from ..trace.events import TraceEvent
from .bank import PredictorBank
from .config import CosmosConfig
from .memory import MemoryOverhead
from .tuples import TUPLE_BITS, TYPE_BITS, tuple_of_word

#: Arc key: (role, previous message type, current message type).
ArcKey = Tuple[Role, MessageType, MessageType]

#: Outcome column values: the module's predictor made no prediction,
#: predicted something else, or predicted this very message.
NO_PREDICTION = -1
MISS = 0
HIT = 1


@dataclass
class Tally:
    """Hit / reference counts."""

    hits: int = 0
    refs: int = 0

    @property
    def accuracy(self) -> float:
        return self.hits / self.refs if self.refs else 0.0


@dataclass
class ArcStats:
    """Per-transition statistics backing Figures 6/7 and Table 8."""

    tallies: Dict[ArcKey, Tally] = field(default_factory=dict)

    def total_refs(self, role: Optional[Role] = None) -> int:
        return sum(
            tally.refs
            for key, tally in self.tallies.items()
            if role is None or key[0] == role
        )

    def reference_share(self, key: ArcKey) -> float:
        """This arc's refs as a fraction of all refs at the same role."""
        total = self.total_refs(key[0])
        tally = self.tallies.get(key)
        if tally is None or total == 0:
            return 0.0
        return tally.refs / total


@dataclass
class IterationCheckpoint:
    """Cumulative statistics captured at the end of one iteration."""

    iteration: int
    overall: Tally
    by_role: Dict[Role, Tally]
    arcs: Dict[ArcKey, Tally]


@dataclass
class EvaluationResult:
    """Everything measured in one trace replay."""

    config: Optional[CosmosConfig]
    overall: Tally
    by_role: Dict[Role, Tally]
    arcs: ArcStats
    checkpoints: List[IterationCheckpoint]
    overhead: Optional[MemoryOverhead]
    #: The bank the trace was replayed through: its final tables and
    #: per-module counters.  Results compare by what they measured.
    bank: PredictorBank = field(compare=False, repr=False)
    #: ``array('b')`` of :data:`HIT` / :data:`MISS` /
    #: :data:`NO_PREDICTION`, one per event in trace order; ``None``
    #: unless ``record_outcomes`` was asked for.
    outcomes: Optional[array] = None

    @property
    def cache_accuracy(self) -> float:
        return self.by_role[Role.CACHE].accuracy

    @property
    def directory_accuracy(self) -> float:
        return self.by_role[Role.DIRECTORY].accuracy

    @property
    def overall_accuracy(self) -> float:
        return self.overall.accuracy


#: Builds a fresh predictor for one (node, role) module.
PredictorFactory = Callable[[], "object"]


def evaluate_trace(
    events: Iterable[TraceEvent],
    config: Optional[CosmosConfig] = None,
    predictor_factory: Optional[PredictorFactory] = None,
    checkpoint_iterations: Iterable[int] = (),
    track_arcs: bool = True,
    *,
    record_outcomes: bool = False,
) -> EvaluationResult:
    """Replay ``events`` through per-module predictors and score them.

    Args:
        events: the trace, in reception order.
        config: Cosmos configuration (ignored when ``predictor_factory``
            is given).
        predictor_factory: builds the predictor for each module; defaults
            to ``CosmosPredictor(config)``.
        checkpoint_iterations: iteration numbers after which cumulative
            statistics are snapshotted (events must arrive in
            non-decreasing iteration order for checkpoints to be exact).
        track_arcs: record per-arc statistics (small extra cost).
        record_outcomes: fill ``EvaluationResult.outcomes`` with each
            event's outcome.

    Returns:
        An :class:`EvaluationResult`.

    One loop serves every kind of module.  For the default Cosmos bank
    it runs the fused :meth:`CosmosPredictor.observe_word` kernel written
    out over each module's ``_mht``/``_phts`` dicts: small-int packing,
    dict lookups and list-slot counter bumps, with no method dispatch,
    ``Observation`` allocation or enum hashing.  A capacity-bounded bank
    calls the predictor's own eviction hooks at the same points and in
    the same order as the kernel, so both evict the same victims.  A
    factory's modules (baselines, armed predictors, an explicit
    ``CosmosPredictor`` factory) go through their ``observe`` method
    instead, and the loop scores the returned ``Observation`` into the
    same per-module counters.  The differential suite and the
    ``tests/data/eval_goldens.json`` goldens pin that both agree.
    """
    bank = PredictorBank(config, factory=predictor_factory)
    inline = predictor_factory is None
    cosmos_config = bank.config
    depth_full_at = 1 << (TUPLE_BITS * cosmos_config.depth)
    full_mask = depth_full_at - 1
    macro = cosmos_config.macroblock_bytes
    confidence = cosmos_config.confidence_threshold
    max_count = cosmos_config.filter_max_count
    mhr_bounded = bool(cosmos_config.mhr_capacity)
    pht_bounded = bool(cosmos_config.pht_capacity)
    bounded = mhr_bounded or pht_bounded
    obs_pred = OBS.pred
    outcomes = array("b") if record_outcomes else None
    per_event = obs_pred or record_outcomes
    directory = Role.DIRECTORY

    # Module state, keyed ``(node << 1) | role-bit``:
    # [mht, phts, predictions, hits, no_prediction, last-type-by-block,
    #  predictor, MHR clock].  For an inline module the dicts are the
    # predictor's own, so the bank's CosmosPredictor objects see every
    # update for free; a factory module leaves the three state slots
    # ``None``.  The bank is asked for a predictor only on a module's
    # first touch.
    modules: Dict[int, list] = {}
    # (role-bit << 8) | (prev type << 4) | current type -> [hits, refs];
    # insertion order is first-occurrence order.
    arc_counts: Dict[int, list] = {}

    remaining = sorted(set(checkpoint_iterations))
    checkpoints: List[IterationCheckpoint] = []
    track_iterations = bool(remaining)
    current_iteration: Optional[int] = None

    def flush_checkpoints(next_iteration: Optional[int]) -> None:
        """Emit any checkpoints fully covered before ``next_iteration``."""
        while remaining and (
            next_iteration is None or remaining[0] < next_iteration
        ):
            overall, by_role = _fold_module_tallies(modules)
            checkpoints.append(
                IterationCheckpoint(
                    iteration=remaining.pop(0),
                    overall=overall,
                    by_role=by_role,
                    arcs=_arc_tallies(arc_counts),
                )
            )

    for event in events:
        if track_iterations:
            iteration = event.iteration
            if (
                current_iteration is not None
                and iteration > current_iteration
            ):
                flush_checkpoints(iteration)
            current_iteration = iteration

        role = event.role
        module_key = (event.node << 1) | (role is directory)
        module = modules.get(module_key)
        if module is None:
            predictor = bank.predictor_for(event.node, role)
            if inline:
                module = [
                    predictor._mht, predictor._phts, 0, 0, 0, {},
                    predictor, predictor._mhr_clock,
                ]
            else:
                module = [None, None, 0, 0, 0, {}, predictor, None]
            modules[module_key] = module
        block = event.block
        hit = False

        if inline:
            predicted = -1
            word = (event.sender << TYPE_BITS) | event.mtype
            key = block // macro if macro is not None else block
            mht = module[0]
            hist = mht.get(key)
            if hist is None:
                module[4] += 1
                mht[key] = (1 << TUPLE_BITS) | word
                if bounded:
                    module[6]._bound_mhr_insert(key)
            else:
                if mhr_bounded:
                    if module[7] is None:
                        del mht[key]  # re-inserted below == LRU tail
                    else:
                        module[7].touch(key)
                if hist >= depth_full_at:
                    phts = module[1]
                    pht = phts.get(key)
                    if pht is None:
                        pht = phts[key] = {}
                    entry = pht.get(hist)
                    if entry is None:
                        module[4] += 1
                        pht[hist] = [word, 0]
                        if bounded:
                            module[6]._bound_pht_insert(key, hist)
                    else:
                        stored = entry[0]
                        counter = entry[1]
                        if confidence == 0 or counter >= confidence:
                            predicted = stored
                            module[2] += 1
                            if stored == word:
                                module[3] += 1
                                hit = True
                        else:
                            module[4] += 1
                        if stored == word:
                            if counter < max_count:
                                entry[1] = counter + 1
                        elif counter > 0:
                            entry[1] = counter - 1
                        else:
                            entry[0] = word
                        if pht_bounded:
                            module[6]._touch_pht(key, hist)
                    mht[key] = depth_full_at | (
                        ((hist << TUPLE_BITS) | word) & full_mask
                    )
                else:
                    module[4] += 1
                    mht[key] = (hist << TUPLE_BITS) | word
        else:
            observation = module[6].observe(block, (event.sender, event.mtype))
            predicted = observation.predicted
            if predicted is None:
                module[4] += 1
            else:
                module[2] += 1
                if observation.hit:
                    module[3] += 1
                    hit = True

        if per_event:
            if inline:
                predicted = (
                    tuple_of_word(predicted) if predicted >= 0 else None
                )
            if outcomes is not None:
                outcomes.append(
                    NO_PREDICTION if predicted is None else HIT if hit else MISS
                )
            if obs_pred:
                OBS.emit(
                    event.time,
                    "pred",
                    "observe",
                    event.node,
                    block,
                    {
                        "role": str(role),
                        "hit": hit,
                        "predicted": (
                            f"P{predicted[0]} {predicted[1].name}"
                            if predicted is not None
                            else None
                        ),
                        "actual": f"P{event.sender} {event.mtype.name}",
                    },
                )

        if track_arcs:
            last_type = module[5]
            previous = last_type.get(block)
            mtype = event.mtype
            if previous is not None:
                arc_key = (
                    ((module_key & 1) << 8) | (previous << TYPE_BITS) | mtype
                )
                arc = arc_counts.get(arc_key)
                if arc is None:
                    arc = arc_counts[arc_key] = [0, 0]
                arc[1] += 1
                if hit:
                    arc[0] += 1
            last_type[block] = mtype

    flush_checkpoints(None)

    if inline:
        # Hand the counters back to the bank's predictors; a factory's
        # predictors kept their own.
        for module in modules.values():
            predictor = module[6]
            predictor.predictions = module[2]
            predictor.hits = module[3]
            predictor.no_prediction = module[4]
    bank.fold_metrics()

    overall, by_role = _fold_module_tallies(modules)
    return EvaluationResult(
        config=config,
        overall=overall,
        by_role=by_role,
        arcs=ArcStats(tallies=_arc_tallies(arc_counts)),
        checkpoints=checkpoints,
        overhead=bank.overhead,
        bank=bank,
        outcomes=outcomes,
    )


def _fold_module_tallies(
    modules: Dict[int, list]
) -> Tuple[Tally, Dict[Role, Tally]]:
    """Overall and per-role tallies from the replay loop's module states."""
    by_role = {Role.CACHE: Tally(), Role.DIRECTORY: Tally()}
    for module_key, module in modules.items():
        tally = by_role[
            Role.DIRECTORY if module_key & 1 else Role.CACHE
        ]
        tally.hits += module[3]
        tally.refs += module[2] + module[4]
    overall = Tally(
        hits=by_role[Role.CACHE].hits + by_role[Role.DIRECTORY].hits,
        refs=by_role[Role.CACHE].refs + by_role[Role.DIRECTORY].refs,
    )
    return overall, by_role


def _arc_tallies(arc_counts: Dict[int, list]) -> Dict[ArcKey, Tally]:
    """Int-keyed arc counters back to the readable ArcStats form."""
    type_mask = (1 << TYPE_BITS) - 1
    return {
        (
            Role.DIRECTORY if arc_key >> (2 * TYPE_BITS) else Role.CACHE,
            MessageType((arc_key >> TYPE_BITS) & type_mask),
            MessageType(arc_key & type_mask),
        ): Tally(hits=counts[0], refs=counts[1])
        for arc_key, counts in arc_counts.items()
    }
