"""Misprediction forensics: *why* did Cosmos get this block wrong?

Accuracy counters say how often a predictor misses; they never say which
message orderings defeated it.  This module replays a trace through a
Cosmos bank exactly like :func:`repro.core.evaluation.evaluate_trace`,
but at every misprediction captures the full predictor context *as it
stood at prediction time*: the MHR contents (the history pattern that
indexed the PHT), the matched PHT entry's prediction and noise-filter
counter, and the predicted-vs-actual tuple.  The last ``per_block``
mispredictions per (node, module, block) are kept in capture rings, and
every misprediction is aggregated per history pattern, which is what the
``mispredict-profile`` experiment ranks.

Entry points:

* :func:`explain_trace` -- replay + capture; returns a
  :class:`ForensicsReport`.
* :meth:`ForensicsReport.format_block` -- render the forensics for one
  block (the ``repro-trace explain`` subcommand).
* :meth:`ForensicsReport.top_patterns` -- rank history patterns by
  misprediction count (the ``mispredict-profile`` experiment).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..core.bank import PredictorBank
from ..core.config import CosmosConfig
from ..core.tuples import MessageTuple, format_pattern, format_tuple
from ..protocol.messages import Role
from ..trace.events import TraceEvent

#: A PHT-indexing history pattern (the MHR contents, oldest first).
Pattern = Tuple[MessageTuple, ...]

#: Capture-ring key: (node, role, block).
ModuleBlock = Tuple[int, Role, int]


@dataclass(frozen=True)
class MispredictRecord:
    """One misprediction, with the predictor state that produced it."""

    time: int
    iteration: int
    node: int
    role: Role
    block: int
    #: MHR contents at prediction time (the PHT-indexing pattern).
    mhr: Pattern
    predicted: MessageTuple
    actual: MessageTuple
    #: Noise-filter saturating counter of the matched PHT entry.
    counter: int

    def format(self) -> str:
        return (
            f"t={self.time} it={self.iteration}  "
            f"MHR [{format_pattern(self.mhr)}]  "
            f"predicted {format_tuple(self.predicted)}  "
            f"actual {format_tuple(self.actual)}  "
            f"filter={self.counter}"
        )


@dataclass
class BlockTally:
    """Per-(module, block) reference accounting."""

    refs: int = 0
    predictions: int = 0
    hits: int = 0

    @property
    def mispredictions(self) -> int:
        return self.predictions - self.hits

    @property
    def accuracy(self) -> float:
        return self.hits / self.refs if self.refs else 0.0


@dataclass
class ForensicsReport:
    """Everything :func:`explain_trace` captured in one replay."""

    config: CosmosConfig
    per_block: int
    #: Last ``per_block`` mispredictions per (node, role, block).
    rings: Dict[ModuleBlock, Deque[MispredictRecord]] = field(
        default_factory=dict
    )
    tallies: Dict[ModuleBlock, BlockTally] = field(default_factory=dict)
    #: (role, pattern) -> misprediction count, across all modules.
    pattern_mispredicts: "Counter[Tuple[Role, Pattern]]" = field(
        default_factory=Counter
    )
    #: (role, pattern) -> times the pattern indexed a PHT prediction.
    pattern_refs: "Counter[Tuple[Role, Pattern]]" = field(
        default_factory=Counter
    )
    total_refs: int = 0
    total_mispredicts: int = 0

    # ------------------------------------------------------------------
    # capture (called by explain_trace)
    # ------------------------------------------------------------------

    def _tally(self, key: ModuleBlock) -> BlockTally:
        tally = self.tallies.get(key)
        if tally is None:
            tally = BlockTally()
            self.tallies[key] = tally
        return tally

    def _capture(self, record: MispredictRecord) -> None:
        key = (record.node, record.role, record.block)
        ring = self.rings.get(key)
        if ring is None:
            ring = deque(maxlen=self.per_block)
            self.rings[key] = ring
        ring.append(record)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def blocks(self) -> List[int]:
        """Every block that was referenced, ascending."""
        return sorted({block for _, _, block in self.tallies})

    def modules_for(self, block: int) -> List[ModuleBlock]:
        """The (node, role, block) modules that saw ``block``."""
        return sorted(
            (key for key in self.tallies if key[2] == block),
            key=lambda key: (key[0], key[1].value),
        )

    def top_patterns(
        self, count: int = 10, role: Optional[Role] = None
    ) -> List[Tuple[Role, Pattern, int, int]]:
        """``(role, pattern, mispredicts, refs)`` rows, worst first.

        Ties break deterministically on the rendered pattern so the
        experiment text is byte-stable across runs and platforms.
        """
        rows = [
            (key[0], key[1], mispredicts, self.pattern_refs[key])
            for key, mispredicts in self.pattern_mispredicts.items()
            if role is None or key[0] == role
        ]
        rows.sort(
            key=lambda row: (
                -row[2],
                row[0].value,
                format_pattern(row[1]),
            )
        )
        return rows[:count]

    def format_block(self, block: int, last: Optional[int] = None) -> str:
        """Human-readable forensics for one block."""
        modules = self.modules_for(block)
        header = f"misprediction forensics for block 0x{block:x}"
        if not modules:
            return (
                f"{header}\n  no module ever received a message for this "
                "block (check the block address against `repro-trace info`)"
            )
        lines = [header, f"  config: {self.config.describe()}"]
        for key in modules:
            node, role, _ = key
            tally = self.tallies[key]
            lines.append(
                f"\nP{node}/{role}: {tally.refs} refs, "
                f"{tally.predictions} predictions, {tally.hits} hits "
                f"({tally.accuracy:.1%} accuracy), "
                f"{tally.mispredictions} mispredictions"
            )
            ring = self.rings.get(key)
            if not ring:
                lines.append("  no mispredictions captured")
                continue
            shown = list(ring)[-last:] if last is not None else list(ring)
            lines.append(
                f"  last {len(shown)} misprediction(s), oldest first:"
            )
            for record in shown:
                lines.append(f"    {record.format()}")
        return "\n".join(lines)


def explain_trace(
    events: Iterable[TraceEvent],
    config: Optional[CosmosConfig] = None,
    per_block: int = 8,
) -> ForensicsReport:
    """Replay ``events`` through a Cosmos bank with forensic capture.

    The replay is *identical* to the evaluation harness's scoring loop
    (same per-module predictors, same predict-then-train order), so the
    captured records explain exactly the mispredictions the accuracy
    numbers count.  The capture happens between ``predict`` and
    ``update``: the MHR and PHT are photographed before training shifts
    the actual tuple in.
    """
    config = config if config is not None else CosmosConfig()
    report = ForensicsReport(config=config, per_block=per_block)
    bank = PredictorBank(config)

    # Own loop, not evaluate_trace's: the capture reads the MHR and PHT
    # between predict and update, where its outcome column cannot reach.
    for event in events:
        predictor = bank.predictor_for(event.node, event.role)
        actual = event.tuple
        predicted = predictor.predict(event.block)

        tally = report._tally((event.node, event.role, event.block))
        tally.refs += 1
        report.total_refs += 1
        if predicted is not None:
            # A prediction means the MHR is full and its pattern has an
            # entry; records and report keys carry the readable form.
            pattern = predictor.history(event.block)
            tally.predictions += 1
            report.pattern_refs[(event.role, pattern)] += 1
            if predicted == actual:
                tally.hits += 1
            else:
                report.total_mispredicts += 1
                report.pattern_mispredicts[(event.role, pattern)] += 1
                _prediction, counter = predictor.pattern_table(event.block)[
                    pattern
                ]
                report._capture(
                    MispredictRecord(
                        time=event.time,
                        iteration=event.iteration,
                        node=event.node,
                        role=event.role,
                        block=event.block,
                        mhr=pattern,
                        predicted=predicted,
                        actual=actual,
                        counter=counter,
                    )
                )
        predictor.update(event.block, actual)
    # Same end-of-replay fold as core.evaluation.
    bank.fold_metrics()
    return report
