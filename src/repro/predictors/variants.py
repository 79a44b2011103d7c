"""Cosmos variants explored in the paper's footnotes and taxonomy.

* :class:`TypeOnlyCosmos` -- footnote 2: "a more aggressive predictor
  could ignore the senders"; histories and predictions carry only the
  message type.  Cheaper tables, but the prediction no longer identifies
  *which* processor to act toward (footnote 3 explains why actions often
  need the processor number), so its full-tuple accuracy is only defined
  when the sender can be inferred -- we report it as a type-accuracy
  predictor whose tuple predictions reuse the block's last sender.
* :class:`GlobalHistoryCosmos` -- the GAp point of Yeh & Patt's
  taxonomy: one *global* history register per module (not per block)
  indexing per-block pattern tables.  It answers "does per-block history
  matter?" -- per-block MHRs are exactly what distinguishes Cosmos' PAp
  lineage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import CosmosConfig
from ..core.predictor import CosmosPredictor, train_entry
from ..core.tuples import (
    TUPLE_BITS,
    MessageTuple,
    pack,
    shift_history,
    tuple_of_word,
)
from .base import MessagePredictor


class TypeOnlyCosmos(MessagePredictor):
    """Cosmos over message types only (senders ignored in the history).

    A :class:`CosmosPredictor` is fed type-only words -- the packed
    encoding of a sender-0 tuple -- so its tables are indexed and trained
    purely on message types, and its own counters score type
    predictions.  To emit a full ``<sender, type>`` tuple the predictor
    pairs the predicted type with the block's most recent sender --
    exact for Stache caches (one home) and a heuristic at directories.
    """

    name = "cosmos-type-only"

    def __init__(self, config: Optional[CosmosConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else CosmosConfig()
        self._types = CosmosPredictor(self.config)
        self._last_sender: Dict[int, int] = {}

    def predict(self, block: int) -> Optional[MessageTuple]:
        predicted = self._types.predict(block)
        sender = self._last_sender.get(block)
        if predicted is None or sender is None:
            return None
        return (sender, predicted[1])

    def update(self, block: int, actual: MessageTuple) -> None:
        sender, mtype = actual
        self._types.observe_word(block, int(mtype))
        self._last_sender[block] = sender

    @property
    def type_hits(self) -> int:
        return self._types.hits

    @property
    def type_predictions(self) -> int:
        return self._types.predictions

    @property
    def type_accuracy(self) -> float:
        """Type-only accuracy over references where a type was predicted."""
        if self.type_predictions == 0:
            return 0.0
        return self.type_hits / self.type_predictions

    @property
    def pht_entries(self) -> int:
        return self._types.pht_entries


class GlobalHistoryCosmos(MessagePredictor):
    """GAp-style variant: one shared history register per module.

    All blocks at the module shift into one marker-led history word;
    each block still owns a PHT, ``{pattern word: [prediction word,
    counter]}``, indexed by that global pattern.  Interleaved traffic
    from many blocks scrambles the global history, which is exactly why
    the paper builds on the per-address PAp organization instead.
    """

    name = "cosmos-global-history"

    def __init__(self, config: Optional[CosmosConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else CosmosConfig()
        self._full_at = 1 << (TUPLE_BITS * self.config.depth)
        self._history = 1
        self._phts: Dict[int, Dict[int, List[int]]] = {}

    def predict(self, block: int) -> Optional[MessageTuple]:
        if self._history < self._full_at:
            return None
        entry = self._phts.get(block, {}).get(self._history)
        return tuple_of_word(entry[0]) if entry is not None else None

    def update(self, block: int, actual: MessageTuple) -> None:
        word = pack(actual)
        history = self._history
        if history >= self._full_at:
            pht = self._phts.setdefault(block, {})
            entry = pht.get(history)
            if entry is None:
                pht[history] = [word, 0]
            else:
                train_entry(entry, word, self.config.filter_max_count)
        self._history = shift_history(history, word, self._full_at)

    @property
    def pht_entries(self) -> int:
        return sum(len(pht) for pht in self._phts.values())
