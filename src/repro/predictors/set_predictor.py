"""Set-prediction Cosmos (the paper's footnote 3).

"It may be possible to group the processor numbers into a set and
perform actions on the entire set of processors."  Instead of a single
``<sender, type>`` tuple, each pattern keeps the last ``set_size``
distinct successors (most-recent first).  The primary (MRU) successor is
the point prediction scored by the common interface; a *set hit* --
enough for set-directed actions like invalidating every predicted
requester -- only needs the actual tuple to appear anywhere in the set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import CosmosConfig
from ..core.tuples import TUPLE_BITS, MessageTuple, pack, shift_history
from .base import MessagePredictor


class SetCosmos(MessagePredictor):
    """Cosmos whose PHT entries hold a small MRU set of successors."""

    name = "cosmos-set"

    def __init__(
        self, config: Optional[CosmosConfig] = None, set_size: int = 2
    ) -> None:
        super().__init__()
        if set_size < 1:
            raise ValueError("set_size must be at least 1")
        config = config if config is not None else CosmosConfig()
        self.config = config
        self.set_size = set_size
        self.name = f"cosmos-set{set_size}-d{config.depth}"
        self._full_at = 1 << (TUPLE_BITS * config.depth)
        #: block -> marker-led packed history word.
        self._mht: Dict[int, int] = {}
        #: block -> pattern word -> MRU list of successors.
        self._phts: Dict[int, Dict[int, List[MessageTuple]]] = {}
        self.set_hits = 0
        self.set_predictions = 0

    def _entry(self, block: int) -> Optional[List[MessageTuple]]:
        history = self._mht.get(block, 1)
        if history < self._full_at:
            return None
        return self._phts.get(block, {}).get(history)

    def predict(self, block: int) -> Optional[MessageTuple]:
        entry = self._entry(block)
        return entry[0] if entry else None

    def predict_set(self, block: int) -> Tuple[MessageTuple, ...]:
        """All candidate successors, most recent first."""
        entry = self._entry(block)
        return tuple(entry) if entry else ()

    def update(self, block: int, actual: MessageTuple) -> None:
        candidates = self._entry(block)
        if candidates:
            self.set_predictions += 1
            if actual in candidates:
                self.set_hits += 1
        history = self._mht.get(block, 1)
        if history >= self._full_at:
            pht = self._phts.setdefault(block, {})
            entry = pht.setdefault(history, [])
            if actual in entry:
                entry.remove(actual)
            entry.insert(0, actual)
            del entry[self.set_size:]
        self._mht[block] = shift_history(
            history, pack(actual), self._full_at
        )

    @property
    def set_accuracy(self) -> float:
        """Hits where the actual tuple was anywhere in the predicted set."""
        if self.set_predictions == 0:
            return 0.0
        return self.set_hits / self.set_predictions

    @property
    def pht_entries(self) -> int:
        """Total stored successor tuples (each costs one tuple of memory)."""
        return sum(
            len(entry)
            for pht in self._phts.values()
            for entry in pht.values()
        )
