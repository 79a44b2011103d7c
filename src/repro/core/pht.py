"""Pattern History Table: the second level of Cosmos.

Each MHR owns one PHT.  A PHT maps a history pattern (the MHR contents)
to a predicted next ``<sender, type>`` tuple.  Unlike PAp's two-bit
counters, a Cosmos PHT entry *is* a prediction; an optional single-sided
saturating counter acts as a noise filter (paper Section 3.6): the stored
prediction is replaced only after the counter, which rises with each
confirmation and falls with each misprediction, has been driven back to
zero.  With ``max_count = 0`` every misprediction replaces the prediction
immediately (the paper's "no filter" column in Table 6).

Entries are keyed on marker-led packed pattern words (see
:mod:`repro.core.tuples`) -- the representation
:meth:`~repro.core.mhr.MessageHistoryRegister.pattern` hands out -- so a
lookup hashes one small int.  Every public method also accepts the
readable tuple-of-tuples form and normalizes it, so analysis and test
code can keep writing patterns out literally.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from .tuples import MessageTuple, pack_pattern

#: A PHT index: a packed pattern word, or the tuple sequence it encodes.
Pattern = Union[int, Tuple[MessageTuple, ...]]


def pattern_word(pattern: Pattern) -> int:
    """Normalize a pattern (packed word or tuple sequence) to its word."""
    if type(pattern) is int:
        return pattern
    return pack_pattern(pattern)


class PHTEntry:
    """One pattern's prediction plus its filter counter."""

    __slots__ = ("prediction", "counter")

    def __init__(self, prediction: MessageTuple) -> None:
        self.prediction = prediction
        self.counter = 0

    def update(self, actual: MessageTuple, max_count: int) -> None:
        """Train the entry after observing ``actual`` for its pattern."""
        if actual == self.prediction:
            if self.counter < max_count:
                self.counter += 1
        elif self.counter > 0:
            self.counter -= 1
        else:
            self.prediction = actual

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PHTEntry({self.prediction!r}, counter={self.counter})"


class PatternHistoryTable:
    """Per-block pattern -> prediction table."""

    __slots__ = ("_entries", "_max_count")

    def __init__(self, filter_max_count: int = 0) -> None:
        self._entries: Dict[int, PHTEntry] = {}
        self._max_count = filter_max_count

    def predict(self, pattern: Pattern) -> Optional[MessageTuple]:
        """The prediction stored for ``pattern``, or ``None`` if absent."""
        entry = self._entries.get(pattern_word(pattern))
        return entry.prediction if entry is not None else None

    def predict_with_confidence(
        self, pattern: Pattern
    ) -> Optional[Tuple[MessageTuple, int]]:
        """The prediction and its filter-counter value, or ``None``.

        The counter doubles as a confidence estimate: it counts recent
        consecutive confirmations (up to the filter maximum), so a
        confidence-gated Cosmos can decline to predict until a pattern
        has proved itself.
        """
        entry = self._entries.get(pattern_word(pattern))
        if entry is None:
            return None
        return (entry.prediction, entry.counter)

    def train(self, pattern: Pattern, actual: MessageTuple) -> None:
        """Record that ``actual`` followed ``pattern``."""
        word = pattern_word(pattern)
        entry = self._entries.get(word)
        if entry is None:
            self._entries[word] = PHTEntry(actual)
        else:
            entry.update(actual, self._max_count)

    def entry(self, pattern: Pattern) -> Optional[PHTEntry]:
        """The live entry object for ``pattern`` (validity checks)."""
        return self._entries.get(pattern_word(pattern))

    def __len__(self) -> int:
        """Number of allocated pattern entries (Table 7 counts these)."""
        return len(self._entries)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern_word(pattern) in self._entries

    def items(self) -> Iterable[Tuple[int, PHTEntry]]:
        """Iterate ``(pattern word, entry)`` pairs (analysis/debugging)."""
        return self._entries.items()
