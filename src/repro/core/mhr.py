"""Message History Register: the first level of Cosmos.

One MHR per cache block holds the last ``depth`` ``<sender, type>``
tuples received at the node for that block, oldest first.  New tuples
are shifted in from the right, exactly as the paper's update step
describes ("left shift the <sender,type> tuple into the MHR").

The register is stored as a single marker-led pattern word (see
:mod:`repro.core.tuples`): shifting is two integer operations and the
PHT index -- :meth:`pattern` -- is the word itself, so the hot path
never hashes tuples.  Tuple views (:meth:`snapshot`) are materialized
on demand for analysis and checkpoint code.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .tuples import TUPLE_BITS, MessageTuple, pack, unpack_pattern


class MessageHistoryRegister:
    """Fixed-depth shift register of message tuples."""

    __slots__ = ("_depth", "_word", "_full_at")

    def __init__(self, depth: int) -> None:
        self._depth = depth
        # Marker-led packed history; 1 is the empty register.
        self._word = 1
        self._full_at = 1 << (TUPLE_BITS * depth)

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def full(self) -> bool:
        """Whether ``depth`` messages have been observed yet."""
        return self._word >= self._full_at

    def shift(self, tup: MessageTuple) -> None:
        """Shift ``tup`` in as the most recent message."""
        shifted = (self._word << TUPLE_BITS) | pack(tup)
        if shifted >= self._full_at << TUPLE_BITS:
            # Drop the oldest tuple and re-plant the marker bit.
            shifted = self._full_at | (shifted & (self._full_at - 1))
        self._word = shifted

    def pattern(self) -> Optional[int]:
        """The packed history word used to index the PHT.

        ``None`` until the register has filled: Cosmos cannot index a
        depth-``d`` PHT with fewer than ``d`` observed messages.
        """
        if self._word < self._full_at:
            return None
        return self._word

    def snapshot(self) -> Tuple[MessageTuple, ...]:
        """Current (possibly partial) contents as tuples, oldest first."""
        return unpack_pattern(self._word)

    def __len__(self) -> int:
        return (self._word.bit_length() - 1) // TUPLE_BITS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MHR(depth={self._depth}, history={self.snapshot()!r})"
