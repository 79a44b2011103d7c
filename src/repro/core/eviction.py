"""Eviction-order bookkeeping for capacity-bounded predictor tables.

A hardware Cosmos cannot grow its tables without bound (ROADMAP item 2);
when :class:`~repro.core.config.CosmosConfig` sets ``mhr_capacity`` /
``pht_capacity``, the predictor consults one of three replacement
policies to pick victims:

* ``lru`` -- exact least-recently-used.  For the MHR table this costs
  nothing extra: the predictor already keeps recency as the table's own
  insertion order (re-inserting a key moves it to the end), so only the
  cross-block PHT order needs a side dict.
* ``clock`` -- the classic second-chance approximation: a reference bit
  per entry, a hand sweeping a ring.  A touched entry survives one
  sweep; an untouched one is evicted.
* ``decay`` -- clock generalized to a small saturating use counter
  (:data:`DECAY_MAX`): each touch ages the entry up, each hand pass
  decays it down, and only fully-decayed entries are evicted.  Hot
  entries therefore survive several sweeps of cold traffic.

:class:`ClockOrder` implements the latter two.  The predictor's kernel
and the copy of it that ``evaluate_trace`` inlines for the default
Cosmos bank drive it with the same ``touch``/``discard``/``victim`` call
sequence on the same integer keys, which is what makes their eviction
decisions identical (the differential suite pins this).

Externally removed keys (corruption losses, ``forget``) are *lazily*
reaped: ``discard`` only drops the use count, and the stale ring slot is
recycled the next time the hand passes it.  ``victim`` therefore runs in
amortized O(1) plus O(ring) worst case when many stale slots pile up.
"""

from __future__ import annotations

from typing import Dict, List

#: Replacement policies a bounded table can be configured with.
EVICTION_POLICIES = ("lru", "clock", "decay")

#: Saturation ceiling of the ``decay`` policy's per-entry use counter.
DECAY_MAX = 3


class ClockOrder:
    """Ring + hand + per-entry use counts for ``clock`` / ``decay``.

    Keys are small ints (a block number, or a packed ``(block, pattern)``
    word); the caller owns the table itself and only delegates the
    replacement *order* here.
    """

    __slots__ = ("_decay", "_ring", "_hand", "_bits")

    def __init__(self, decay: bool = False) -> None:
        self._decay = decay
        self._ring: List[int] = []
        self._hand = 0
        self._bits: Dict[int, int] = {}

    def __len__(self) -> int:
        """Live (non-stale) tracked entries."""
        return len(self._bits)

    def touch(self, key: int) -> None:
        """Record a use of ``key``, inserting it if untracked."""
        bits = self._bits
        found = bits.get(key)
        if found is None:
            bits[key] = 1
            self._ring.append(key)
        elif self._decay:
            if found < DECAY_MAX:
                bits[key] = found + 1
        else:
            bits[key] = 1

    def discard(self, key: int) -> None:
        """Stop tracking ``key`` (removed externally, not evicted)."""
        self._bits.pop(key, None)

    def victim(self) -> int:
        """Choose, untrack, and return the next eviction victim."""
        ring = self._ring
        bits = self._bits
        hand = self._hand
        while True:
            if hand >= len(ring):
                hand = 0
            key = ring[hand]
            count = bits.get(key)
            if count is None:
                # Stale slot left behind by discard(): reap and retry
                # without advancing (the next key slides into this slot).
                ring.pop(hand)
                continue
            if count:
                # Second chance: age the entry down and move on.
                bits[key] = count - 1
                hand += 1
                continue
            ring.pop(hand)
            del bits[key]
            self._hand = hand if hand < len(ring) else 0
            return key

    def seed(self, keys) -> None:
        """Adopt pre-existing ``keys`` with no recorded eviction state.

        Used when a bounded predictor adopts tables kept under another
        budget or policy (:meth:`CosmosPredictor.adopt
        <repro.core.predictor.CosmosPredictor.adopt>`): every entry
        starts with one use, hand at the oldest.
        """
        self._ring = list(keys)
        self._hand = 0
        self._bits = {key: 1 for key in self._ring}
