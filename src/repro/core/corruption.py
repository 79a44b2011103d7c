"""Seeded corruption of predictor state, and its detection.

Cosmos state lives in SRAM next to each cache/directory module; unlike
the protocol state it shadows, a predictor table is *advisory* -- a
corrupted entry can cost accuracy but must never cost correctness.  This
module models soft errors in that SRAM and the cheap defenses a real
implementation would carry:

* **bit flips** -- a random bit of a stored ``<sender, type>`` tuple
  flips (we flip in the 12-bit sender field of the paper's Table 7
  encoding, so the corrupted entry stays well-formed and the error is
  only catchable by redundancy, not by decode failure);
* **entry loss** -- a whole block's history (its MHR and PHT) vanishes,
  modeling a scrubbed-on-error or power-gated table.

Defense is one parity bit per stored tuple, written on store and checked
on use: a single-bit flip makes the check fail, the entry is dropped and
the predictor relearns it -- graceful degradation instead of silently
serving wrong predictions forever.  A confirmed prediction (stored tuple
equals the newly observed tuple) re-derives the parity, so entries also
self-heal through training.  Losses are undetectable by construction
(the entry is simply gone) and relearned the same way a cold entry is
learned.

Corruption acts on the predictor's own packed words: a flip XORs one
sender bit of a stored MHR history word or PHT prediction word.  The
parity bits live in :class:`ParityTables`, side tables the predictor
builds only when corruption is armed, so fault-free runs carry no parity
state and pay nothing for it.

Injection is driven by a :class:`CorruptionInjector` holding a private
``random.Random``, one per predictor module, so corrupted evaluations
replay deterministically (seed derivation lives in
:class:`~repro.core.bank.PredictorBank`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigError
from .tuples import (
    SENDER_BITS,
    TUPLE_BITS,
    TYPE_BITS,
    MessageTuple,
    pack,
    tuple_of_word,
)


def tuple_parity(tup: MessageTuple) -> int:
    """Even parity over the tuple's 16-bit hardware encoding (0 or 1)."""
    return pack(tup).bit_count() & 1


def sender_bit(bit: int) -> int:
    """The mask of sender bit ``bit`` within one packed 16-bit tuple."""
    if not 0 <= bit < SENDER_BITS:
        raise ConfigError(
            f"sender bit index {bit} out of range [0, {SENDER_BITS})"
        )
    return 1 << (TYPE_BITS + bit)


def flip_sender_bit(tup: MessageTuple, bit: int) -> MessageTuple:
    """``tup`` with bit ``bit`` of its sender field inverted."""
    return tuple_of_word(pack(tup) ^ sender_bit(bit))


@dataclass(frozen=True)
class CorruptionProfile:
    """Per-observation corruption probabilities for one predictor."""

    #: Probability one stored bit flips, per observation.
    flip: float = 0.0
    #: Probability one whole MHT entry is lost, per observation.
    loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("flip", "loss"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(
                    f"corruption probability {name}={value} must be in [0, 1)"
                )

    @property
    def is_active(self) -> bool:
        return bool(self.flip or self.loss)

    @classmethod
    def from_faults(cls, faults) -> Optional["CorruptionProfile"]:
        """The corruption axis of a :class:`~repro.sim.faults.FaultProfile`
        (``None`` when the profile does not corrupt predictor state)."""
        if faults is None or not faults.corrupts_predictor:
            return None
        return cls(flip=faults.flip, loss=faults.loss)


class CorruptionInjector:
    """Draws corruption events for one predictor module.

    Each module owns one injector with its own seeded stream, mirroring
    how each module's SRAM suffers independent soft errors; a shared
    stream would make one module's errors depend on another's traffic.
    """

    __slots__ = (
        "profile", "seed", "_rng", "injected_flips", "injected_losses"
    )

    def __init__(self, profile: CorruptionProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        self._rng = random.Random(seed)
        self.injected_flips = 0
        self.injected_losses = 0

    def draw_loss(self) -> bool:
        return bool(
            self.profile.loss and self._rng.random() < self.profile.loss
        )

    def draw_flip(self) -> bool:
        return bool(
            self.profile.flip and self._rng.random() < self.profile.flip
        )

    def choose(self, sequence):
        """Pick the victim entry/slot/bit uniformly."""
        return self._rng.choice(sequence)

    def flip_bit(self) -> int:
        return self._rng.randrange(SENDER_BITS)


def history_parity(hist: int) -> int:
    """One parity bit per tuple of a marker-led history word.

    Bit ``i`` covers the ``i``-th newest tuple (the ``i``-th lowest
    16-bit field), so shifting a tuple in is a one-bit left shift.
    """
    bits = 0
    field_mask = (1 << TUPLE_BITS) - 1
    for slot in range((hist.bit_length() - 1) // TUPLE_BITS):
        field = (hist >> (slot * TUPLE_BITS)) & field_mask
        bits |= (field.bit_count() & 1) << slot
    return bits


class ParityTables:
    """Parity bits for an armed predictor's MHT and PHT words.

    ``mhr`` maps a block to its history parity (see
    :func:`history_parity`); ``pht`` maps a block to ``{pattern word:
    parity of the stored prediction}``.  The predictor keeps both in step
    with its tables: bits are written when a word is stored and dropped
    with the entry.  A flip changes the word but not its bit, which is
    what the checks catch.
    """

    __slots__ = ("mhr", "pht", "_slot_mask")

    def __init__(self, depth: int) -> None:
        self.mhr: Dict[int, int] = {}
        self.pht: Dict[int, Dict[int, int]] = {}
        self._slot_mask = (1 << depth) - 1

    def mhr_ok(self, block: int, hist: int) -> bool:
        """Whether every tuple of ``block``'s history matches its bit."""
        return history_parity(hist) == self.mhr[block]

    def entry_ok(self, block: int, pattern: int, prediction: int) -> bool:
        """Whether a stored prediction word matches its parity bit."""
        return prediction.bit_count() & 1 == self.pht[block][pattern]

    def record(
        self,
        block: int,
        before: Optional[int],
        word: int,
        mht: Dict[int, int],
        phts: Dict[int, Dict[int, list]],
    ) -> None:
        """Write the bits for one training step of ``block`` on ``word``.

        ``before`` is the block's history word before the step (``None``
        for a new register).  The history gains ``word``'s bit; the PHT
        entry indexed by ``before`` is rewritten only when its prediction
        now equals ``word`` -- freshly stored or confirmed -- and keeps
        its (possibly stale) bit otherwise.
        """
        parity = word.bit_count() & 1
        if block in mht:  # not evicted by its own insertion
            if before is None:
                self.mhr[block] = parity
            else:
                self.mhr[block] = (
                    (self.mhr[block] << 1) | parity
                ) & self._slot_mask
        table = phts.get(block)
        if table is not None and before is not None:
            entry = table.get(before)
            if entry is not None and entry[0] == word:
                self.pht.setdefault(block, {})[before] = parity

    def drop_block(self, block: int) -> None:
        self.mhr.pop(block, None)
        self.pht.pop(block, None)

    def drop_entry(self, block: int, pattern: int) -> None:
        bits = self.pht.get(block)
        if bits is not None:
            bits.pop(pattern, None)
