"""The Cosmos coherence-message predictor.

One :class:`CosmosPredictor` sits beside one cache or directory module.
Prediction (paper Section 3.3): index the Message History Table with the
block address to find that block's MHR; use the MHR contents to index the
block's Pattern History Table; return the stored prediction, if any.
Update (Section 3.4): write the observed tuple as the new prediction for
the current pattern (subject to the noise filter), then shift the tuple
into the MHR.

State is flat small-int dicts: the MHT maps a block to its marker-led
packed history word, and each per-block PHT maps a pattern word to
``[prediction word, filter counter]``.  :meth:`observe_word` fuses
predict + score + train into one pass over them -- the hot path the
evaluation loop runs millions of times.  LRU order for bounded tables is
the dict's insertion order (re-inserting a key moves it to the end).
:meth:`predict`, :meth:`update` and :meth:`observe` are pack/unpack
wrappers around the same state and the same kernel.

Corruption injection (only when an injector is armed) flips bits of the
stored words themselves; their parity bits live in side tables
(:class:`~repro.core.corruption.ParityTables`) that exist only then, so
an unarmed predictor carries no parity state.

A checkpoint pickles the predictor itself, so a restored one continues
exactly -- eviction order, parity and injector stream included.
``__slots__`` keep the instance on the compact attribute layout through
pickling and unpickling, where a ``__dict__`` would slow the kernel.
:meth:`history` and :meth:`pattern_table` read one block's state back in
the readable tuple form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from .config import CosmosConfig
from .corruption import (
    CorruptionInjector,
    CorruptionProfile,
    ParityTables,
    sender_bit,
)
from .eviction import ClockOrder
from .tuples import (
    TUPLE_BITS,
    MessageTuple,
    pack,
    tuple_of_word,
    unpack_pattern,
)


@dataclass(frozen=True)
class Observation:
    """Outcome of one predict-then-observe step."""

    block: int
    predicted: Optional[MessageTuple]
    actual: MessageTuple

    @property
    def hit(self) -> bool:
        """A hit requires the full tuple -- sender *and* type -- to match."""
        return self.predicted == self.actual

    @property
    def type_hit(self) -> bool:
        """Whether at least the message type matched (diagnostic only)."""
        return self.predicted is not None and self.predicted[1] == self.actual[1]


def train_entry(entry: List[int], word: int, max_count: int) -> None:
    """Train one ``[prediction word, counter]`` PHT entry on ``word``.

    The single-sided saturating noise filter (Section 3.6): a
    confirmation raises the counter up to ``max_count``, a misprediction
    lowers it, and only a misprediction at zero replaces the prediction.
    With ``max_count = 0`` every misprediction replaces it (Table 6's
    "no filter" column).  :meth:`CosmosPredictor.observe_word` and
    :func:`~repro.core.evaluation.evaluate_trace`, for the default
    Cosmos bank, inline this rule.
    """
    stored, counter = entry
    if stored == word:
        if counter < max_count:
            entry[1] = counter + 1
    elif counter > 0:
        entry[1] = counter - 1
    else:
        entry[0] = word


class CosmosPredictor:
    """Two-level adaptive predictor for one cache or directory module."""

    #: The statistics counters :meth:`adopt` carries over.
    _STAT_FIELDS = (
        "predictions", "hits", "no_prediction", "evictions_mhr",
        "evictions_pht", "corrupt_flips", "corrupt_losses",
        "corrupt_detected",
    )
    __slots__ = (
        "config", "_macro", "_confidence", "_max_count", "_full_at",
        "_corruption", "_parity", "_mhr_cap", "_pht_cap", "_bounded",
        "_lru_mhr", "_mhr_clock", "_pht_lru", "_pht_clock", "_pkey_shift",
        "_pht_total", "_peak_mhr", "_peak_pht", "_mht", "_phts",
    ) + _STAT_FIELDS

    def __init__(
        self,
        config: Optional[CosmosConfig] = None,
        corruption: Optional[CorruptionInjector] = None,
    ) -> None:
        # A ``config=CosmosConfig()`` default would be evaluated once at
        # class-definition time and shared by every default-constructed
        # predictor; build a fresh instance per predictor instead.
        config = config if config is not None else CosmosConfig()
        self.config = config
        self._macro = config.macroblock_bytes
        self._confidence = config.confidence_threshold
        self._max_count = config.filter_max_count
        self._full_at = 1 << (TUPLE_BITS * config.depth)
        self._corruption = corruption
        self._parity = (
            ParityTables(config.depth) if corruption is not None else None
        )
        # Capacity-bounded tables (mhr_capacity / pht_capacity; see
        # core/eviction.py).  LRU MHR bounding needs no side structure:
        # recency is the table's own insertion order.
        # clock/decay keep a ClockOrder per bounded table; a bounded PHT
        # under LRU keeps a cross-block recency dict.  All of it is None
        # (and costs nothing on the hot path) when unbounded.
        mhr_cap = config.mhr_capacity
        pht_cap = config.pht_capacity
        self._mhr_cap = mhr_cap
        self._pht_cap = pht_cap
        self._bounded = bool(mhr_cap or pht_cap)
        clocked = config.eviction != "lru"
        decayed = config.eviction == "decay"
        self._lru_mhr = bool(mhr_cap) and not clocked
        self._mhr_clock = (
            ClockOrder(decayed) if mhr_cap and clocked else None
        )
        self._pht_lru: Optional[Dict[int, None]] = (
            {} if pht_cap and not clocked else None
        )
        self._pht_clock = (
            ClockOrder(decayed) if pht_cap and clocked else None
        )
        # Packed (block, pattern) key for the PHT order structures: a
        # full marker-led pattern word is < 2 * full_at, so shifting the
        # block past it never collides.
        self._pkey_shift = TUPLE_BITS * config.depth + 1
        self._pht_total = 0
        self._peak_mhr = 0
        self._peak_pht = 0
        # block -> marker-led packed history word (insertion order is
        # LRU order for bounded tables).
        self._mht: Dict[int, int] = {}
        # block -> {pattern word -> [prediction word, counter]}
        self._phts: Dict[int, Dict[int, list]] = {}
        # Statistics
        self.predictions = 0
        self.hits = 0
        self.no_prediction = 0
        self.evictions_mhr = 0
        self.evictions_pht = 0
        self.corrupt_flips = 0
        self.corrupt_losses = 0
        self.corrupt_detected = 0

    def _key(self, block: int) -> int:
        """Table index for ``block``: the block itself, or its macroblock."""
        if self._macro is None:
            return block
        return block // self._macro

    # ------------------------------------------------------------------
    # the fused hot path
    # ------------------------------------------------------------------

    def observe_word(self, block: int, word: int) -> int:
        """Predict, score, and train on one packed ``<sender, type>`` word.

        The fused kernel behind :meth:`observe`: ``word`` is the 16-bit
        :func:`~repro.core.tuples.pack` encoding of the observed tuple,
        and the return value is the packed prediction Cosmos made for it
        (``-1`` when it declined to predict).  All statistics counters
        update exactly as :meth:`observe` would.  It neither injects
        corruption nor maintains parity, so an armed predictor is driven
        through :meth:`observe` instead.
        """
        if self._macro is not None:
            block //= self._macro
        mht = self._mht
        hist = mht.get(block)
        if hist is None:
            self.no_prediction += 1
            mht[block] = (1 << TUPLE_BITS) | word
            if self._bounded:
                self._bound_mhr_insert(block)
            return -1
        if self._lru_mhr:
            del mht[block]  # re-inserted below == move to LRU tail
        elif self._mhr_clock is not None:
            self._mhr_clock.touch(block)
        predicted = -1
        full_at = self._full_at
        if hist >= full_at:
            pht = self._phts.get(block)
            if pht is None:
                # PHTs are allocated lazily: a block whose reference count
                # never exceeds the MHR depth never gets one (Table 7).
                pht = self._phts[block] = {}
            entry = pht.get(hist)
            if entry is None:
                self.no_prediction += 1
                pht[hist] = [word, 0]
                if self._bounded:
                    self._bound_pht_insert(block, hist)
            else:
                stored = entry[0]
                counter = entry[1]
                confidence = self._confidence
                if confidence == 0 or counter >= confidence:
                    predicted = stored
                    self.predictions += 1
                    if stored == word:
                        self.hits += 1
                else:
                    self.no_prediction += 1
                # Single-sided saturating noise filter (Section 3.6).
                if stored == word:
                    if counter < self._max_count:
                        entry[1] = counter + 1
                elif counter > 0:
                    entry[1] = counter - 1
                else:
                    entry[0] = word
                if self._pht_cap:
                    self._touch_pht(block, hist)
            hist = full_at | (((hist << TUPLE_BITS) | word) & (full_at - 1))
        else:
            self.no_prediction += 1
            hist = (hist << TUPLE_BITS) | word
        mht[block] = hist
        return predicted

    # ------------------------------------------------------------------
    # capacity bounding (mhr_capacity / pht_capacity; core/eviction.py)
    # ------------------------------------------------------------------
    #
    # The kernel and evaluate_trace's inlined default-bank kernel in
    # core/evaluation.py call these hooks at the same points in the same
    # order with the same integer keys, so their eviction decisions are
    # identical.  Live PHT
    # totals are kept incrementally (O(1) accounting even while
    # thrashing), and peaks are noted just before any removal, the only
    # moments a table can shrink, so ``peak_*_entries`` stays exact
    # without per-observation bookkeeping.

    def _note_peaks(self) -> None:
        if len(self._mht) > self._peak_mhr:
            self._peak_mhr = len(self._mht)
        if self._pht_total > self._peak_pht:
            self._peak_pht = self._pht_total

    def _bound_mhr_insert(self, block: int) -> None:
        """Track a just-inserted MHR entry; evict if over capacity."""
        clock = self._mhr_clock
        if clock is not None:
            clock.touch(block)
        if self._mhr_cap and len(self._mht) > self._mhr_cap:
            self._evict_mhr()

    def _bound_pht_insert(self, block: int, pattern: int) -> None:
        """Track a just-inserted PHT entry; evict if over capacity."""
        self._pht_total += 1
        pht_cap = self._pht_cap
        if not pht_cap:
            return
        key = (block << self._pkey_shift) | pattern
        lru = self._pht_lru
        if lru is not None:
            lru[key] = None
        else:
            self._pht_clock.touch(key)
        if self._pht_total > pht_cap:
            self._evict_pht()

    def _touch_pht(self, block: int, pattern: int) -> None:
        """Record a use of an existing PHT entry (bounded PHT only)."""
        key = (block << self._pkey_shift) | pattern
        lru = self._pht_lru
        if lru is not None:
            del lru[key]  # re-inserted below == move to LRU tail
            lru[key] = None
        else:
            self._pht_clock.touch(key)

    def _evict_mhr(self) -> None:
        """Evict one block's MHR -- and, wholesale, its PHT."""
        clock = self._mhr_clock
        victim = clock.victim() if clock is not None else next(iter(self._mht))
        dropped = self._drop_block(victim)
        if dropped is not None:
            self.evictions_pht += len(dropped)
        self.evictions_mhr += 1

    def _evict_pht(self) -> None:
        """Evict one (block, pattern) entry from the bounded PHT."""
        self._note_peaks()
        lru = self._pht_lru
        if lru is not None:
            key = next(iter(lru))
            del lru[key]
        else:
            key = self._pht_clock.victim()
        shift = self._pkey_shift
        block = key >> shift
        pword = key & ((1 << shift) - 1)
        table = self._phts[block]
        del table[pword]
        if not table:
            del self._phts[block]
        if self._parity is not None:
            self._parity.drop_entry(block, pword)
        self._pht_total -= 1
        self.evictions_pht += 1

    def _drop_block(self, block: int) -> Optional[Dict[int, list]]:
        """Remove a block's MHR and PHT and unbook both; return the PHT.

        Eviction, ``forget`` and corruption loss all go through here, so
        the high-water marks are noted while the block still counts.
        """
        bounded = self._bounded
        if bounded:
            self._note_peaks()
        self._mht.pop(block, None)
        dropped = self._phts.pop(block, None)
        if self._parity is not None:
            self._parity.drop_block(block)
        if bounded:
            if self._mhr_clock is not None:
                self._mhr_clock.discard(block)
            if dropped is not None:
                self._pht_total -= len(dropped)
                if self._pht_cap:
                    base = block << self._pkey_shift
                    for pword in dropped:
                        self._unbook_pht(base | pword)
        return dropped

    def _unbook_pht(self, key: int) -> None:
        """Stop tracking a PHT entry dropped other than by its own
        eviction (a block drop, a parity-detected entry)."""
        if self._pht_lru is not None:
            self._pht_lru.pop(key, None)
        else:
            self._pht_clock.discard(key)

    def enforce_capacity(self) -> int:
        """Evict until within the configured capacities; count evicted.

        :meth:`adopt` does not evict, so tables kept under a larger -- or
        no -- budget can leave this predictor oversized.  ``repro-serve``
        workers call this after adopting a checkpointed bank whose budget
        has since changed.
        """
        before = self.evictions_mhr + self.evictions_pht
        if self._mhr_cap:
            while len(self._mht) > self._mhr_cap:
                self._evict_mhr()
        if self._pht_cap:
            while self._pht_total > self._pht_cap:
                self._evict_pht()
        return self.evictions_mhr + self.evictions_pht - before

    def adopt(self, donor: "CosmosPredictor") -> None:
        """Take over ``donor``'s tables, counters and peaks.

        For a change of budget or eviction policy: every other config
        field must match.  The donor's order structures may belong to
        another policy, so this predictor's are seeded from table order
        -- every entry one use, oldest first.  Adopting never evicts;
        follow up with :meth:`enforce_capacity` to apply the budget.
        The donor is left sharing its tables and must not be used again.
        """
        unbudgeted = {"mhr_capacity": 0, "pht_capacity": 0, "eviction": "lru"}
        if replace(donor.config, **unbudgeted) != replace(
            self.config, **unbudgeted
        ):
            raise ConfigError(
                f"cannot adopt predictor state across configurations: "
                f"{donor.config.describe()} vs {self.config.describe()}"
            )
        self._mht = donor._mht
        self._phts = donor._phts
        self._corruption = donor._corruption
        self._parity = donor._parity
        for name in self._STAT_FIELDS:
            setattr(self, name, getattr(donor, name))
        self._peak_mhr = donor._peak_mhr
        self._peak_pht = donor._peak_pht
        self._pht_total = sum(len(pht) for pht in self._phts.values())
        if self._mhr_clock is not None:
            self._mhr_clock.seed(self._mht)
        if self._pht_cap:
            seeded = [
                (block << self._pkey_shift) | pword
                for block, table in self._phts.items()
                for pword in table
            ]
            if self._pht_lru is not None:
                self._pht_lru = dict.fromkeys(seeded)
            else:
                self._pht_clock.seed(seeded)

    # ------------------------------------------------------------------
    # the two paper operations
    # ------------------------------------------------------------------

    def predict(self, block: int) -> Optional[MessageTuple]:
        """Predict the next ``<sender, type>`` for ``block`` (or ``None``)."""
        block = self._key(block)
        if self._parity is not None:
            self._check_parity(block)
        hist = self._mht.get(block)
        if hist is None or hist < self._full_at:
            return None
        pht = self._phts.get(block)
        if pht is None:
            return None
        entry = pht.get(hist)
        if entry is None:
            return None
        if self._confidence and entry[1] < self._confidence:
            return None
        return tuple_of_word(entry[0])

    def update(self, block: int, actual: MessageTuple) -> None:
        """Train on the reception of ``actual`` for ``block``.

        Runs the kernel and discards its scoring: training is exactly
        what :meth:`observe` does after predicting.
        """
        scored = (self.predictions, self.hits, self.no_prediction)
        self._train(block, pack(actual))
        self.predictions, self.hits, self.no_prediction = scored

    def observe(self, block: int, actual: MessageTuple) -> Observation:
        """Predict, score against ``actual``, then train.  One message."""
        if self._corruption is not None:
            self._inject_corruption()
            self._check_parity(self._key(block))
        predicted = self._train(block, pack(actual))
        return Observation(
            block=block,
            predicted=tuple_of_word(predicted) if predicted >= 0 else None,
            actual=actual,
        )

    def _train(self, block: int, word: int) -> int:
        """The kernel, plus the parity writes of an armed predictor."""
        parity = self._parity
        if parity is None:
            return self.observe_word(block, word)
        key = self._key(block)
        before = self._mht.get(key)
        predicted = self.observe_word(block, word)
        parity.record(key, before, word, self._mht, self._phts)
        return predicted

    def forget(self, block: int) -> None:
        """Discard all history for ``block``.

        Models Section 3.7's caveat: an implementation that merges the
        first-level table with cache-block state loses the block's
        history when the block is replaced.  The replacement study
        (``repro.experiments.replacement``) calls this on every eviction
        to measure what that merging costs.
        """
        self._drop_block(self._key(block))

    # ------------------------------------------------------------------
    # corruption (armed predictors only)
    # ------------------------------------------------------------------

    def _check_parity(self, block: int) -> None:
        """Drop whatever of ``block``'s state fails its parity check.

        Checked before the kernel runs, as hardware would on read.  A bad
        history is dropped and relearned while the block's PHT survives
        -- its patterns were trained from pre-flip history and stay as
        good as any learned knowledge.  A bad prediction is dropped
        alone.
        """
        parity = self._parity
        hist = self._mht.get(block)
        if hist is None:
            return
        if not parity.mhr_ok(block, hist):
            self.corrupt_detected += 1
            if self._bounded:
                self._note_peaks()
                if self._mhr_clock is not None:
                    self._mhr_clock.discard(block)
            del self._mht[block]
            del parity.mhr[block]
            return
        pht = self._phts.get(block)
        if hist < self._full_at or pht is None:
            return
        entry = pht.get(hist)
        if entry is None or parity.entry_ok(block, hist, entry[0]):
            return
        self.corrupt_detected += 1
        if self._bounded:
            self._note_peaks()
            self._pht_total -= 1
            if self._pht_cap:
                self._unbook_pht((block << self._pkey_shift) | hist)
        # The emptied table stays allocated, as a lazily allocated PHT
        # does until its block is dropped.
        del pht[hist]
        parity.drop_entry(block, hist)

    def corrupt(self, block: int, index: int, bit: int) -> None:
        """Flip sender bit ``bit`` of one stored tuple of ``block``.

        ``block`` is a table key as :meth:`blocks` lists it.  ``index``
        counts the block's MHR slots, oldest first, then its PHT entries'
        predictions in insertion order -- the space the injector draws
        victims from.  The parity bit is left stale, as a soft error
        leaves it.
        """
        hist = self._mht[block]
        slots = (hist.bit_length() - 1) // TUPLE_BITS
        pht = self._phts.get(block)
        patterns = list(pht) if pht else []
        if not 0 <= index < slots + len(patterns):
            raise IndexError(
                f"tuple {index} out of range [0, {slots + len(patterns)})"
            )
        mask = sender_bit(bit)
        if index < slots:
            # Slot 0 is the oldest tuple, i.e. the highest field.
            shift = (slots - 1 - index) * TUPLE_BITS
            self._mht[block] = hist ^ (mask << shift)
        else:
            pht[patterns[index - slots]][0] ^= mask

    def _inject_corruption(self) -> None:
        """Maybe corrupt this module's SRAM before the next use.

        Drawn once per observation: soft-error arrival is proportional
        to time, and observations are this predictor's clock.  Victims
        (entry, slot/pattern, bit) are chosen uniformly from live state,
        so a bigger table absorbs proportionally more of the flux --
        matching how real SRAM error rates scale with capacity.
        """
        injector = self._corruption
        mht = self._mht
        if not mht:
            return
        if injector.draw_loss():
            self._drop_block(injector.choose(list(mht)))
            self.corrupt_losses += 1
            injector.injected_losses += 1
            if not mht:
                return
        if injector.draw_flip():
            target = injector.choose(list(mht))
            # Choose uniformly among the block's stored tuples: each MHR
            # slot and each PHT entry's prediction is one 16-bit word.
            pht = self._phts.get(target)
            total = (mht[target].bit_length() - 1) // TUPLE_BITS + (
                len(pht) if pht else 0
            )
            if total == 0:
                return
            index = injector.choose(range(total))
            self.corrupt(target, index, injector.flip_bit())
            self.corrupt_flips += 1
            injector.injected_flips += 1

    # ------------------------------------------------------------------
    # introspection (memory accounting, analysis)
    # ------------------------------------------------------------------

    @property
    def mhr_entries(self) -> int:
        """Blocks referenced at least once (Table 7's MHR entry count)."""
        return len(self._mht)

    @property
    def pht_entries(self) -> int:
        """Total *live* pattern entries across all blocks (Table 7's
        numerator).  Bounded predictors keep the total incrementally, so
        the read is O(1) even while eviction is churning the tables."""
        if self._bounded:
            return self._pht_total
        return sum(len(pht) for pht in self._phts.values())

    @property
    def peak_mhr_entries(self) -> int:
        """High-water MHR entry count (== live unless entries were shed)."""
        live = len(self._mht)
        return live if live > self._peak_mhr else self._peak_mhr

    @property
    def peak_pht_entries(self) -> int:
        """High-water PHT entry count (== live unless entries were shed)."""
        live = self.pht_entries
        return live if live > self._peak_pht else self._peak_pht

    def history(self, block: int) -> Optional[Tuple[MessageTuple, ...]]:
        """The block's MHR contents, oldest first, or ``None`` if it has
        no MHR.  Fewer than ``depth`` tuples while the register fills."""
        found = self._mht.get(self._key(block))
        return unpack_pattern(found) if found is not None else None

    def pattern_table(
        self, block: int
    ) -> Optional[Dict[Tuple[MessageTuple, ...], Tuple[MessageTuple, int]]]:
        """The block's PHT as ``{pattern: (prediction, filter counter)}``
        in the readable tuple form, or ``None`` before it is allocated.
        A copy: editing it does not change the predictor."""
        table = self._phts.get(self._key(block))
        if table is None:
            return None
        return {
            unpack_pattern(pattern): (tuple_of_word(prediction), counter)
            for pattern, (prediction, counter) in table.items()
        }

    def pht_sizes(self) -> Tuple[int, ...]:
        """Per-block PHT entry counts (for preallocation analysis)."""
        return tuple(len(pht) for pht in self._phts.values())

    def blocks(self) -> Tuple[int, ...]:
        return tuple(self._mht)

    @property
    def accuracy(self) -> float:
        """Hits over *all* references (no-predictions count as misses)."""
        total = self.predictions + self.no_prediction
        return self.hits / total if total else 0.0

def armed_factory(
    config: CosmosConfig, profile: CorruptionProfile, seed: int
) -> Tuple[Callable[[], CosmosPredictor], List[CosmosPredictor]]:
    """A factory of corruption-armed predictors, plus the list it fills.

    Each module gets its own error stream, seeded in first-reference
    order; the trace fixes that order, so the streams are deterministic.
    The list collects every predictor built, for the injected and
    detected totals.
    """
    armed: List[CosmosPredictor] = []

    def factory() -> CosmosPredictor:
        injector = CorruptionInjector(
            profile, seed=seed * 1_000_003 + len(armed)
        )
        predictor = CosmosPredictor(config, corruption=injector)
        armed.append(predictor)
        return predictor

    return factory, armed
