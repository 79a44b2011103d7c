"""Tests for the Pattern History Table and the noise filter, read
through :meth:`CosmosPredictor.pattern_table`."""

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor, train_entry
from repro.core.tuples import pack
from repro.protocol.messages import MessageType

BLOCK = 0x40
A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.INVAL_RO_RESPONSE)
C = (3, MessageType.UPGRADE_REQUEST)
PATTERN = (A,)


def depth_one(filter_max_count=0):
    return CosmosPredictor(
        CosmosConfig(depth=1, filter_max_count=filter_max_count)
    )


def train(predictor, pattern, actual):
    """Record that ``actual`` followed ``pattern`` (a depth-1 history)."""
    for tup in pattern:
        predictor.update(BLOCK, tup)
    predictor.update(BLOCK, actual)


def stored(predictor, pattern=PATTERN):
    """The prediction stored for ``pattern``, or ``None``."""
    entry = (predictor.pattern_table(BLOCK) or {}).get(pattern)
    return entry[0] if entry is not None else None


class TestUnfiltered:
    """max_count = 0: every misprediction replaces the prediction."""

    def test_empty_predicts_nothing(self):
        assert stored(depth_one()) is None

    def test_first_training_installs_prediction(self):
        predictor = depth_one()
        train(predictor, PATTERN, B)
        assert stored(predictor) == B
        assert predictor.predict(BLOCK) is None  # history is now (B,)
        predictor.update(BLOCK, A)
        assert predictor.predict(BLOCK) == B

    def test_miss_replaces_immediately(self):
        predictor = depth_one()
        train(predictor, PATTERN, B)
        train(predictor, PATTERN, C)
        assert stored(predictor) == C

    def test_patterns_are_independent(self):
        predictor = depth_one()
        train(predictor, (A,), B)
        train(predictor, (B,), C)
        assert stored(predictor, (A,)) == B
        assert stored(predictor, (B,)) == C
        assert len(predictor.pattern_table(BLOCK)) == 2


class TestFiltered:
    """The paper's single-sided saturating counter (Section 3.6)."""

    def test_one_noise_event_does_not_flip(self):
        predictor = depth_one(filter_max_count=1)
        train(predictor, PATTERN, B)
        train(predictor, PATTERN, B)  # counter -> 1
        train(predictor, PATTERN, C)  # noise: counter -> 0, prediction kept
        assert predictor.pattern_table(BLOCK)[PATTERN] == (B, 0)

    def test_two_consecutive_misses_flip(self):
        predictor = depth_one(filter_max_count=1)
        train(predictor, PATTERN, B)
        train(predictor, PATTERN, B)
        train(predictor, PATTERN, C)
        train(predictor, PATTERN, C)
        assert stored(predictor) == C

    def test_counter_saturates_at_max(self):
        predictor = depth_one(filter_max_count=2)
        train(predictor, PATTERN, B)
        for _ in range(10):
            train(predictor, PATTERN, B)  # saturates at 2, not 10
        assert predictor.pattern_table(BLOCK)[PATTERN] == (B, 2)
        train(predictor, PATTERN, C)
        train(predictor, PATTERN, C)
        assert stored(predictor) == B  # survived two misses
        train(predictor, PATTERN, C)
        assert stored(predictor) == C  # third miss flips

    def test_fresh_entry_flips_after_needed_misses(self):
        # A brand-new entry has counter 0: with max_count=1 a single miss
        # replaces it (counter never got confirmations).
        predictor = depth_one(filter_max_count=1)
        train(predictor, PATTERN, B)
        train(predictor, PATTERN, C)
        assert stored(predictor) == C


class TestTrainEntry:
    """The filter rule as the variants apply it to ``[word, counter]``."""

    def test_confirmation_saturates(self):
        entry = [pack(B), 0]
        for _ in range(3):
            train_entry(entry, pack(B), 2)
        assert entry == [pack(B), 2]

    def test_miss_decrements_then_replaces(self):
        entry = [pack(B), 1]
        train_entry(entry, pack(C), 1)
        assert entry == [pack(B), 0]
        train_entry(entry, pack(C), 1)
        assert entry == [pack(C), 0]


class TestReader:
    def test_contents(self):
        predictor = depth_one()
        train(predictor, PATTERN, B)
        table = predictor.pattern_table(BLOCK)
        assert PATTERN in table
        assert (B,) not in table
        assert table[PATTERN] == (B, 0)

    def test_is_a_copy(self):
        predictor = depth_one()
        train(predictor, PATTERN, B)
        predictor.pattern_table(BLOCK)[PATTERN] = (C, 0)
        assert stored(predictor) == B
