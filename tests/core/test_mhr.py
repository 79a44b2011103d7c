"""Tests for the Message History Register, read through
:meth:`CosmosPredictor.history`, and the pattern-word shift."""

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import TUPLE_BITS, pack, pack_pattern, shift_history
from repro.protocol.messages import MessageType

BLOCK = 0x40
A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.GET_RO_REQUEST)
C = (1, MessageType.UPGRADE_REQUEST)


def fed(depth, *stream):
    predictor = CosmosPredictor(CosmosConfig(depth=depth))
    for tup in stream:
        predictor.update(BLOCK, tup)
    return predictor


class TestShiftRegister:
    def test_starts_empty(self):
        predictor = fed(2)
        assert predictor.history(BLOCK) is None
        assert predictor.predict(BLOCK) is None

    def test_fills_to_depth(self):
        predictor = fed(2, A)
        assert predictor.history(BLOCK) == (A,)
        assert predictor.pattern_table(BLOCK) is None
        predictor.update(BLOCK, B)
        assert predictor.history(BLOCK) == (A, B)
        # The full register indexes the PHT on the next reference.
        predictor.update(BLOCK, C)
        assert predictor.pattern_table(BLOCK) == {(A, B): (C, 0)}

    def test_oldest_drops_first(self):
        assert fed(2, A, B, C).history(BLOCK) == (B, C)

    def test_depth_one(self):
        predictor = fed(1, A)
        assert predictor.history(BLOCK) == (A,)
        predictor.update(BLOCK, B)
        assert predictor.history(BLOCK) == (B,)

    def test_history_shows_partial(self):
        assert fed(3, A).history(BLOCK) == (A,)

    def test_history_is_a_value(self):
        predictor = fed(1, A)
        history = predictor.history(BLOCK)
        predictor.update(BLOCK, B)
        assert history == (A,)  # earlier value unaffected

    def test_blocks_keep_separate_registers(self):
        predictor = fed(2, A, B)
        predictor.update(BLOCK + 0x40, C)
        assert predictor.history(BLOCK) == (A, B)
        assert predictor.history(BLOCK + 0x40) == (C,)


class TestShiftHistory:
    def test_fills_then_drops_oldest(self):
        full_at = 1 << (TUPLE_BITS * 2)
        history = 1
        for tup in (A, B, C):
            history = shift_history(history, pack(tup), full_at)
        assert history == pack_pattern((B, C))

    def test_partial_history_keeps_every_tuple(self):
        full_at = 1 << (TUPLE_BITS * 3)
        history = shift_history(1, pack(A), full_at)
        assert history == pack_pattern((A,))
