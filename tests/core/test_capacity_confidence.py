"""Tests for bounded-capacity and confidence-gated Cosmos."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.errors import ConfigError
from repro.protocol.messages import MessageType

A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.INVAL_RO_RESPONSE)


def blocks(n):
    return [0x40 * (i + 1) for i in range(n)]


class TestConfigValidation:
    def test_capacity_positive(self):
        with pytest.raises(ConfigError):
            CosmosConfig(mhr_capacity=-1)

    def test_threshold_nonnegative(self):
        with pytest.raises(ConfigError):
            CosmosConfig(confidence_threshold=-1)

    def test_threshold_bounded_by_filter(self):
        with pytest.raises(ConfigError):
            CosmosConfig(filter_max_count=1, confidence_threshold=2)
        CosmosConfig(filter_max_count=2, confidence_threshold=2)  # ok


class TestBoundedCapacity:
    def test_capacity_enforced_lru(self):
        predictor = CosmosPredictor(CosmosConfig(mhr_capacity=2))
        b = blocks(3)
        predictor.update(b[0], A)
        predictor.update(b[1], A)
        predictor.update(b[2], A)  # evicts b[0]
        assert predictor.mhr_entries == 2
        assert predictor.evictions_mhr == 1
        assert predictor.history(b[0]) is None
        assert predictor.history(b[1]) is not None

    def test_recency_updated_on_touch(self):
        predictor = CosmosPredictor(CosmosConfig(mhr_capacity=2))
        b = blocks(3)
        predictor.update(b[0], A)
        predictor.update(b[1], A)
        predictor.update(b[0], B)  # b[0] becomes most recent
        predictor.update(b[2], A)  # evicts b[1], not b[0]
        assert predictor.history(b[0]) is not None
        assert predictor.history(b[1]) is None

    def test_eviction_drops_patterns_too(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1, mhr_capacity=1))
        block_a, block_b = blocks(2)
        for _ in range(4):
            predictor.update(block_a, A)
        assert predictor.pattern_table(block_a) is not None
        predictor.update(block_b, B)
        assert predictor.pattern_table(block_a) is None
        # Relearning starts cold.
        assert predictor.predict(block_a) is None

    def test_unbounded_by_default(self):
        predictor = CosmosPredictor(CosmosConfig())
        for block in blocks(100):
            predictor.update(block, A)
        assert predictor.mhr_entries == 100
        assert predictor.evictions_mhr == 0

    def test_thrashing_hurts_accuracy(self):
        big = CosmosPredictor(CosmosConfig(depth=1, mhr_capacity=64))
        tiny = CosmosPredictor(CosmosConfig(depth=1, mhr_capacity=2))
        b = blocks(8)
        for _ in range(10):
            for block in b:  # round-robin over 8 blocks
                for tup in (A, B):
                    big.observe(block, tup)
                    tiny.observe(block, tup)
        assert big.accuracy > tiny.accuracy


class TestConfidenceGating:
    def test_silent_until_confident(self):
        config = CosmosConfig(
            depth=1, filter_max_count=2, confidence_threshold=2
        )
        predictor = CosmosPredictor(config)
        block = 0x40
        predictor.update(block, A)  # fill MHR
        predictor.update(block, A)  # PHT[A]=A, counter 0
        assert predictor.predict(block) is None  # counter 0 < 2
        predictor.update(block, A)  # counter 1
        assert predictor.predict(block) is None
        predictor.update(block, A)  # counter 2
        assert predictor.predict(block) == A

    def test_gating_raises_precision_on_mixed_blocks(self):
        # Confidence gating pays off when blocks are heterogeneous: it
        # keeps predicting the stable block and goes quiet on the
        # unpredictable one.  (On i.i.d. noise within one block it buys
        # nothing -- the conditional accuracy is streak-independent.)
        import random

        rng = random.Random(0)
        plain = CosmosPredictor(CosmosConfig(depth=1, filter_max_count=2))
        gated = CosmosPredictor(
            CosmosConfig(depth=1, filter_max_count=2, confidence_threshold=2)
        )
        stable, noisy = 0x40, 0x80
        for _ in range(300):
            for block, tup in (
                (stable, A),
                (noisy, A if rng.random() < 0.5 else B),
            ):
                plain.observe(block, tup)
                gated.observe(block, tup)

        def precision(predictor):
            return (
                predictor.hits / predictor.predictions
                if predictor.predictions
                else 0.0
            )

        assert gated.predictions < plain.predictions  # lower coverage
        assert precision(gated) > precision(plain) + 0.05

    def test_zero_threshold_predicts_always(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        block = 0x40
        predictor.update(block, A)
        predictor.update(block, A)
        assert predictor.predict(block) == A
