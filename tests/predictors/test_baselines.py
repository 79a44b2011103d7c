"""Tests for the simple baseline predictors."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.evaluation import evaluate_trace
from repro.core.predictor import CosmosPredictor
from repro.experiments.common import get_trace
from repro.predictors.last_message import LastMessagePredictor
from repro.predictors.most_common import MostCommonPredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.static import StaticSignaturePredictor
from repro.protocol.messages import MessageType

A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.INVAL_RO_RESPONSE)
C = (3, MessageType.UPGRADE_REQUEST)
BLOCK = 0x40


class TestLastMessage:
    def test_predicts_last(self):
        predictor = LastMessagePredictor()
        assert predictor.predict(BLOCK) is None
        predictor.update(BLOCK, A)
        assert predictor.predict(BLOCK) == A
        predictor.update(BLOCK, B)
        assert predictor.predict(BLOCK) == B

    def test_perfect_on_constant_stream(self):
        predictor = LastMessagePredictor()
        for _ in range(10):
            predictor.observe(BLOCK, A)
        assert predictor.hits == 9

    def test_zero_on_alternating_stream(self):
        predictor = LastMessagePredictor()
        for _ in range(5):
            predictor.observe(BLOCK, A)
            predictor.observe(BLOCK, B)
        assert predictor.hits == 0


class TestMostCommon:
    def test_predicts_mode(self):
        predictor = MostCommonPredictor()
        for tup in (A, A, B):
            predictor.update(BLOCK, tup)
        assert predictor.predict(BLOCK) == A

    def test_mode_shifts_when_overtaken(self):
        predictor = MostCommonPredictor()
        for tup in (A, B, B):
            predictor.update(BLOCK, tup)
        assert predictor.predict(BLOCK) == B

    def test_ties_keep_earlier_mode(self):
        predictor = MostCommonPredictor()
        predictor.update(BLOCK, A)
        predictor.update(BLOCK, B)
        assert predictor.predict(BLOCK) == A

    def test_per_block_modes(self):
        predictor = MostCommonPredictor()
        predictor.update(BLOCK, A)
        predictor.update(0x80, B)
        assert predictor.predict(BLOCK) == A
        assert predictor.predict(0x80) == B


class TestStaticSignature:
    def test_follows_cycle(self):
        predictor = StaticSignaturePredictor([A, B, C])
        predictor.update(BLOCK, A)
        assert predictor.predict(BLOCK) == B
        predictor.update(BLOCK, B)
        assert predictor.predict(BLOCK) == C
        predictor.update(BLOCK, C)
        assert predictor.predict(BLOCK) == A  # wraps

    def test_perfect_on_its_signature(self):
        predictor = StaticSignaturePredictor([A, B, C])
        for _ in range(4):
            for tup in (A, B, C):
                predictor.observe(BLOCK, tup)
        assert predictor.hits == 11  # all but the first reference

    def test_silent_off_signature(self):
        predictor = StaticSignaturePredictor([A, B])
        predictor.update(BLOCK, C)
        assert predictor.predict(BLOCK) is None

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            StaticSignaturePredictor([])


class TestOracle:
    def test_perfect_when_primed(self):
        oracle = OraclePredictor()
        stream = [A, B, C, A, B, C]
        oracle.prime(BLOCK, stream)
        for tup in stream:
            assert oracle.predict(BLOCK) == tup
            oracle.observe(BLOCK, tup)
        assert oracle.hits == len(stream)

    def test_unprimed_is_silent(self):
        oracle = OraclePredictor()
        assert oracle.predict(BLOCK) is None

    def test_survives_divergence(self):
        oracle = OraclePredictor()
        oracle.prime(BLOCK, [A, B])
        oracle.observe(BLOCK, C)  # not what was primed: queue unchanged
        assert oracle.predict(BLOCK) == A


class TestBaseStatistics:
    def test_precision_and_coverage(self):
        predictor = LastMessagePredictor()
        predictor.observe(BLOCK, A)  # no prediction
        predictor.observe(BLOCK, A)  # hit
        predictor.observe(BLOCK, B)  # miss
        assert predictor.accuracy == pytest.approx(1 / 3)
        assert predictor.precision == pytest.approx(1 / 2)
        assert predictor.coverage == pytest.approx(2 / 3)

    def test_empty_statistics(self):
        predictor = LastMessagePredictor()
        assert predictor.accuracy == 0.0
        assert predictor.precision == 0.0
        assert predictor.coverage == 0.0


class TestAgainstCosmos:
    def test_cosmos_beats_both_on_unstructured(self):
        """History-free baselines cannot follow unstructured's composite
        migratory/producer-consumer pattern; depth-2 Cosmos can."""
        events = get_trace("unstructured", seed=0, quick=True)

        def accuracy(factory):
            return evaluate_trace(
                events, predictor_factory=factory, track_arcs=False
            ).overall_accuracy

        cosmos = accuracy(lambda: CosmosPredictor(CosmosConfig(depth=2)))
        assert cosmos > accuracy(LastMessagePredictor)
        assert cosmos > accuracy(MostCommonPredictor)
