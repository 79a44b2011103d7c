"""Tests for the Cosmos predictor (the paper's Section 3 examples)."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.protocol.messages import MessageType

BLOCK = 0x40
OTHER = 0x80

# The paper's Figure 3b example: at the directory, a get_ro_request from
# P1 is followed by an inval_ro_response from P2.
GET_P1 = (1, MessageType.GET_RO_REQUEST)
INV_P2 = (2, MessageType.INVAL_RO_RESPONSE)
GET_P2 = (2, MessageType.GET_RO_REQUEST)
GET_P3 = (3, MessageType.GET_RO_REQUEST)


class TestBasicOperation:
    def test_no_prediction_before_history(self):
        predictor = CosmosPredictor()
        assert predictor.predict(BLOCK) is None

    def test_figure3_example(self):
        # After observing GET_P1 -> INV_P2 once, seeing GET_P1 again
        # predicts INV_P2.
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        predictor.update(BLOCK, GET_P1)
        predictor.update(BLOCK, INV_P2)
        predictor.update(BLOCK, GET_P1)
        assert predictor.predict(BLOCK) == INV_P2

    def test_blocks_are_independent(self):
        predictor = CosmosPredictor()
        predictor.update(BLOCK, GET_P1)
        predictor.update(BLOCK, INV_P2)
        predictor.update(OTHER, GET_P1)
        predictor.update(OTHER, GET_P3)
        predictor.update(BLOCK, GET_P1)
        predictor.update(OTHER, GET_P1)
        assert predictor.predict(BLOCK) == INV_P2
        assert predictor.predict(OTHER) == GET_P3

    def test_periodic_stream_learned_perfectly(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        cycle = [GET_P1, INV_P2, GET_P2]
        hits = 0
        for repeat in range(10):
            for tup in cycle:
                observation = predictor.observe(BLOCK, tup)
                if repeat >= 2:
                    assert observation.hit
                hits += observation.hit
        assert predictor.accuracy > 0.7

    @pytest.mark.parametrize("packed", [False, True], ids=["tuple", "word"])
    def test_depth2_learns_a_five_message_cycle(self, packed):
        cycle = [GET_P1, INV_P2, (1, MessageType.UPGRADE_REQUEST), GET_P2,
                 (1, MessageType.INVAL_RW_RESPONSE)]
        predictor = CosmosPredictor(CosmosConfig(depth=2))
        observe = predictor.observe_word if packed else predictor.observe
        for tup in cycle * 200:
            observe(BLOCK, pack(tup) if packed else tup)
        assert predictor.accuracy > 0.9


class TestSection35Adaptation:
    """The paper's out-of-order consumer example."""

    def test_depth1_handles_two_orderings(self):
        # With depth 1, PHT learns GET_P1 -> GET_P2 and GET_P2 -> GET_P1,
        # predicting the *other* consumer regardless of order.
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        predictor.update(BLOCK, GET_P1)
        predictor.update(BLOCK, GET_P2)
        predictor.update(BLOCK, GET_P1)
        assert predictor.predict(BLOCK) == GET_P2
        predictor.update(BLOCK, GET_P2)
        assert predictor.predict(BLOCK) == GET_P1

    def test_depth2_disambiguates_three_consumers(self):
        # The paper's depth-2 example: three get_ro_requests arriving in
        # rotating orders; depth 2 predicts the third from the first two.
        predictor = CosmosPredictor(CosmosConfig(depth=2))
        marker = (0, MessageType.INVAL_RW_RESPONSE)
        orders = [
            [GET_P1, GET_P2, GET_P3],
            [GET_P2, GET_P1, GET_P3],
            [GET_P3, GET_P1, GET_P2],
        ]
        # Train each ordering a few times, separated by a marker message.
        for _ in range(3):
            for order in orders:
                for tup in order:
                    predictor.update(BLOCK, tup)
                predictor.update(BLOCK, marker)
        # Now: having seen (GET_P2, GET_P1), the third must be GET_P3.
        predictor.update(BLOCK, GET_P2)
        predictor.update(BLOCK, GET_P1)
        assert predictor.predict(BLOCK) == GET_P3
        # Whereas (GET_P3, GET_P1) implies GET_P2.
        predictor.update(BLOCK, GET_P3)


class TestStatistics:
    def test_no_prediction_counts_as_miss(self):
        predictor = CosmosPredictor()
        predictor.observe(BLOCK, GET_P1)  # no history -> no prediction
        assert predictor.no_prediction == 1
        assert predictor.accuracy == 0.0

    def test_hit_accounting(self):
        predictor = CosmosPredictor()
        for _ in range(3):
            predictor.observe(BLOCK, GET_P1)
        # First: no prediction; second: PHT empty -> no prediction;
        # third: predicts GET_P1 -> hit.
        assert predictor.hits == 1
        assert predictor.predictions == 1
        assert predictor.no_prediction == 2

    def test_observation_hit_requires_full_tuple(self):
        predictor = CosmosPredictor()
        predictor.update(BLOCK, GET_P1)
        predictor.update(BLOCK, GET_P2)
        predictor.update(BLOCK, GET_P1)
        observation = predictor.observe(BLOCK, GET_P3)
        assert not observation.hit
        assert observation.type_hit  # type matched, sender did not


class TestMemoryIntrospection:
    def test_mhr_entries_count_blocks(self):
        predictor = CosmosPredictor()
        predictor.update(BLOCK, GET_P1)
        predictor.update(OTHER, GET_P1)
        assert predictor.mhr_entries == 2

    def test_pht_allocated_only_beyond_depth(self):
        # A block with exactly `depth` references never allocates a PHT
        # (the Table 7 footnote rule).
        predictor = CosmosPredictor(CosmosConfig(depth=2))
        predictor.update(BLOCK, GET_P1)
        predictor.update(BLOCK, GET_P2)
        assert predictor.pht_entries == 0
        predictor.update(BLOCK, GET_P3)
        assert predictor.pht_entries == 1

    def test_pht_entries_accumulate_distinct_patterns(self):
        predictor = CosmosPredictor(CosmosConfig(depth=1))
        for tup in (GET_P1, GET_P2, GET_P3, GET_P1):
            predictor.update(BLOCK, tup)
        # Patterns seen: (GET_P1,), (GET_P2,), (GET_P3,) -> 3 entries.
        assert predictor.pht_entries == 3

    def test_blocks_listing(self):
        predictor = CosmosPredictor()
        predictor.update(BLOCK, GET_P1)
        assert predictor.blocks() == (BLOCK,)


class TestDefaultConfigIsolation:
    """Default-constructed predictors must not share any state.

    ``config: CosmosConfig = CosmosConfig()`` in a signature is evaluated
    once at definition time; every default-constructed predictor would
    then share one module-level config instance.  The constructor now
    builds a fresh config per predictor.
    """

    def test_two_default_predictors_do_not_alias(self):
        first = CosmosPredictor()
        second = CosmosPredictor()
        assert first.config is not second.config
        assert first._mht is not second._mht
        assert first._phts is not second._phts

    def test_training_one_leaves_the_other_empty(self):
        first = CosmosPredictor()
        second = CosmosPredictor()
        for tup in (GET_P1, INV_P2, GET_P1):
            first.update(BLOCK, tup)
        assert first.mhr_entries == 1
        assert second.mhr_entries == 0
        assert second.predict(BLOCK) is None

    def test_default_constructed_helpers_do_not_alias(self):
        from repro.core.bank import PredictorBank
        from repro.predictors.set_predictor import SetCosmos
        from repro.predictors.variants import GlobalHistoryCosmos, TypeOnlyCosmos

        for cls in (PredictorBank, SetCosmos,
                    TypeOnlyCosmos, GlobalHistoryCosmos):
            first, second = cls(), cls()
            assert first.config is not second.config, cls.__name__

    def test_explicit_config_still_honoured(self):
        config = CosmosConfig(depth=3)
        predictor = CosmosPredictor(config)
        assert predictor.config is config
