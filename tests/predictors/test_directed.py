"""Tests for the directed (migratory / DSI) predictors."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.predictors.dsi import DSIPredictor
from repro.predictors.migratory import MigratoryPredictor
from repro.protocol.messages import MessageType

HOME = 0
BLOCK = 0x40

GET_RO = (HOME, MessageType.GET_RO_RESPONSE)
GET_RW = (HOME, MessageType.GET_RW_RESPONSE)
UPGRADE = (HOME, MessageType.UPGRADE_RESPONSE)
INVAL_RW = (HOME, MessageType.INVAL_RW_REQUEST)
INVAL_RO = (HOME, MessageType.INVAL_RO_REQUEST)


class TestMigratory:
    def test_triggers_on_figure8b_signature(self):
        predictor = MigratoryPredictor()
        predictor.update(BLOCK, GET_RO)
        predictor.update(BLOCK, UPGRADE)
        assert predictor.predict(BLOCK) == INVAL_RW

    def test_silent_off_signature(self):
        predictor = MigratoryPredictor()
        predictor.update(BLOCK, GET_RW)
        assert predictor.predict(BLOCK) is None
        predictor.update(BLOCK, INVAL_RW)
        assert predictor.predict(BLOCK) is None

    def test_reacquire_option(self):
        silent = MigratoryPredictor(predict_reacquire=False)
        chatty = MigratoryPredictor(predict_reacquire=True)
        for predictor in (silent, chatty):
            predictor.update(BLOCK, GET_RO)
            predictor.update(BLOCK, UPGRADE)
            predictor.update(BLOCK, INVAL_RW)
        assert silent.predict(BLOCK) is None
        assert chatty.predict(BLOCK) == GET_RO

    def test_perfect_on_pure_migration(self):
        predictor = MigratoryPredictor(predict_reacquire=True)
        cycle = [GET_RO, UPGRADE, INVAL_RW]
        for _ in range(5):
            for tup in cycle:
                predictor.observe(BLOCK, tup)
        # Predicts 2 of every 3 messages (silent on upgrade_response).
        assert predictor.precision == 1.0
        assert predictor.coverage == pytest.approx(9 / 15)


class TestDSI:
    def test_triggers_on_figure8a_signature(self):
        predictor = DSIPredictor(history_needed=0)
        predictor.update(BLOCK, GET_RW)
        assert predictor.predict(BLOCK) == INVAL_RW

    def test_confidence_threshold(self):
        predictor = DSIPredictor(history_needed=1)
        predictor.update(BLOCK, GET_RW)
        assert predictor.predict(BLOCK) is None  # unproven
        predictor.update(BLOCK, INVAL_RW)  # first confirmation
        predictor.update(BLOCK, GET_RW)
        assert predictor.predict(BLOCK) == INVAL_RW

    def test_confidence_resets_on_break(self):
        predictor = DSIPredictor(history_needed=1)
        predictor.update(BLOCK, GET_RW)
        predictor.update(BLOCK, INVAL_RW)  # confirmed once
        predictor.update(BLOCK, GET_RW)
        predictor.update(BLOCK, INVAL_RO)  # pattern broken
        predictor.update(BLOCK, GET_RW)
        assert predictor.predict(BLOCK) is None

    def test_negative_history_rejected(self):
        with pytest.raises(ValueError):
            DSIPredictor(history_needed=-1)


class TestCosmosSubsumesDirected:
    """Section 7: Cosmos captures the directed predictors' signatures."""

    def test_cosmos_learns_migratory_signature(self):
        cosmos = CosmosPredictor(CosmosConfig(depth=1))
        cycle = [GET_RO, UPGRADE, INVAL_RW]
        for _ in range(2):
            for tup in cycle:
                cosmos.update(BLOCK, tup)
        cosmos.update(BLOCK, GET_RO)
        cosmos.update(BLOCK, UPGRADE)
        assert cosmos.predict(BLOCK) == INVAL_RW

    def test_cosmos_learns_dsi_signature(self):
        cosmos = CosmosPredictor(CosmosConfig(depth=1))
        cycle = [GET_RW, INVAL_RW]
        for _ in range(2):
            for tup in cycle:
                cosmos.update(BLOCK, tup)
        cosmos.update(BLOCK, GET_RW)
        assert cosmos.predict(BLOCK) == INVAL_RW

    def test_cosmos_statistics(self):
        cosmos = CosmosPredictor(CosmosConfig(depth=1))
        for _ in range(5):
            cosmos.observe(BLOCK, GET_RO)
        # First two references give no prediction (cold MHR, cold PHT);
        # the remaining three hit.
        assert cosmos.no_prediction == 2
        assert cosmos.hits == 3
        assert cosmos.accuracy == pytest.approx(3 / 5)
