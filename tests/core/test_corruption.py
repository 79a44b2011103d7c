"""Predictor-state corruption: injection, parity detection, relearning.

Corruption must degrade accuracy gracefully, never correctness: a
flipped bit is caught by parity on next use (dropped and relearned), a
lost entry is relearned cold, and a fault-free predictor holds no parity
state at all.
"""

import pickle

import pytest

from repro.core.config import CosmosConfig
from repro.core.corruption import (
    CorruptionInjector,
    CorruptionProfile,
    flip_sender_bit,
    tuple_parity,
)
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import SENDER_BITS
from repro.errors import ConfigError
from repro.protocol.messages import MessageType
from repro.sim.faults import FaultProfile

GET = MessageType.GET_RO_REQUEST
PUT = MessageType.UPGRADE_REQUEST


class TestParityPrimitives:
    def test_parity_is_stable_and_binary(self):
        for sender in (0, 1, 5, 2**SENDER_BITS - 1):
            parity = tuple_parity((sender, GET))
            assert parity in (0, 1)
            assert parity == tuple_parity((sender, GET))

    @pytest.mark.parametrize("bit", [0, 3, SENDER_BITS - 1])
    def test_single_flip_always_changes_parity(self, bit):
        tup = (5, GET)
        flipped = flip_sender_bit(tup, bit)
        assert flipped != tup
        assert flipped[1] is GET
        assert tuple_parity(flipped) != tuple_parity(tup)
        # Flipping the same bit twice restores the tuple.
        assert flip_sender_bit(flipped, bit) == tup

    def test_bit_index_is_range_checked(self):
        with pytest.raises(ConfigError, match="out of range"):
            flip_sender_bit((0, GET), SENDER_BITS)
        with pytest.raises(ConfigError, match="out of range"):
            flip_sender_bit((0, GET), -1)


class TestProfile:
    def test_probabilities_are_validated(self):
        CorruptionProfile(flip=0.5, loss=0.0)  # fine
        with pytest.raises(ConfigError):
            CorruptionProfile(flip=1.0)
        with pytest.raises(ConfigError):
            CorruptionProfile(loss=-0.1)

    def test_is_active(self):
        assert not CorruptionProfile().is_active
        assert CorruptionProfile(flip=0.01).is_active
        assert CorruptionProfile(loss=0.01).is_active

    def test_from_faults(self):
        assert CorruptionProfile.from_faults(None) is None
        assert CorruptionProfile.from_faults(FaultProfile()) is None
        assert CorruptionProfile.from_faults(FaultProfile(drop=0.1)) is None
        profile = CorruptionProfile.from_faults(
            FaultProfile(flip=0.02, loss=0.005)
        )
        assert profile == CorruptionProfile(flip=0.02, loss=0.005)

    def test_fault_profile_corruption_axis(self):
        corrupting = FaultProfile.parse("flip=0.02,loss=0.005")
        assert corrupting.corrupts_predictor
        # Corruption perturbs predictor SRAM, not message delivery: a
        # corruption-only profile keeps the reliable network (and the
        # golden traces) untouched.
        assert not corrupting.is_active
        assert FaultProfile.parse(corrupting.spec()) == corrupting
        assert not FaultProfile.parse("light").corrupts_predictor


def _armed_predictor(flip=0.0, loss=0.0, seed=0, **config_kwargs):
    config_kwargs.setdefault("depth", 1)
    config = CosmosConfig(filter_max_count=0, **config_kwargs)
    injector = CorruptionInjector(
        CorruptionProfile(flip=flip, loss=loss), seed=seed
    )
    return CosmosPredictor(config, corruption=injector)


def _trained():
    """An armed depth-1 predictor (zero rates: manual corruption only)
    whose block 0 has learned ``(1, GET) -> (1, GET)``."""
    predictor = _armed_predictor()
    for _ in range(3):
        predictor.observe(0, (1, GET))
    return predictor


class TestParityStructures:
    """Parity on the flat words, driven through the predictor.

    ``corrupt(block, index, bit)`` flips one stored tuple: MHR slots
    first (oldest first), then PHT predictions in insertion order.
    """

    def test_mhr_detects_a_flip_and_heals_by_shifting(self):
        predictor = _armed_predictor(depth=2)
        predictor.update(0, (1, GET))
        predictor.update(0, (2, PUT))
        predictor.corrupt(0, 0, bit=3)
        # Shifting twice replaces every slot with freshly-stored tuples
        # (and freshly-derived parity): the register heals.
        predictor.update(0, (3, GET))
        predictor.update(0, (4, GET))
        predictor.predict(0)
        assert predictor.corrupt_detected == 0
        assert predictor.history(0) is not None
        # A flip that is not shifted out is caught on the next read.
        predictor.corrupt(0, 1, bit=3)
        assert predictor.predict(0) is None
        assert predictor.corrupt_detected == 1
        assert predictor.history(0) is None

    def test_pht_entry_detects_a_flip(self):
        predictor = _trained()
        assert predictor.predict(0) == (1, GET)
        predictor.corrupt(0, 1, bit=1)  # slot 0 is the MHR's one tuple
        assert predictor.predict(0) is None
        assert predictor.corrupt_detected == 1
        assert ((1, GET),) not in predictor.pattern_table(0)

    def test_pht_entry_self_heals_on_confirmation(self):
        predictor = _trained()
        predictor.corrupt(0, 1, bit=1)
        corrupted = flip_sender_bit((1, GET), 1)
        # Training with the (corrupted) current prediction confirms it:
        # the parity is re-derived from fresh data and the entry is
        # internally consistent again -- the defense catches *flips
        # after store*, not bad training data.
        predictor.update(0, corrupted)
        predictor.update(0, (1, GET))  # back to the corrupted pattern
        assert predictor.predict(0) == corrupted
        assert predictor.corrupt_detected == 0

    def test_pht_entry_heals_on_replacement(self):
        predictor = _trained()
        predictor.corrupt(0, 1, bit=1)
        predictor.update(0, (6, PUT))  # counter 0: replaced outright
        predictor.update(0, (1, GET))  # back to the replaced pattern
        assert predictor.predict(0) == (6, PUT)
        assert predictor.corrupt_detected == 0

    def test_latent_corruption_survives_a_snapshot_round_trip(self):
        predictor = _trained()
        predictor.corrupt(0, 1, bit=1)
        restored = pickle.loads(pickle.dumps(predictor))
        assert pickle.dumps(restored) == pickle.dumps(predictor)
        assert restored.predict(0) is None
        assert restored.corrupt_detected == 1

    def test_corrupt_index_is_range_checked(self):
        predictor = _trained()
        with pytest.raises(IndexError):
            predictor.corrupt(0, 2, bit=0)
        with pytest.raises(ConfigError, match="out of range"):
            predictor.corrupt(0, 0, bit=SENDER_BITS)


class TestPredictorDetection:
    def test_unarmed_predictor_holds_no_parity_state(self):
        plain = CosmosPredictor(CosmosConfig(depth=1))
        for tup in ((1, GET), (2, GET), (1, GET)):
            plain.observe(0, tup)
        assert plain._parity is None
        assert b"ParityTables" not in pickle.dumps(plain)
        armed = _trained()
        assert armed._parity is not None
        assert b"ParityTables" in pickle.dumps(armed)

    def test_corrupted_mhr_is_dropped_and_relearned(self):
        predictor = _trained()
        assert predictor.predict(0) == (1, GET)
        predictor.corrupt(0, 0, bit=2)
        # Parity catches the flip on next use: no prediction served...
        assert predictor.predict(0) is None
        assert predictor.corrupt_detected == 1
        assert predictor.history(0) is None  # register dropped
        # ...and one observation relearns the history (PHT survived).
        predictor.observe(0, (1, GET))
        assert predictor.predict(0) == (1, GET)

    def test_corrupted_pht_entry_is_dropped_and_relearned(self):
        predictor = _trained()
        pattern = ((1, GET),)
        predictor.corrupt(0, 1, bit=0)
        assert predictor.predict(0) is None
        assert predictor.corrupt_detected == 1
        assert pattern not in predictor.pattern_table(0)
        observation = predictor.observe(0, (1, GET))
        assert observation.predicted is None  # still relearning
        assert predictor.predict(0) == (1, GET)  # relearned

    def test_injection_is_seed_deterministic(self):
        def run(seed):
            predictor = _armed_predictor(flip=0.2, loss=0.05, seed=seed)
            for step in range(400):
                predictor.observe((step % 8) * 128, (step % 4, GET))
            return (
                predictor.corrupt_flips,
                predictor.corrupt_losses,
                predictor.corrupt_detected,
                predictor.hits,
                predictor.predictions,
            )

        assert run(7) == run(7)
        assert run(7) != run(8)
        flips, losses, detected, _hits, _predictions = run(7)
        assert flips > 0 and losses > 0
        assert detected > 0

    def test_corruption_costs_accuracy_not_correctness(self):
        clean = CosmosPredictor(CosmosConfig(depth=1))
        noisy = _armed_predictor(flip=0.2, loss=0.1, seed=3)
        for step in range(400):
            block, actual = (step % 8) * 128, (step % 4, GET)
            clean.observe(block, actual)
            noisy.observe(block, actual)
        assert 0.0 < noisy.accuracy < clean.accuracy
