"""PredictorBank checkpoint round-trips and configuration enforcement.

A bank snapshot is only meaningful under the construction parameters it
was captured with: restoring depth-2 state into a depth-3 bank would not
crash -- it would silently mis-predict.  The snapshot therefore carries a
configuration fingerprint and :meth:`PredictorBank.restore_state` raises
:class:`CheckpointError` on any mismatch.
"""

import pytest

from repro.core.bank import PredictorBank
from repro.core.config import CosmosConfig
from repro.core.corruption import CorruptionProfile
from repro.errors import CheckpointError
from repro.protocol.messages import MessageType, Role
from repro.trace.events import TraceEvent


def event(node=0, role=Role.CACHE, block=0x40, sender=1,
          mtype=MessageType.GET_RO_REQUEST):
    return TraceEvent(
        time=0, iteration=1, node=node, role=role, block=block,
        sender=sender, mtype=mtype,
    )


def trained_bank(**kwargs):
    bank = PredictorBank(**kwargs)
    stream = [
        event(sender=1, mtype=MessageType.GET_RO_REQUEST),
        event(sender=2, mtype=MessageType.INVAL_RO_RESPONSE),
        event(sender=1, mtype=MessageType.GET_RO_REQUEST),
        event(node=3, role=Role.DIRECTORY, sender=4,
              mtype=MessageType.UPGRADE_REQUEST),
    ] * 3
    for item in stream:
        bank.observe(item)
    return bank


class TestRoundTrip:
    def test_restore_recreates_identical_bank(self):
        bank = trained_bank(config=CosmosConfig(depth=2))
        state = bank.snapshot_state()
        restored = PredictorBank(config=CosmosConfig(depth=2))
        restored.restore_state(state)
        assert len(restored) == len(bank)
        assert restored.overhead == bank.overhead
        # The restored bank predicts identically on the next observation.
        probe = event(sender=2, mtype=MessageType.INVAL_RO_RESPONSE)
        assert bank.observe(probe) == restored.observe(probe)

    def test_pre_fingerprint_snapshot_restores_unchecked(self):
        bank = trained_bank()
        state = bank.snapshot_state()
        del state["fingerprint"]  # a snapshot from before enforcement
        restored = PredictorBank(config=CosmosConfig(depth=5))
        restored.restore_state(state)  # no error: nothing to check
        assert len(restored) == len(bank)


class TestFingerprintEnforcement:
    def test_config_mismatch_raises(self):
        state = trained_bank(config=CosmosConfig(depth=2)).snapshot_state()
        other = PredictorBank(config=CosmosConfig(depth=3))
        with pytest.raises(CheckpointError, match="config"):
            other.restore_state(state)

    def test_share_roles_mismatch_raises(self):
        state = trained_bank(share_roles=False).snapshot_state()
        merged = PredictorBank(share_roles=True)
        with pytest.raises(CheckpointError, match="share_roles"):
            merged.restore_state(state)

    def test_corruption_arming_mismatch_raises(self):
        state = trained_bank().snapshot_state()
        armed = PredictorBank(corruption=CorruptionProfile(flip=0.1))
        with pytest.raises(CheckpointError, match="corruption"):
            armed.restore_state(state)

    def test_corruption_seed_mismatch_raises(self):
        state = trained_bank(
            corruption=CorruptionProfile(flip=0.1), corruption_seed=1
        ).snapshot_state()
        other = PredictorBank(
            corruption=CorruptionProfile(flip=0.1), corruption_seed=2
        )
        with pytest.raises(CheckpointError, match="corruption_seed"):
            other.restore_state(state)

    def test_error_names_both_values(self):
        state = trained_bank(config=CosmosConfig(depth=2)).snapshot_state()
        other = PredictorBank(config=CosmosConfig(depth=4))
        with pytest.raises(CheckpointError, match="depth.*2.*depth.*4"):
            other.restore_state(state)

    def test_matching_bank_restores_cleanly(self):
        profile = CorruptionProfile(flip=0.05)
        state = trained_bank(
            config=CosmosConfig(depth=2),
            corruption=profile,
            corruption_seed=7,
        ).snapshot_state()
        twin = PredictorBank(
            config=CosmosConfig(depth=2),
            corruption=profile,
            corruption_seed=7,
        )
        twin.restore_state(state)
        assert len(twin) == 2


class TestRetiredKnobs:
    """Snapshots written while ``CosmosConfig`` still had ``mht_capacity``
    carry it in their fingerprint."""

    def legacy_state(self, mht_capacity):
        state = trained_bank(config=CosmosConfig(depth=2)).snapshot_state()
        state["fingerprint"]["config"]["mht_capacity"] = mht_capacity
        for record in state["predictors"]:
            record["state"]["stats"]["capacity_evictions"] = 0
        return state

    def test_unset_mht_capacity_is_ignored(self):
        bank = PredictorBank(config=CosmosConfig(depth=2))
        bank.restore_state(self.legacy_state(None))
        assert len(bank) == 2

    def test_set_mht_capacity_is_rejected_by_name(self):
        bank = PredictorBank(config=CosmosConfig(depth=2))
        with pytest.raises(CheckpointError, match="mht_capacity=16"):
            bank.restore_state(self.legacy_state(16))
