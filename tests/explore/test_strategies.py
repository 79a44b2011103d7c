"""Delivery-order policies: determinism, ranges, snapshots, replay."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.explore.strategies import (
    DEFER_REST,
    STRATEGIES,
    DelayBoundedPolicy,
    DeliveryPolicy,
    FifoPolicy,
    PCTPolicy,
    RandomWalkPolicy,
    ReplayPolicy,
    make_policy,
)
from repro.protocol.messages import Message, MessageType


def _msg(block=0):
    return Message(
        src=0, dst=1, mtype=MessageType.GET_RO_REQUEST, block=block
    )


def _enabled(n):
    return tuple((seq, _msg(block=seq * 64), 0) for seq in range(n))


def _drive(policy, pools):
    """Feed a fixed sequence of pool sizes; return the decisions."""
    decisions = []
    seq = 0
    for size in pools:
        enabled = _enabled(size)
        for entry in enabled[seq:]:
            policy.on_admit(entry[0], entry[1])
        decisions.append(policy.decide(enabled))
    return decisions


class TestFactory:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_build(self, strategy):
        policy = make_policy(strategy, seed=3)
        assert isinstance(policy, DeliveryPolicy)
        assert policy.describe()["name"] == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            make_policy("chaos-monkey")


class TestFifo:
    def test_always_delivers_head(self):
        policy = FifoPolicy()
        for size in (1, 2, 5):
            assert policy.decide(_enabled(size)) == 0


class TestRandomWalk:
    def test_deterministic_per_seed(self):
        pools = [3, 3, 4, 2, 5, 1, 4, 4, 2, 3]
        a = _drive(RandomWalkPolicy(seed=11), pools)
        b = _drive(RandomWalkPolicy(seed=11), pools)
        assert a == b
        c = _drive(RandomWalkPolicy(seed=12), pools)
        assert a != c  # overwhelmingly likely for 10 draws

    def test_decisions_in_range(self):
        policy = RandomWalkPolicy(seed=5, defer_prob=0.5)
        for _ in range(200):
            decision = policy.decide(_enabled(4))
            assert decision == DEFER_REST or 0 <= decision < 4

    def test_singleton_pool_never_deferred(self):
        policy = RandomWalkPolicy(seed=5, defer_prob=0.99)
        assert all(
            policy.decide(_enabled(1)) == 0 for _ in range(50)
        )


class TestPCT:
    def test_deterministic_per_seed(self):
        pools = [4, 4, 3, 5, 2, 4, 1, 3, 3, 4]
        assert _drive(PCTPolicy(seed=7), pools) == _drive(
            PCTPolicy(seed=7), pools
        )

    def test_decisions_are_valid_indices(self):
        policy = PCTPolicy(seed=1, change_points=2, horizon=20)
        for size in [3, 4, 2, 5, 3] * 10:
            decision = policy.decide(_enabled(size))
            assert 0 <= decision < size

    def test_snapshot_restore_resumes_identically(self):
        pools = [4, 3, 5, 2, 4, 3, 4, 5, 2, 3]
        policy = PCTPolicy(seed=9, change_points=3, horizon=30)
        _drive(policy, pools[:4])
        snapshot = pickle.dumps(policy)
        tail = _drive(policy, pools[4:])

        assert _drive(pickle.loads(snapshot), pools[4:]) == tail


class TestDelayBounded:
    def test_exposes_structural_cap(self):
        assert DelayBoundedPolicy(seed=0, bound=2).defer_cap == 2

    def test_only_head_or_defer(self):
        policy = DelayBoundedPolicy(seed=3, defer_prob=0.5)
        for _ in range(100):
            assert policy.decide(_enabled(3)) in (0, DEFER_REST)


class TestReplay:
    def test_replays_the_log_verbatim(self):
        policy = ReplayPolicy([2, 0, DEFER_REST, 1])
        assert policy.decide(_enabled(4)) == 2
        assert policy.decide(_enabled(3)) == 0
        assert policy.decide(_enabled(3)) == DEFER_REST
        assert policy.decide(_enabled(3)) == 1
        assert policy.consumed == 4

    def test_clamps_out_of_range_decisions(self):
        policy = ReplayPolicy([5])
        assert policy.decide(_enabled(2)) == 1

    def test_fifo_after_exhaustion(self):
        policy = ReplayPolicy([1])
        policy.decide(_enabled(2))
        assert policy.exhausted
        assert policy.decide(_enabled(3)) == 0
        assert policy.consumed == 1
