"""Memory-bounded prediction: capacity limits, eviction, and peaks.

The bounded bank has one correctness obligation above all: arming
corruption injection must be observationally neutral -- an unarmed
predictor and one armed with zero error rates make *identical* eviction
decisions (same victims, same order, same stats).  These tests pin that
differentially (hypothesis streams through both), plus the local
invariants: capacity is never exceeded after an observation,
``capacity=0`` is byte-identical to the pre-capacity predictor, peaks
record the transient insert-then-evict overshoot, MHR eviction drops the
block's PHT collaterally, a pickle round trip keeps recency and clock
state exactly, and tables adopted under a new budget shrink to it.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CosmosConfig
from repro.core.corruption import CorruptionInjector, CorruptionProfile
from repro.core.eviction import DECAY_MAX, EVICTION_POLICIES, ClockOrder
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.errors import ConfigError
from repro.protocol.messages import MessageType

from .test_flat_equivalence import reference_predictor

TUP_A = (1, MessageType.GET_RO_REQUEST)
TUP_B = (2, MessageType.INVAL_RO_RESPONSE)
TUP_C = (3, MessageType.UPGRADE_REQUEST)

message_types = st.sampled_from(list(MessageType))
tuples_ = st.tuples(st.integers(min_value=0, max_value=15), message_types)
blocks = st.sampled_from([0x40 * i for i in range(10)])
policies = st.sampled_from(EVICTION_POLICIES)


def bounded_config(policy="lru", mhr=3, pht=0, depth=1):
    return CosmosConfig(
        depth=depth, mhr_capacity=mhr, pht_capacity=pht, eviction=policy
    )


def fill(predictor, n_blocks, reps=3):
    for rep in range(reps):
        for i in range(n_blocks):
            predictor.observe(0x40 * i, TUP_A if rep % 2 else TUP_B)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_negative_capacities_are_rejected(self):
        with pytest.raises(ConfigError):
            CosmosConfig(mhr_capacity=-1)
        with pytest.raises(ConfigError):
            CosmosConfig(pht_capacity=-4)

    def test_unknown_eviction_policy_is_rejected(self):
        with pytest.raises(ConfigError):
            CosmosConfig(eviction="mru")

    def test_describe_names_the_bound(self):
        text = CosmosConfig(mhr_capacity=4, eviction="clock").describe()
        assert "clock" in text and "mhr<=4" in text
        assert "mhr<=" not in CosmosConfig().describe()


# ---------------------------------------------------------------------------
# ClockOrder unit behavior
# ---------------------------------------------------------------------------


class TestClockOrder:
    def test_second_chance_victim_order(self):
        order = ClockOrder(decay=False)
        for key in ("a", "b", "c"):
            order.touch(key)
        # First sweep ages everyone down, then evicts the oldest slot.
        assert order.victim() == "a"
        order.touch("b")  # re-reference: b earns a second chance...
        assert order.victim() == "c"  # ...so untouched c goes first
        assert order.victim() == "b"

    def test_decay_counts_saturate_and_decrement(self):
        order = ClockOrder(decay=True)
        order.touch("hot")
        for _ in range(10):
            order.touch("hot")  # saturates at DECAY_MAX
        order.touch("cold")
        assert order._bits["hot"] == DECAY_MAX
        # cold (count 1) decays to 0 and dies before hot does.
        assert order.victim() == "cold"
        assert order.victim() == "hot"

    def test_discard_makes_entries_stale_not_corrupt(self):
        order = ClockOrder(decay=False)
        for key in ("a", "b", "c"):
            order.touch(key)
        order.discard("a")
        assert len(order) == 2
        assert order.victim() in ("b", "c")

    def test_pickle_round_trip(self):
        order = ClockOrder(decay=True)
        for key in (1, 2, 3, 4):
            order.touch(key)
        order.touch(2)
        order.discard(3)  # leaves a stale ring slot behind
        order.victim()
        clone = pickle.loads(pickle.dumps(order))
        assert pickle.dumps(clone) == pickle.dumps(order)
        assert [clone.victim() for _ in range(2)] == [
            order.victim() for _ in range(2)
        ]


# ---------------------------------------------------------------------------
# capacity invariants
# ---------------------------------------------------------------------------


class TestCapacityInvariants:
    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_mhr_capacity_holds_after_every_observation(self, policy):
        predictor = CosmosPredictor(bounded_config(policy, mhr=3))
        for i in range(40):
            predictor.observe(0x40 * (i % 7), TUP_A)
            assert predictor.mhr_entries <= 3
        assert predictor.evictions_mhr > 0

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_pht_capacity_holds_after_every_observation(self, policy):
        predictor = CosmosPredictor(bounded_config(policy, mhr=0, pht=4))
        stream = [TUP_A, TUP_B, TUP_C, TUP_A, TUP_C, TUP_B] * 12
        for i, tup in enumerate(stream):
            predictor.observe(0x40 * (i % 5), tup)
            assert predictor.pht_entries <= 4
        assert predictor.evictions_pht > 0

    def test_lru_evicts_the_least_recently_used_block(self):
        predictor = CosmosPredictor(bounded_config("lru", mhr=2))
        predictor.observe(0x00, TUP_A)
        predictor.observe(0x40, TUP_A)
        predictor.observe(0x00, TUP_B)  # touch 0x00: 0x40 is now LRU
        predictor.observe(0x80, TUP_A)  # insert: evicts 0x40
        assert set(predictor.blocks()) == {0x00, 0x80}

    def test_mhr_eviction_drops_the_pht_collaterally(self):
        predictor = CosmosPredictor(bounded_config("lru", mhr=1, depth=1))
        for tup in (TUP_A, TUP_B, TUP_A, TUP_B):
            predictor.observe(0x00, tup)
        assert predictor.pht_entries > 0
        trained = predictor.pht_entries
        predictor.observe(0x40, TUP_A)  # evicts 0x00 and its PHT
        assert predictor.blocks() == (0x40,)
        assert predictor.pht_entries == 0
        assert predictor.evictions_pht == trained
        assert predictor.evictions_mhr == 1

    def test_peaks_record_the_transient_overshoot(self):
        predictor = CosmosPredictor(bounded_config("lru", mhr=2))
        fill(predictor, 6)
        assert predictor.mhr_entries == 2
        assert predictor.peak_mhr_entries == 3  # insert-then-evict moment
        unbounded = CosmosPredictor()
        fill(unbounded, 6)
        assert unbounded.peak_mhr_entries == unbounded.mhr_entries == 6

    def test_forget_keeps_the_books_straight(self):
        predictor = CosmosPredictor(bounded_config("clock", mhr=3, pht=6))
        fill(predictor, 3)
        predictor.forget(0x40)
        assert 0x40 not in predictor.blocks()
        fill(predictor, 5)  # keeps evicting without double-free or leak
        assert predictor.mhr_entries <= 3
        assert predictor.pht_entries <= 6

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_enforce_capacity_shrinks_adopted_oversized_state(self, policy):
        donor = CosmosPredictor()
        fill(donor, 8)
        bounded = CosmosPredictor(bounded_config(policy, mhr=3, pht=4))
        bounded.adopt(donor)
        # Adopting itself never evicts...
        assert bounded.mhr_entries == 8
        evicted = bounded.enforce_capacity()
        # ...enforcement does, down to the budget exactly.
        assert evicted > 0
        assert bounded.mhr_entries <= 3
        assert bounded.pht_entries <= 4


class TestPeaksSurviveDrops:
    """Removing a block outside eviction -- ``forget``, a parity-detected
    history, a corruption loss -- must not lower the MHR high-water
    mark: the peak is noted while the block still counts."""

    @staticmethod
    def five_blocks(injector=None):
        predictor = CosmosPredictor(
            CosmosConfig(pht_capacity=8), corruption=injector
        )
        for i in range(5):
            predictor.observe(0x40 * i, TUP_A)
        return predictor

    def test_forget_keeps_the_mhr_high_water_mark(self):
        predictor = self.five_blocks()
        predictor.forget(0x40)
        assert predictor.mhr_entries == 4
        assert predictor.peak_mhr_entries == 5

    def test_parity_drop_keeps_the_mhr_high_water_mark(self):
        predictor = self.five_blocks(
            CorruptionInjector(CorruptionProfile(), seed=0)
        )
        predictor.corrupt(0x40, 0, bit=0)
        assert predictor.predict(0x40) is None
        assert predictor.corrupt_detected == 1
        assert predictor.mhr_entries == 4
        assert predictor.peak_mhr_entries == 5

    def test_corruption_loss_keeps_the_mhr_high_water_mark(self):
        injector = CorruptionInjector(CorruptionProfile(), seed=0)
        predictor = self.five_blocks(injector)
        injector.profile = CorruptionProfile(loss=0.9)
        predictor.observe(0x00, TUP_B)
        assert predictor.corrupt_losses == 1
        assert predictor.mhr_entries == 4  # the loss hit another block
        assert predictor.peak_mhr_entries == 5


# ---------------------------------------------------------------------------
# capacity=0 is byte-identical to the pre-capacity predictor
# ---------------------------------------------------------------------------


class TestUnboundedIdentity:
    @given(stream=st.lists(st.tuples(blocks, tuples_), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_default_config_snapshot_is_unchanged(self, stream):
        plain = CosmosPredictor(CosmosConfig(depth=2))
        explicit = CosmosPredictor(
            CosmosConfig(depth=2, mhr_capacity=0, pht_capacity=0)
        )
        for block, tup in stream:
            assert plain.observe(block, tup) == explicit.observe(block, tup)
        assert pickle.dumps(plain) == pickle.dumps(explicit)
        assert not plain._bounded
        assert plain._mhr_clock is plain._pht_lru is plain._pht_clock is None


# ---------------------------------------------------------------------------
# differential: arming (at zero error rates) is observationally neutral
# ---------------------------------------------------------------------------


def _stats(predictor):
    return (
        predictor.predictions,
        predictor.hits,
        predictor.no_prediction,
        predictor.evictions_mhr,
        predictor.evictions_pht,
        predictor.mhr_entries,
        predictor.pht_entries,
        predictor.peak_mhr_entries,
        predictor.peak_pht_entries,
    )


class TestDifferentialEquivalence:
    @given(
        policy=policies,
        mhr=st.integers(min_value=0, max_value=4),
        pht=st.integers(min_value=0, max_value=6),
        depth=st.integers(min_value=1, max_value=3),
        stream=st.lists(st.tuples(blocks, tuples_), max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_flat_and_armed_agree_entry_for_entry(
        self, policy, mhr, pht, depth, stream
    ):
        config = CosmosConfig(
            depth=depth, mhr_capacity=mhr, pht_capacity=pht, eviction=policy
        )
        flat = CosmosPredictor(config)
        armed = reference_predictor(config)
        for block, tup in stream:
            assert flat.observe(block, tup) == armed.observe(block, tup)
            # Same victims at the same moments: the *tables* agree, not
            # just the counters.
            assert flat.blocks() == armed.blocks()
        assert _stats(flat) == _stats(armed)
        assert sorted(flat.pht_sizes()) == sorted(armed.pht_sizes())

    @given(
        policy=policies,
        stream=st.lists(st.tuples(blocks, tuples_), max_size=100),
        more=st.lists(st.tuples(blocks, tuples_), max_size=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_eviction_is_deterministic(self, policy, stream, more):
        config = bounded_config(policy, mhr=3, pht=5, depth=2)
        one = CosmosPredictor(config)
        two = CosmosPredictor(config)
        for block, tup in stream + more:
            assert one.observe(block, tup) == two.observe(block, tup)
        assert pickle.dumps(one) == pickle.dumps(two)


# ---------------------------------------------------------------------------
# checkpoints: eviction state round-trips byte-identically
# ---------------------------------------------------------------------------


class TestBoundedCheckpoints:
    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_round_trip_is_byte_identical(self, policy):
        predictor = CosmosPredictor(bounded_config(policy, mhr=3, pht=5))
        for i in range(30):
            predictor.observe(0x40 * (i % 6), TUP_A if i % 3 else TUP_B)
        assert predictor.evictions_mhr
        clone = pickle.loads(pickle.dumps(predictor))
        assert pickle.dumps(clone) == pickle.dumps(predictor)
        # The restored recency/clock/decay order continues identically:
        # the same future stream evicts the same victims.
        for i in range(30):
            tup = TUP_C if i % 2 else TUP_A
            block = 0x40 * ((i * 3) % 7)
            assert predictor.observe(block, tup) == clone.observe(block, tup)
            assert predictor.blocks() == clone.blocks()
        assert pickle.dumps(predictor) == pickle.dumps(clone)

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    def test_pickled_flat_and_armed_continue_identically(self, policy):
        config = bounded_config(policy, mhr=3, pht=5, depth=2)
        flat = CosmosPredictor(config)
        armed = reference_predictor(config)
        for i in range(40):
            tup = TUP_A if i % 2 else TUP_B
            flat.observe(0x40 * (i % 6), tup)
            armed.observe(0x40 * (i % 6), tup)
        flat = pickle.loads(pickle.dumps(flat))
        armed = pickle.loads(pickle.dumps(armed))
        for i in range(60):
            tup = (i % 5, MessageType.GET_RO_REQUEST)
            block = 0x40 * ((i * 5) % 8)
            assert flat.observe(block, tup) == armed.observe(block, tup)
            assert flat.blocks() == armed.blocks()
        assert _stats(flat) == _stats(armed)

    def test_unbounded_tables_adopted_into_bounded_without_eviction(self):
        donor = CosmosPredictor(CosmosConfig())
        fill(donor, 5)
        bounded = CosmosPredictor(bounded_config("lru", mhr=2))
        bounded.adopt(donor)
        assert bounded.mhr_entries == 5  # adopting is exact...
        bounded.observe(0x40 * 9, TUP_A)  # ...and the next insert evicts
        assert bounded.mhr_entries <= 5
        assert bounded.evictions_mhr >= 1

    def test_adopt_refuses_another_table_shape(self):
        donor = CosmosPredictor(CosmosConfig(depth=2))
        fill(donor, 3)
        with pytest.raises(ConfigError, match="cannot adopt"):
            CosmosPredictor(bounded_config("lru", depth=1)).adopt(donor)
