"""Tests for the predictor bank and memory accounting."""

import pytest

from repro.core.bank import PredictorBank
from repro.core.config import CosmosConfig
from repro.core.memory import TUPLE_BYTES, MemoryOverhead, memory_report
from repro.experiments.common import get_trace
from repro.predictors.last_message import LastMessagePredictor
from repro.protocol.messages import MessageType, Role
from repro.sim.metrics import METRICS
from repro.trace.events import TraceEvent

TUP = (1, MessageType.GET_RO_REQUEST)


def event(node=0, role=Role.DIRECTORY, block=0, sender=1,
          mtype=MessageType.GET_RO_REQUEST, time=0, iteration=1):
    return TraceEvent(time, iteration, node, role, block, sender, mtype)


class TestBank:
    def test_one_predictor_per_module(self):
        bank = PredictorBank()
        bank.observe(event(node=0, role=Role.DIRECTORY))
        bank.observe(event(node=0, role=Role.CACHE,
                           mtype=MessageType.GET_RO_RESPONSE))
        bank.observe(event(node=1, role=Role.CACHE,
                           mtype=MessageType.GET_RO_RESPONSE))
        assert len(bank) == 3

    def test_share_roles_merges_modules(self):
        bank = PredictorBank(share_roles=True)
        bank.observe(event(node=0, role=Role.DIRECTORY))
        bank.observe(event(node=0, role=Role.CACHE,
                           mtype=MessageType.GET_RO_RESPONSE))
        assert len(bank) == 1

    def test_sharing_roles_never_helps_on_moldyn(self):
        # Stache's caches and directories at one node see different
        # blocks (remote pages vs home pages), so one predictor per node
        # aliases little -- and must never beat one per module.
        events = get_trace("moldyn", seed=0, quick=True)

        def accuracy(share_roles):
            bank = PredictorBank(
                CosmosConfig(depth=1), share_roles=share_roles
            )
            for e in events:
                bank.observe(e)
            return sum(p.hits for _key, p in bank) / len(events)

        assert accuracy(True) <= accuracy(False) + 0.02

    def test_same_module_reused(self):
        bank = PredictorBank()
        p1 = bank.predictor_for(3, Role.CACHE)
        p2 = bank.predictor_for(3, Role.CACHE)
        assert p1 is p2

    def test_machine_wide_counters(self):
        bank = PredictorBank(CosmosConfig(depth=1))
        for _ in range(3):
            bank.observe(event(node=0, block=0))
            bank.observe(event(node=1, block=0))
        assert bank.overhead.mhr_entries == 2  # one block at two modules
        assert bank.overhead.pht_entries == 2

    def test_factory_builds_every_module(self):
        bank = PredictorBank(factory=LastMessagePredictor)
        bank.observe(event(node=0, role=Role.DIRECTORY))
        bank.observe(event(node=1, role=Role.CACHE))
        assert len(bank) == 2
        assert all(
            isinstance(p, LastMessagePredictor) for _key, p in bank
        )
        # Table 7 storage is only defined for Cosmos predictors.
        assert bank.memory_report() is None
        assert bank.overhead is None

    def test_config_propagates(self):
        bank = PredictorBank(CosmosConfig(depth=3))
        predictor = bank.predictor_for(0, Role.CACHE)
        assert predictor.config.depth == 3


class TestMemoryOverhead:
    def test_paper_formula(self):
        # Ovhd = tuple * (depth + ratio * (depth + 1)) * 100 / block
        overhead = MemoryOverhead(
            mhr_entries=100,
            pht_entries=120,
            depth=1,
        )
        assert overhead.ratio == pytest.approx(1.2)
        assert overhead.overhead_percent == pytest.approx(
            2 * (1 + 1.2 * 2) * 100 / 128
        )

    def test_barnes_depth3_paper_point(self):
        # Paper: ratio 9.3 at depth 3 gives 63.0% overhead.
        overhead = MemoryOverhead(
            mhr_entries=1000,
            pht_entries=9300,
            depth=3,
        )
        assert overhead.overhead_percent == pytest.approx(63.0, abs=0.5)

    def test_zero_mhr_entries(self):
        overhead = MemoryOverhead(0, 0, 1)
        assert overhead.ratio == 0.0

    def test_bytes_per_block(self):
        overhead = MemoryOverhead(10, 10, 1, 2, 128)
        assert overhead.bytes_per_block == pytest.approx(
            overhead.overhead_percent * 1.28
        )

    def test_overhead_from_bank(self):
        bank = PredictorBank(CosmosConfig(depth=1))
        assert bank.overhead is None  # nothing referenced yet
        for _ in range(3):
            bank.observe(event(node=0, block=0))
        overhead = bank.overhead
        assert overhead.mhr_entries == 1
        assert overhead.pht_entries == 1
        assert overhead.depth == 1


class TestMemoryReport:
    def test_no_predictors_report_zeros(self):
        report = memory_report(CosmosConfig(), [])
        assert list(report) == [
            "mhr_live", "pht_live", "peak_mhr", "peak_pht",
            "evictions_mhr", "evictions_pht", "bytes_est", "peak_bytes_est",
        ]
        assert set(report.values()) == {0}

    def test_bank_totals_every_module(self):
        config = CosmosConfig(depth=1)
        bank = PredictorBank(config)
        for _ in range(3):
            bank.observe(event(node=0, block=0))
            bank.observe(event(node=1, block=0))
            bank.observe(event(node=1, block=1))
        report = bank.memory_report()
        assert report == memory_report(config, [p for _key, p in bank])
        assert (report["mhr_live"], report["pht_live"]) == (3, 3)
        # An MHR entry is `depth` tuples, a PHT entry `depth + 1`.
        assert report["bytes_est"] == TUPLE_BYTES * (3 * 1 + 3 * 2)

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_fold_emits_memory_counters_only_when_bounded(self, capacity):
        bank = PredictorBank(
            CosmosConfig(depth=1, mhr_capacity=capacity)
        )
        for _ in range(3):
            bank.observe(event(node=0, block=0))
        METRICS.reset()
        try:
            bank.fold_metrics()
            counters = METRICS.snapshot()["counters"]
            histogram = METRICS.histogram("pred.pht.block_entries")
        finally:
            METRICS.reset()
        assert histogram.count == 1
        memory = {
            name[len("pred.mem."):]: value
            for name, value in counters.items()
            if name.startswith("pred.mem.")
        }
        assert memory == (bank.memory_report() if capacity else {})
