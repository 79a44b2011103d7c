"""Tests for the paper-suggested extensions: macroblocks (Section 7) and
PHT preallocation (Section 3.7)."""

import pytest

from repro.analysis.overhead import (
    macroblock_sweep,
    pht_size_histogram,
    preallocation_report,
)
from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.errors import ConfigError
from repro.experiments.common import get_trace
from repro.protocol.messages import MessageType

A = (1, MessageType.GET_RO_REQUEST)
B = (2, MessageType.INVAL_RO_RESPONSE)


class TestMacroblockConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CosmosConfig(macroblock_bytes=0)
        with pytest.raises(ConfigError):
            CosmosConfig(macroblock_bytes=100)  # not a power of two

    def test_describe_mentions_macroblock(self):
        assert "macroblock=256B" in CosmosConfig(macroblock_bytes=256).describe()


class TestMacroblockPredictor:
    def test_blocks_in_same_macroblock_share_tables(self):
        predictor = CosmosPredictor(CosmosConfig(macroblock_bytes=128))
        predictor.update(0x00, A)   # blocks 0x00 and 0x40 share a
        predictor.update(0x40, B)   # 128-byte macroblock
        assert predictor.mhr_entries == 1
        # History from 0x00 is visible when predicting for 0x40.
        predictor.update(0x00, A)
        assert predictor.predict(0x40) == B

    def test_blocks_in_different_macroblocks_are_separate(self):
        predictor = CosmosPredictor(CosmosConfig(macroblock_bytes=128))
        predictor.update(0x00, A)
        predictor.update(0x80, B)
        assert predictor.mhr_entries == 2

    def test_no_macroblock_is_per_block(self):
        predictor = CosmosPredictor(CosmosConfig())
        predictor.update(0x00, A)
        predictor.update(0x40, B)
        assert predictor.mhr_entries == 2


class TestMacroblockSweep:
    def test_memory_shrinks_with_macroblock_size(
        self, producer_consumer_trace
    ):
        points = macroblock_sweep(
            producer_consumer_trace, macroblock_sizes=(None, 256, 4096)
        )
        mhrs = [p.mhr_entries for p in points]
        assert mhrs[0] >= mhrs[1] >= mhrs[2]

    def test_accuracy_stays_bounded(self, producer_consumer_trace):
        for point in macroblock_sweep(producer_consumer_trace):
            assert 0.0 <= point.overall_accuracy <= 1.0

    def test_appbt_trades_accuracy_for_table_size(self):
        points = macroblock_sweep(
            get_trace("appbt", seed=0, quick=True),
            macroblock_sizes=(None, 128, 512, 4096),
            depth=1,
        )
        baseline, *grouped = points
        # Memory shrinks monotonically with macroblock size...
        mhrs = [p.mhr_entries for p in points]
        assert mhrs == sorted(mhrs, reverse=True)
        # ...and aliasing unrelated blocks never improves accuracy.
        for point in grouped:
            assert point.overall_accuracy <= baseline.overall_accuracy + 0.02


class TestPreallocation:
    def test_histogram_counts_blocks(self, producer_consumer_trace):
        histogram = pht_size_histogram(
            producer_consumer_trace, CosmosConfig(depth=1)
        )
        assert sum(histogram.values()) > 0
        assert all(size >= 0 for size in histogram)

    def test_report_arithmetic(self):
        histogram = {0: 10, 2: 5, 6: 2}
        report = preallocation_report(histogram, static_entries=4)
        assert report.blocks == 17
        assert report.blocks_overflowing == 2
        assert report.entries_total == 22
        assert report.entries_in_overflow_pool == 4
        assert report.overflow_block_fraction == pytest.approx(2 / 17)
        assert report.overflow_entry_fraction == pytest.approx(4 / 22)

    def test_paper_claim_four_entries_suffice(self, producer_consumer_trace):
        # Section 3.7: fewer than four pattern histories per block on
        # average at depth 1 -> a static allocation of 4 rarely spills.
        histogram = pht_size_histogram(
            producer_consumer_trace, CosmosConfig(depth=1)
        )
        report = preallocation_report(histogram, static_entries=4)
        assert report.overflow_block_fraction < 0.5

    def test_four_entries_suffice_on_dsmc(self):
        histogram = pht_size_histogram(
            get_trace("dsmc", seed=0, quick=True), CosmosConfig(depth=1)
        )
        reports = {
            n: preallocation_report(histogram, static_entries=n)
            for n in (2, 4, 8)
        }
        # The suggested 4-entry allocation leaves only a small minority
        # of blocks spilling to the shared pool...
        assert reports[4].overflow_block_fraction < 0.35
        # ...and bigger static allocations never overflow more.
        assert (
            reports[8].overflow_block_fraction
            <= reports[4].overflow_block_fraction
            <= reports[2].overflow_block_fraction
        )

    def test_empty_histogram(self):
        report = preallocation_report({}, static_entries=4)
        assert report.blocks == 0
        assert report.overflow_block_fraction == 0.0
        assert report.overflow_entry_fraction == 0.0
