"""Tests for system parameters (Table 3)."""

import pytest

from repro.errors import ConfigError
from repro.sim.params import PAPER_PARAMS, SystemParams


class TestDefaults:
    def test_paper_values(self):
        p = PAPER_PARAMS
        assert p.n_nodes == 16
        assert p.cache_block_bytes == 64
        assert p.network_latency_ns == 40
        assert p.network_interface_ns == 60
        assert p.memory_access_ns == 120

    def test_one_way_latency_composition(self):
        # NI + wire + NI
        assert PAPER_PARAMS.one_way_message_ns == 60 + 40 + 60

    def test_blocks_per_page(self):
        assert PAPER_PARAMS.blocks_per_page == 4096 // 64


class TestValidation:
    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            SystemParams(n_nodes=1)

    def test_non_power_of_two_block(self):
        with pytest.raises(ConfigError):
            SystemParams(cache_block_bytes=96)

    def test_page_not_multiple_of_block(self):
        with pytest.raises(ConfigError):
            SystemParams(cache_block_bytes=64, page_bytes=1000)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_PARAMS.n_nodes = 8


class TestDescribe:
    def test_table3_fields_present(self):
        text = PAPER_PARAMS.describe()
        assert "16" in text
        assert "MOESI" in text
        assert "40 ns" in text
        assert "direct-mapped" in text

    def test_table3_text_is_exact(self):
        assert PAPER_PARAMS.describe() == (
            "Number of parallel machine nodes  16\n"
            "Processor speed                   1 GHz\n"
            "Cache block size                  64 bytes\n"
            "Cache size                        1 megabyte\n"
            "Cache associativity               direct-mapped\n"
            "Main memory access time           120 ns\n"
            "Memory bus coherence protocol     MOESI\n"
            "Memory bus width                  256 bits\n"
            "Memory bus clock time             250 MHz\n"
            "Network message size              256 bytes\n"
            "Network latency                   40 ns\n"
            "Network Interface access time     60 ns"
        )
