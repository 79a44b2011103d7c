"""Tests for Cosmos configuration and tuple packing."""

import pytest

from repro.core.config import CosmosConfig
from repro.core.memory import BLOCK_BYTES, TUPLE_BYTES
from repro.core.tuples import format_tuple, pack, unpack
from repro.errors import ConfigError
from repro.protocol.messages import MessageType


class TestConfig:
    def test_defaults_match_paper(self):
        config = CosmosConfig()
        assert config.depth == 1
        assert config.filter_max_count == 0
        assert TUPLE_BYTES == 2
        assert BLOCK_BYTES == 128

    def test_has_filter(self):
        assert not CosmosConfig().has_filter
        assert CosmosConfig(filter_max_count=1).has_filter

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depth": 0},
            {"depth": -1},
            {"filter_max_count": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CosmosConfig(**kwargs)

    def test_describe(self):
        assert "depth=3" in CosmosConfig(depth=3).describe()
        assert "none" in CosmosConfig().describe()
        assert "max 2" in CosmosConfig(filter_max_count=2).describe()


class TestPacking:
    def test_roundtrip_all_types(self):
        for mtype in MessageType:
            for sender in (0, 1, 15, 4095):
                assert unpack(pack((sender, mtype))) == (sender, mtype)

    def test_packed_fits_two_bytes(self):
        word = pack((4095, MessageType.DOWNGRADE_REQUEST))
        assert 0 <= word < (1 << 16)

    def test_sender_overflow_rejected(self):
        with pytest.raises(ConfigError):
            pack((4096, MessageType.GET_RO_REQUEST))
        with pytest.raises(ConfigError):
            pack((-1, MessageType.GET_RO_REQUEST))

    def test_unpack_range_checked(self):
        with pytest.raises(ConfigError):
            unpack(-1)
        with pytest.raises(ConfigError):
            unpack(1 << 16)

    def test_format_tuple(self):
        text = format_tuple((2, MessageType.GET_RO_REQUEST))
        assert text == "<P2, get_ro_request>"
