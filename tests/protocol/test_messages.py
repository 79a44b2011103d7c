"""Tests for the coherence message vocabulary."""

import pytest

from repro.errors import ReproError
from repro.protocol.messages import (
    CACHE_BOUND,
    DIRECTORY_BOUND,
    MESSAGE_DESCRIPTIONS,
    RECEIVER_BIT,
    TABLE1_TYPES,
    Message,
    MessageType,
    Role,
    format_table1,
    parse_message_type,
    receiver_role,
)


class TestMessageType:
    def test_paper_vocabulary_plus_forwarding_extension(self):
        # 12 Table 1 types (10 from the paper + the downgrade pair) plus
        # the 3 Origin-forwarding types.
        assert len(TABLE1_TYPES) == 12
        assert len(MessageType) == 15

    def test_every_type_has_a_description(self):
        assert set(MESSAGE_DESCRIPTIONS) == set(MessageType)

    def test_direction_sets_partition_the_vocabulary(self):
        assert CACHE_BOUND | DIRECTORY_BOUND == frozenset(MessageType)
        assert not CACHE_BOUND & DIRECTORY_BOUND

    def test_requests_go_to_directory(self):
        assert MessageType.GET_RO_REQUEST in DIRECTORY_BOUND
        assert MessageType.GET_RW_REQUEST in DIRECTORY_BOUND
        assert MessageType.UPGRADE_REQUEST in DIRECTORY_BOUND

    def test_invalidations_go_to_cache(self):
        assert MessageType.INVAL_RO_REQUEST in CACHE_BOUND
        assert MessageType.INVAL_RW_REQUEST in CACHE_BOUND

    def test_str_is_lowercase_name(self):
        assert str(MessageType.GET_RO_REQUEST) == "get_ro_request"

    def test_values_fit_four_bits(self):
        # Table 7 assumes a 4-bit message-type field.
        assert all(0 <= int(m) < 16 for m in MessageType)

    def test_parse_roundtrip(self):
        for mtype in MessageType:
            assert parse_message_type(str(mtype)) is mtype

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_message_type("not_a_message")


class TestReceiverRole:
    @pytest.mark.parametrize("mtype", sorted(DIRECTORY_BOUND))
    def test_directory_bound(self, mtype):
        assert receiver_role(mtype) is Role.DIRECTORY
        assert RECEIVER_BIT[mtype] == 1

    @pytest.mark.parametrize("mtype", sorted(CACHE_BOUND))
    def test_cache_bound(self, mtype):
        assert receiver_role(mtype) is Role.CACHE
        assert RECEIVER_BIT[mtype] == 0

    def test_bit_table_is_indexed_by_dense_values(self):
        # RECEIVER_BIT (and the trace hand-off's tuple(MessageType))
        # index by value, which needs the values to be 0..14.
        assert [int(mtype) for mtype in MessageType] == list(range(15))
        assert len(RECEIVER_BIT) == len(MessageType)


class TestMessage:
    def test_role_at_receiver(self):
        msg = Message(src=1, dst=2, mtype=MessageType.GET_RO_REQUEST, block=0)
        assert msg.role_at_receiver is Role.DIRECTORY

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Message(src=-1, dst=0, mtype=MessageType.GET_RO_REQUEST, block=0)

    def test_frozen(self):
        msg = Message(src=1, dst=2, mtype=MessageType.GET_RO_REQUEST, block=0)
        with pytest.raises(AttributeError):
            msg.src = 3


class TestTable1:
    def test_format_contains_paper_types_only(self):
        text = format_table1()
        for mtype in TABLE1_TYPES:
            assert str(mtype) in text
        assert "fwd_get_ro_request" not in text

    def test_format_with_extensions(self):
        text = format_table1(include_extensions=True)
        for mtype in MessageType:
            assert str(mtype) in text

    def test_format_mentions_both_directions(self):
        text = format_table1()
        assert "received by a directory" in text
        assert "received by a cache" in text
