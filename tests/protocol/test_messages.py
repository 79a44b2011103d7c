"""Tests for the coherence message vocabulary."""

import copy
import pickle

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


#: The fields in declaration order, as the frozen dataclass hashed them.
FIELDS = ("src", "dst", "mtype", "block", "requester", "seq", "ack_seq",
          "requester_seq", "txn")


def _message(**changes):
    fields = dict(src=1, dst=2, mtype=MessageType.GET_RO_REQUEST, block=64)
    return Message(**{**fields, **changes})


class TestMessage:
    def test_role_at_receiver(self):
        assert _message().role_at_receiver is Role.DIRECTORY

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Message(src=-1, dst=0, mtype=MessageType.GET_RO_REQUEST, block=0)

    def test_frozen(self):
        msg = _message()
        with pytest.raises(AttributeError):
            msg.src = 3
        with pytest.raises(AttributeError):
            msg.extra = 3

    def test_positional_and_keyword_construction_agree(self):
        positional = Message(1, 2, MessageType.GET_RO_REQUEST, 64,
                             None, 5, None, None, 9)
        assert positional == _message(seq=5, txn=9)
        assert positional.seq == 5 and positional.txn == 9

    @pytest.mark.parametrize(
        "build",
        [
            lambda msg: Message(*msg[:1], -1, *msg[2:]),
            lambda msg: Message._make((msg.src, -1, *msg[2:])),
            lambda msg: msg._replace(dst=-1),
            lambda msg: msg._replace(src=-1, seq=7),
        ],
        ids=["positional", "make", "replace-dst", "replace-src"],
    )
    def test_node_id_checked_on_every_construction_path(self, build):
        # The directory's recovery re-send builds its retry with
        # _replace, which a plain named tuple would not validate.
        with pytest.raises(ValueError, match="non-negative"):
            build(_message())

    def test_replace_keeps_the_other_fields(self):
        msg = _message(seq=3, txn=4)
        retry = msg._replace(seq=8)
        assert type(retry) is Message
        assert retry == _message(seq=8, txn=4)
        with pytest.raises(ValueError, match="unexpected field"):
            msg._replace(sequence=8)

    def test_hash_is_the_field_tuples(self):
        # The frozen dataclass hashed its field tuple; keeping the value
        # keeps every set and dict of messages in the same order.
        msg = _message(requester=3, seq=4, ack_seq=5, requester_seq=6, txn=7)
        assert hash(msg) == hash(tuple(getattr(msg, f) for f in FIELDS))
        assert hash(msg) == hash(_message(requester=3, seq=4, ack_seq=5,
                                          requester_seq=6, txn=7))

    def test_not_equal_to_a_plain_tuple(self):
        msg = _message()
        fields = tuple(msg)
        assert msg != fields and fields != msg
        assert not msg == fields and not fields == msg
        assert msg == _message() and not msg != _message()
        assert msg != _message(block=128)

    def test_pickle_and_copy_round_trip(self):
        msg = _message(seq=3, txn=4)
        for clone in (pickle.loads(pickle.dumps(msg)), copy.copy(msg),
                      copy.deepcopy(msg)):
            assert type(clone) is Message and clone == msg

    def test_text_is_unchanged(self):
        msg = _message()
        assert str(msg) == "get_ro_request block=0x40 P1 -> P2"
        assert repr(msg) == (
            "Message(src=1, dst=2, mtype=<MessageType.GET_RO_REQUEST: 0>, "
            "block=64, requester=None, seq=None, ack_seq=None, "
            "requester_seq=None, txn=None)"
        )


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
