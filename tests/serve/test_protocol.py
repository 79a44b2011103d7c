"""The wire format: round trips, validation, malformed input."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.protocol.messages import MessageType
from repro.serve.protocol import (
    Request,
    Response,
    Status,
    decode_request,
    decode_response,
)


def test_request_round_trip():
    request = Request(
        client="c1",
        seq=7,
        tenant="n0.cache",
        block=256,
        sender=3,
        mtype=int(MessageType.GET_RO_RESPONSE),
    )
    record = decode_request(request.encode())
    assert record["op"] == "observe"
    assert record["client"] == "c1"
    assert record["seq"] == 7
    assert record["block"] == 256
    assert record["mtype"] == int(MessageType.GET_RO_RESPONSE)


def test_response_round_trip_and_tuple_decode():
    from repro.core.tuples import pack

    word = pack((5, MessageType.INVAL_RO_REQUEST))
    response = Response(
        seq=3, status=Status.OK, predicted=word, degraded=False,
        shard=1, index=42,
    )
    decoded = decode_response(response.encode())
    assert decoded == response
    assert decoded.predicted_tuple == (5, MessageType.INVAL_RO_REQUEST)


def test_no_prediction_decodes_to_none():
    decoded = decode_response(
        Response(seq=1, status=Status.OK, predicted=-1).encode()
    )
    assert decoded.predicted_tuple is None


def test_retry_after_carries_backoff_hint():
    decoded = decode_response(
        Response(
            seq=9, status=Status.RETRY_AFTER, retry_after_ms=35.0
        ).encode()
    )
    assert decoded.status == Status.RETRY_AFTER
    assert decoded.retry_after_ms == 35.0


@pytest.mark.parametrize(
    "line",
    [
        b"not json at all\n",
        b"[1, 2, 3]\n",
        b'{"no": "op"}\n',
        b'{"op": "observe", "client": "c"}\n',  # missing fields
        b'{"op": "observe", "client": "c", "seq": "x", "tenant": "t",'
        b' "block": 1, "sender": 0, "mtype": 0}\n',  # seq not an int
        b'{"op": "observe", "client": "c", "seq": 0, "tenant": "t",'
        b' "block": 1, "sender": 0, "mtype": 99}\n',  # bad message type
        b'{"op": "observe", "client": "c", "seq": -1, "tenant": "t",'
        b' "block": 1, "sender": 0, "mtype": 0}\n',  # negative seq
    ],
)
def test_malformed_requests_raise_serve_error(line):
    with pytest.raises(ServeError):
        decode_request(line)


@pytest.mark.parametrize("field", ["seq", "block", "sender", "mtype"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_int_fields_are_refused(field, value):
    record = {
        "op": "observe", "client": "c", "seq": 1, "tenant": "t",
        "block": 1, "sender": 0, "mtype": 0,
    }
    record[field] = value
    with pytest.raises(ServeError, match=f"field {field!r}"):
        decode_request(json.dumps(record).encode() + b"\n")


def test_control_operations_pass_through():
    assert decode_request(b'{"op": "stat"}\n') == {"op": "stat"}


def test_malformed_response_raises_serve_error():
    with pytest.raises(ServeError):
        decode_response(b"garbage\n")
    with pytest.raises(ServeError):
        decode_response(b'{"seq": 1}\n')


# ----------------------------------------------------------------------
# the fixed-schema encoders against json.dumps
# ----------------------------------------------------------------------

#: Any string a JSON line can carry, lone surrogates included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
NATURALS = st.integers(min_value=0, max_value=2**70)


def _dumped(record):
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


@given(
    client=ANY_TEXT,
    tenant=ANY_TEXT,
    seq=NATURALS,
    block=NATURALS,
    sender=NATURALS,
    mtype=NATURALS,
)
@example(
    client='q"uote\\back\x00\x1f ', tenant="\ud800é", seq=0, block=0,
    sender=0, mtype=0,
)
def test_request_encoding_is_byte_identical_to_json_dumps(
    client, tenant, seq, block, sender, mtype
):
    request = Request(
        client=client, seq=seq, tenant=tenant, block=block, sender=sender,
        mtype=mtype,
    )
    assert request.encode() == _dumped(
        {
            "op": "observe",
            "client": client,
            "seq": seq,
            "tenant": tenant,
            "block": block,
            "sender": sender,
            "mtype": mtype,
        }
    )


@given(
    seq=NATURALS,
    status=st.sampled_from([Status.OK, Status.RETRY_AFTER, Status.ERROR]),
    predicted=NATURALS | st.just(-1),
    degraded=st.sampled_from([False, True, "evicting"]),
    shard=NATURALS | st.just(-1),
    index=NATURALS | st.just(-1),
    retry_after_ms=st.floats(),
    error=st.none() | ANY_TEXT,
)
def test_response_encoding_is_byte_identical_to_json_dumps(
    seq, status, predicted, degraded, shard, index, retry_after_ms, error
):
    response = Response(
        seq=seq, status=status, predicted=predicted, degraded=degraded,
        shard=shard, index=index, retry_after_ms=retry_after_ms, error=error,
    )
    record = {
        "seq": seq,
        "status": status,
        "predicted": predicted,
        "degraded": degraded,
        "shard": shard,
        "index": index,
    }
    if status == Status.RETRY_AFTER:
        record["retry_after_ms"] = retry_after_ms
    if error is not None:
        record["error"] = error
    assert response.encode() == _dumped(record)
