"""Observe requests the service cannot carry are refused, not crashed on.

A sender must fit the packed word's 12 bits, ``seq`` and ``block`` the
shard pipe's int64 fields, and ``client`` and ``tenant`` must encode as
UTF-8.  Each is refused by :func:`decode_request` with a
:class:`ServeError`, which the service answers as an error on a
connection that stays open, training nothing.
"""

import asyncio
import json

import pytest

from repro.core.tuples import SENDER_BITS
from repro.errors import ServeError
from repro.protocol.messages import MessageType
from repro.serve.config import ServeConfig
from repro.serve.frontend import PredictionService
from repro.serve.protocol import Status, decode_request, decode_response
from repro.sim.metrics import METRICS

#: Each refused field, a value over its limit, and the text of the error.
BAD_FIELDS = [
    ("sender", 1 << SENDER_BITS, "sender"),
    ("seq", 2**63, "'seq'"),
    ("block", 2**63, "'block'"),
    ("block", 10**22, "'block'"),
    ("tenant", "\ud800x", "'tenant'"),
    ("client", "\udfff", "'client'"),
]

IDS = ["sender", "seq", "block", "block-23-digits", "tenant", "client"]


def _line(**overrides):
    record = {
        "op": "observe", "client": "c", "seq": 1, "tenant": "t",
        "block": 64, "sender": 0,
        "mtype": int(MessageType.GET_RO_RESPONSE),
    }
    record.update(overrides)
    # json.dumps escapes a lone surrogate as \\udXXX, the way a client
    # would have to send it.
    return (json.dumps(record) + "\n").encode("utf-8")


@pytest.mark.parametrize("field, value, named", BAD_FIELDS, ids=IDS)
def test_decode_request_refuses_a_value_out_of_range(field, value, named):
    with pytest.raises(ServeError, match=named):
        decode_request(_line(**{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [
        ("sender", (1 << SENDER_BITS) - 1),
        ("seq", 2**63 - 1),
        ("block", 2**63 - 1),
        ("tenant", "n0.cache\U0001f600"),
        ("client", "é"),
    ],
)
def test_decode_request_admits_the_largest_value_in_range(field, value):
    assert decode_request(_line(**{field: value}))[field] == value


@pytest.mark.parametrize("field, value, named", BAD_FIELDS, ids=IDS)
def test_the_service_answers_an_error_and_trains_nothing(field, value, named):
    async def main():
        service = PredictionService(ServeConfig(shards=2))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        try:
            writer.write(_line(**{field: value}))
            await writer.drain()
            answer = decode_response(
                await asyncio.wait_for(reader.readline(), timeout=5.0)
            )
            # The connection survives the refusal.
            writer.write(b'{"op":"stat"}\n')
            await writer.drain()
            stat = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=5.0)
            )
        finally:
            writer.close()
            await writer.wait_closed()
            await service.stop()
        return answer, stat

    METRICS.reset()
    answer, stat = asyncio.run(main())
    assert answer.status == Status.ERROR
    assert named in answer.error
    assert METRICS.counter("serve.request.malformed") == 1
    assert all(
        shard["admitted"] == shard["trained"] == 0 for shard in stat["shards"]
    )
