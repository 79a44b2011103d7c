"""Layout guard for the records the simulator builds per message.

Every delivered message builds a ``Message``; accesses, directory
requests and transactions, and cache misses build the other four.  As
dataclasses each cost several times a tuple or ``__slots__`` build, and
a dataclass's generated ``__init__`` is compiled from ``<string>``: a
cProfile run keys every such ``__init__`` as ``('<string>', 2,
'__init__')`` and so keeps one of them, making the cost disappear from
``perfbench/run.py --trace 1``.  A revert to dataclasses fails here.
"""

import pytest

from repro.protocol.cache_ctrl import _Outstanding
from repro.protocol.directory_ctrl import _Request, _Txn
from repro.protocol.messages import Message, MessageType
from repro.workloads.access import Access


def _instances():
    request = _Request(0, False, False, None)
    return [
        Message(0, 1, MessageType.GET_RO_REQUEST, 64),
        Access(64, False),
        request,
        _Txn(request, set(), None, set(), None),
        _Outstanding(1, False, lambda: None),
    ]


@pytest.mark.parametrize(
    "record", _instances(), ids=lambda record: type(record).__name__
)
def test_record_has_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "cls", [type(record) for record in _instances()],
    ids=lambda cls: cls.__name__,
)
def test_constructors_are_not_generated_code(cls):
    for name in ("__new__", "__init__"):
        code = getattr(getattr(cls, name), "__code__", None)
        assert code is None or code.co_filename != "<string>", (
            f"{cls.__name__}.{name} is generated code"
        )
