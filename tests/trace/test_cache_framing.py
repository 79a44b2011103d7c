"""Trace-cache entries use the shared two-frame format.

An entry in the layout the cache wrote before the shared format (no CRC
or payload length in its header) fails the checksum check, so it is a
miss: deleted, counted as corrupt, and re-simulated -- never a crash.
"""

import hashlib
import pickle

import pytest

from repro.ioutil import read_framed, write_framed
from repro.protocol.messages import MessageType, Role
from repro.protocol.stache import DEFAULT_OPTIONS
from repro.sim.metrics import METRICS
from repro.sim.params import PAPER_PARAMS
from repro.trace.cache import FORMAT_VERSION, TraceCache, trace_key
from repro.trace.events import TraceEvent

MAGIC = "repro-trace-cache"

EVENTS = [
    TraceEvent(
        time=t, iteration=1, node=t % 4, role=Role.CACHE, block=64 * t,
        sender=(t + 1) % 4, mtype=MessageType.GET_RO_REQUEST,
    )
    for t in range(6)
]


def key():
    return trace_key("appbt", 4, 0, PAPER_PARAMS, DEFAULT_OPTIONS)


def test_store_writes_a_verifiable_framed_file(tmp_path):
    cache = TraceCache(tmp_path)
    path = cache.store(key(), EVENTS)
    header, payload = read_framed(path, MAGIC, FORMAT_VERSION)
    assert header["count"] == len(EVENTS)
    assert header["sha256"] == hashlib.sha256(payload).hexdigest()
    assert header["descriptor"] == key().descriptor
    assert cache.load(key()) == EVENTS


def test_pre_crc_entry_is_a_miss_and_is_removed(tmp_path):
    cache = TraceCache(tmp_path)
    path = cache.path_for(key())
    path.parent.mkdir(parents=True)
    payload = pickle.dumps(EVENTS)
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "magic": MAGIC,
                "format": FORMAT_VERSION,
                "count": len(EVENTS),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "descriptor": key().descriptor,
            },
            handle,
        )
        handle.write(payload)
    METRICS.reset()
    assert cache.load(key()) is None
    assert not path.exists()
    assert METRICS.counter("trace.cache.corrupt") == 1
    assert METRICS.counter("trace.cache.miss") == 1
    cache.store(key(), EVENTS)
    assert cache.load(key()) == EVENTS


@pytest.mark.parametrize("field", ["sha256", "count"])
def test_content_check_failure_is_a_miss(tmp_path, field):
    # Valid framing and CRC, but the cache's own SHA-256 or event-count
    # field disagrees with the payload: the content checks still hold.
    cache = TraceCache(tmp_path)
    path = cache.path_for(key())
    payload = pickle.dumps(EVENTS)
    extra = {
        "count": len(EVENTS),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    extra[field] = {"sha256": "0" * 64, "count": len(EVENTS) + 1}[field]
    write_framed(path, MAGIC, FORMAT_VERSION, extra, payload)
    METRICS.reset()
    assert cache.load(key()) is None
    assert not path.exists()
    assert METRICS.counter("trace.cache.corrupt") == 1
