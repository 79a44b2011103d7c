"""Trace-cache entries use the shared two-frame format.

An entry in the layout the cache wrote before the shared format (no CRC
or payload length in its header) fails the checksum check, so it is a
miss: deleted, counted as corrupt, and re-simulated -- never a crash.
"""

import hashlib
import pickle
import sys

import pytest

from repro.ioutil import read_framed, write_framed
from repro.protocol.stache import DEFAULT_OPTIONS
from repro.sim.metrics import METRICS
from repro.sim.params import PAPER_PARAMS
from repro.trace.cache import FORMAT_VERSION, TraceCache, trace_key

from .test_cache import sample_collector

MAGIC = "repro-trace-cache"

COLLECTOR = sample_collector(6)
ROWS = COLLECTOR.rows
EVENTS = COLLECTOR.events
PAYLOAD = ROWS.tobytes()

OTHER_BYTEORDER = "big" if sys.byteorder == "little" else "little"


def key():
    return trace_key("appbt", 4, 0, PAPER_PARAMS, DEFAULT_OPTIONS)


def content_header(payload=PAYLOAD, **overrides):
    """The cache's own header fields for ``payload``, as ``store`` writes
    them, with ``overrides`` applied."""
    header = {
        "count": len(EVENTS),
        "itemsize": ROWS.itemsize,
        "byteorder": sys.byteorder,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "descriptor": key().descriptor,
    }
    header.update(overrides)
    return header


def test_store_writes_a_verifiable_framed_file(tmp_path):
    cache = TraceCache(tmp_path)
    path = cache.store(key(), ROWS)
    header, payload = read_framed(path, MAGIC, FORMAT_VERSION)
    assert {name: header[name] for name in content_header()} == (
        content_header()
    )
    assert payload == PAYLOAD
    assert cache.load(key()) == EVENTS


def test_pre_crc_entry_is_a_miss_and_is_removed(tmp_path):
    cache = TraceCache(tmp_path)
    path = cache.path_for(key())
    path.parent.mkdir(parents=True)
    with open(path, "wb") as handle:
        pickle.dump(
            {"magic": MAGIC, "format": FORMAT_VERSION, **content_header()},
            handle,
        )
        handle.write(PAYLOAD)
    METRICS.reset()
    assert cache.load(key()) is None
    assert not path.exists()
    assert METRICS.counter("trace.cache.corrupt") == 1
    assert METRICS.counter("trace.cache.miss") == 1
    cache.store(key(), ROWS)
    assert cache.load(key()) == EVENTS


@pytest.mark.parametrize(
    "payload, overrides",
    [
        (PAYLOAD, {"sha256": "0" * 64}),
        (PAYLOAD, {"count": len(EVENTS) + 1}),
        (PAYLOAD, {"itemsize": 4}),
        (PAYLOAD, {"byteorder": OTHER_BYTEORDER}),
        (PAYLOAD[:-3], {}),
        (PAYLOAD + bytes(8), {}),
    ],
    ids=[
        "sha256", "count", "itemsize", "byteorder", "short-payload",
        "long-payload",
    ],
)
def test_content_check_failure_is_a_miss(tmp_path, payload, overrides):
    # Valid framing and CRC, but one of the cache's own header fields
    # disagrees with the payload, or the payload is not count x 7 x 8
    # bytes: the content checks still hold.
    cache = TraceCache(tmp_path)
    path = cache.path_for(key())
    write_framed(
        path, MAGIC, FORMAT_VERSION, content_header(payload, **overrides),
        payload,
    )
    METRICS.reset()
    assert cache.load(key()) is None
    assert not path.exists()
    assert METRICS.counter("trace.cache.corrupt") == 1


def test_first_store_sweeps_entries_of_older_formats(tmp_path):
    # Entries keyed under other descriptors, one per format: the format
    # is part of the key digest, so an older entry is never hit again.
    def plant(name, version):
        path = tmp_path / name[:2] / f"{name}.trace"
        write_framed(path, MAGIC, version, content_header(), PAYLOAD)
        return path

    older = plant("aa" + "0" * 62, FORMAT_VERSION - 1)
    current = plant("bb" + "0" * 62, FORMAT_VERSION)
    newer = plant("cc" + "0" * 62, FORMAT_VERSION + 1)
    garbage = tmp_path / "dd" / ("dd" + "0" * 62 + ".trace")
    garbage.parent.mkdir()
    garbage.write_bytes(b"not a pickle")

    cache = TraceCache(tmp_path)
    assert cache.load(key()) is None  # loads never sweep
    assert older.exists()
    METRICS.reset()
    stored = cache.store(key(), ROWS)
    assert not older.exists()
    assert METRICS.counter("trace.cache.swept") == 1
    # A newer checkout may share the directory; unreadable entries are
    # left to load's own corruption handling.
    assert current.exists() and newer.exists() and garbage.exists()
    assert cache.load(key()) == EVENTS

    # Once per cache instance: a later store does not rescan.
    late = plant("ee" + "0" * 62, FORMAT_VERSION - 1)
    cache.store(key(), ROWS)
    assert late.exists()
    assert stored.exists()
    assert TraceCache(tmp_path).sweep_old_formats() == 1
    assert not late.exists()
