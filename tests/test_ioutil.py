"""The shared two-frame file format and the canonical content digest.

Simulation checkpoints, serve shard checkpoints and trace-cache entries
are all written by :func:`repro.ioutil.write_framed`, each under its own
magic string and format version; every failure to read one back is a
:class:`CheckpointError` with a named ``cause``.
"""

import hashlib
import json
import pickle

import pytest

from repro.errors import CheckpointError
from repro.ioutil import (
    canonical_digest,
    load_newest_valid,
    read_framed,
    write_framed,
)
from repro.sim.metrics import METRICS

MAGIC = "test-framed"
VERSION = 3
PAYLOAD = bytes(range(256)) * 8


def framed(path, payload=PAYLOAD, **extra):
    return write_framed(path, MAGIC, VERSION, extra, payload)


class TestFramedRoundTrip:
    def test_payload_and_extra_fields_round_trip(self, tmp_path):
        path = framed(tmp_path / "a.bin", fingerprint="abc", iteration=4)
        header, payload = read_framed(path, MAGIC, VERSION)
        assert payload == PAYLOAD
        assert header["magic"] == MAGIC
        assert header["format"] == VERSION
        assert header["payload_bytes"] == len(PAYLOAD)
        assert header["fingerprint"] == "abc"
        assert header["iteration"] == 4

    def test_empty_payload_round_trips(self, tmp_path):
        path = framed(tmp_path / "empty.bin", payload=b"")
        assert read_framed(path, MAGIC, VERSION)[1] == b""

    def test_other_magic_is_refused(self, tmp_path):
        path = framed(tmp_path / "a.bin")
        with pytest.raises(CheckpointError) as info:
            read_framed(path, "another-format", VERSION)
        assert info.value.cause == "bad-magic"

    def test_other_version_is_refused_with_both_versions(self, tmp_path):
        path = framed(tmp_path / "a.bin")
        with pytest.raises(CheckpointError, match="format 3.*format 4") as info:
            read_framed(path, MAGIC, VERSION + 1)
        assert info.value.cause == "version-mismatch"


class TestFramedDamage:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as info:
            read_framed(tmp_path / "absent.bin", MAGIC, VERSION)
        assert info.value.cause == "missing"

    def test_torn_payload_is_named_truncation(self, tmp_path):
        path = framed(tmp_path / "a.bin")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError) as info:
            read_framed(path, MAGIC, VERSION)
        assert info.value.cause == "truncated-payload"

    def test_flipped_payload_byte_fails_the_checksum(self, tmp_path):
        path = framed(tmp_path / "a.bin")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as info:
            read_framed(path, MAGIC, VERSION)
        assert info.value.cause == "checksum-mismatch"

    def test_file_cut_before_the_header_ends(self, tmp_path):
        path = framed(tmp_path / "a.bin")
        path.write_bytes(b"")
        with pytest.raises(CheckpointError) as info:
            read_framed(path, MAGIC, VERSION)
        assert info.value.cause == "truncated-header"

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError) as info:
            read_framed(path, MAGIC, VERSION)
        assert info.value.cause == "unreadable-header"

    def test_header_without_checksum_is_refused(self, tmp_path):
        # A file in the same layout but written before the CRC field.
        path = tmp_path / "legacy.bin"
        with open(path, "wb") as handle:
            pickle.dump({"magic": MAGIC, "format": VERSION}, handle)
            handle.write(PAYLOAD)
        with pytest.raises(CheckpointError) as info:
            read_framed(path, MAGIC, VERSION)
        assert info.value.cause == "checksum-mismatch"


def _load(path):
    return read_framed(path, MAGIC, VERSION)[1]


class TestLoadNewestValid:
    def test_newest_valid_file_wins(self, tmp_path):
        newest = framed(tmp_path / "2.bin", payload=b"new")
        older = framed(tmp_path / "1.bin", payload=b"old")
        loaded, path, skipped = load_newest_valid([newest, older], _load)
        assert (loaded, path, skipped) == (b"new", newest, ())

    def test_corrupt_newest_falls_back_and_reports_why(self, tmp_path):
        METRICS.reset()
        newest = framed(tmp_path / "2.bin", payload=b"new")
        newest.write_bytes(newest.read_bytes()[:-1])
        older = framed(tmp_path / "1.bin", payload=b"old")
        loaded, path, skipped = load_newest_valid([newest, older], _load)
        assert (loaded, path) == (b"old", older)
        assert [(p, exc.cause) for p, exc in skipped] == [
            (newest, "truncated-payload")
        ]
        assert METRICS.counter("checkpoint.fallback.skipped") == 1
        assert METRICS.counter("checkpoint.fallback.used") == 1

    def test_nothing_valid_lists_every_cause(self, tmp_path):
        torn = framed(tmp_path / "2.bin")
        torn.write_bytes(torn.read_bytes()[:-1])
        with pytest.raises(CheckpointError) as info:
            load_newest_valid([torn, tmp_path / "1.bin"], _load)
        assert info.value.cause == "no-valid-checkpoint"
        assert "2.bin: truncated-payload" in str(info.value)
        assert "1.bin: missing" in str(info.value)

    def test_no_candidates(self):
        with pytest.raises(CheckpointError) as info:
            load_newest_valid([], _load)
        assert info.value.cause == "no-valid-checkpoint"


class TestCanonicalDigest:
    def test_is_sha256_of_sorted_compact_json(self):
        obj = {"b": [1, 2], "a": {"y": None, "x": True}}
        expected = hashlib.sha256(
            json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert canonical_digest(obj) == expected

    def test_key_order_does_not_matter(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )

    def test_any_value_change_changes_the_digest(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_non_json_values_hash_by_str(self):
        class Named:
            def __str__(self):
                return "named"

        assert canonical_digest({"v": Named()}) == canonical_digest(
            {"v": "named"}
        )
