"""Shard checkpoints: round trip, fingerprint gate, torn-frame fallback;
the interval log: torn and corrupt records, foreign logs, restores."""

import os
import pickle
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CosmosConfig
from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.errors import CheckpointError
from repro.ioutil import write_framed
from repro.protocol.messages import MessageType
from repro.serve import state
from repro.serve.config import ServeConfig
from repro.serve.loadgen import tenant_of
from repro.serve.state import (
    KEEP_CHECKPOINTS,
    RECORD,
    SHARD_MAGIC,
    IntervalLog,
    load_latest_shard_state,
    load_shard_checkpoint,
    save_shard_checkpoint,
    shard_checkpoint_path,
    shard_checkpoints,
    shard_log_path,
)
from repro.serve.worker import OBSERVE, OBSERVE_TAG, ShardBanks
from repro.sim.metrics import METRICS

from ..sim.test_checkpoint import _dict_backed
from .common import synthetic_events

WORDS = [
    pack((0, MessageType.GET_RO_RESPONSE)),
    pack((1, MessageType.INVAL_RO_REQUEST)),
    pack((0, MessageType.GET_RO_RESPONSE)),
    pack((1, MessageType.INVAL_RO_REQUEST)),
]


def _trained_banks():
    banks = {"n0.cache": CosmosPredictor(), "n1.cache": CosmosPredictor()}
    for tenant, predictor in banks.items():
        for index, word in enumerate(WORDS):
            predictor.observe_word(64 * (index % 2), word)
    return banks


def test_save_load_round_trip(tmp_path):
    fingerprint = ServeConfig().fingerprint()
    banks = _trained_banks()
    path = save_shard_checkpoint(tmp_path, 0, 4, fingerprint, banks)
    trained, tenants = load_shard_checkpoint(path, fingerprint)
    assert trained == 4
    assert set(tenants) == {"n0.cache", "n1.cache"}
    # A restored predictor must behave exactly like the original.
    restored = tenants["n0.cache"]
    original = banks["n0.cache"]
    assert pickle.dumps(restored) == pickle.dumps(original)
    for index, word in enumerate(WORDS):
        block = 64 * (index % 2)
        assert restored.observe_word(block, word) == original.observe_word(
            block, word
        )
    assert pickle.dumps(restored) == pickle.dumps(original)


def _format_1_checkpoint(directory, shard, trained):
    """A shard file as format 1 wrote it: readable-tuple snapshots."""
    fingerprint = "format-1 fingerprint"
    body = {"trained": trained, "tenants": {"n0.cache": {"mht": []}}}
    return write_framed(
        shard_checkpoint_path(directory, shard, trained),
        SHARD_MAGIC,
        1,
        {"fingerprint": fingerprint, "shard": shard, "trained": trained},
        pickle.dumps(body),
    )


def test_format_1_checkpoint_is_refused_and_the_shard_cold_starts(
    tmp_path,
):
    path = _format_1_checkpoint(tmp_path, 0, 64)
    fingerprint = ServeConfig().fingerprint()
    with pytest.raises(CheckpointError) as excinfo:
        load_shard_checkpoint(path, fingerprint)
    assert excinfo.value.cause == "version-mismatch"
    assert path.name in str(excinfo.value)
    assert load_latest_shard_state(tmp_path, 0, fingerprint) == (0, {}, None)


def test_refused_files_do_not_crowd_out_new_checkpoints(tmp_path):
    # Files of an older format or another fingerprint with higher
    # trained counts sort last by name; pruning must not count them,
    # or each new checkpoint would be deleted as soon as it is written.
    for trained in (960, 1024):
        _format_1_checkpoint(tmp_path, 0, trained)
    save_shard_checkpoint(
        tmp_path, 0, 2048, ServeConfig(shards=5).fingerprint(), {}
    )
    fingerprint = ServeConfig().fingerprint()
    banks = _trained_banks()
    for trained in (4, 8, 12):
        save_shard_checkpoint(tmp_path, 0, trained, fingerprint, banks)
    names = [path.name for path in shard_checkpoints(tmp_path, 0)]
    assert names == [
        "shard-00-00000008.ckpt",
        "shard-00-00000012.ckpt",
        "shard-00-00000960.ckpt",
        "shard-00-00001024.ckpt",
        "shard-00-00002048.ckpt",
    ]
    trained, tenants, _path = load_latest_shard_state(
        tmp_path, 0, fingerprint
    )
    assert trained == 12
    assert set(tenants) == {"n0.cache", "n1.cache"}


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="instances keep attributes inline only from CPython 3.11",
)
def test_checkpointed_and_restored_banks_keep_the_inline_layout(tmp_path):
    # Pickling reads an ordinary instance's __dict__ and unpickling
    # fills one; either would slow every later observe_word call.
    fingerprint = ServeConfig().fingerprint()
    banks = _trained_banks()
    path = save_shard_checkpoint(tmp_path, 0, 4, fingerprint, banks)
    _trained, restored = load_shard_checkpoint(path, fingerprint)
    for predictor in (*banks.values(), *restored.values()):
        assert not _dict_backed(predictor)


def test_fingerprint_mismatch_is_a_named_cause(tmp_path):
    path = save_shard_checkpoint(
        tmp_path, 0, 4, ServeConfig().fingerprint(), _trained_banks()
    )
    with pytest.raises(CheckpointError) as excinfo:
        load_shard_checkpoint(path, ServeConfig(shards=5).fingerprint())
    assert excinfo.value.cause == "fingerprint-mismatch"


def test_torn_newest_falls_back_one_frame(tmp_path):
    fingerprint = ServeConfig().fingerprint()
    banks = _trained_banks()
    older = save_shard_checkpoint(tmp_path, 0, 4, fingerprint, banks)
    newest = save_shard_checkpoint(tmp_path, 0, 8, fingerprint, banks)
    # Tear the newest frame mid-payload, as a crash mid-write would.
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) // 2])
    trained, tenants, path = load_latest_shard_state(
        tmp_path, 0, fingerprint
    )
    assert trained == 4
    assert path == older
    assert set(tenants) == {"n0.cache", "n1.cache"}


def test_all_frames_corrupt_is_a_cold_start(tmp_path):
    fingerprint = ServeConfig().fingerprint()
    for trained in (4, 8):
        path = save_shard_checkpoint(
            tmp_path, 0, trained, fingerprint, _trained_banks()
        )
        path.write_bytes(b"\x00" * 16)
    assert load_latest_shard_state(tmp_path, 0, fingerprint) == (0, {}, None)


def test_empty_directory_is_a_cold_start(tmp_path):
    assert load_latest_shard_state(tmp_path, 3, "fp") == (0, {}, None)


def test_pruning_keeps_the_fallback_frame(tmp_path):
    fingerprint = ServeConfig().fingerprint()
    for trained in (4, 8, 12, 16):
        save_shard_checkpoint(tmp_path, 1, trained, fingerprint, {})
    kept = shard_checkpoints(tmp_path, 1)
    assert len(kept) == KEEP_CHECKPOINTS
    assert [p.name for p in kept] == [
        "shard-01-00000012.ckpt",
        "shard-01-00000016.ckpt",
    ]


def test_shards_do_not_see_each_others_files(tmp_path):
    fingerprint = ServeConfig().fingerprint()
    save_shard_checkpoint(tmp_path, 0, 4, fingerprint, {})
    save_shard_checkpoint(tmp_path, 1, 8, fingerprint, {})
    trained, _tenants, _path = load_latest_shard_state(
        tmp_path, 0, fingerprint
    )
    assert trained == 4


# ----------------------------------------------------------------------
# the interval log
# ----------------------------------------------------------------------

#: Observations per checkpoint interval in the log tests.
EVERY = 4


def _stream(count, seed=3, nodes=3, blocks=12):
    """``count`` observations as ``(tenant, block, word)``."""
    return [
        (tenant_of(event), event.block, pack(event.tuple))
        for event in synthetic_events(count, seed=seed, nodes=nodes,
                                      blocks=blocks)
    ]


def _observe_frame(seq, tenant, block, word):
    """The observe frame the supervisor sends for one observation."""
    data = tenant.encode("utf-8")
    return OBSERVE.pack(
        OBSERVE.size - 4 + len(data), OBSERVE_TAG, seq, block, word
    ) + data


def _run_worker(directory, stream, start, stop, fingerprint, pconfig,
                every=EVERY):
    """Train observations ``start+1 .. stop`` as a worker restored at
    ``start`` does, then drop it as a SIGKILL would: returns the last
    checkpoint it reported."""
    trained, restored, _path = load_latest_shard_state(
        directory, 0, fingerprint, pconfig
    )
    assert trained == start
    banks = ShardBanks(pconfig, restored)
    log = IntervalLog(directory, 0, fingerprint, trained, banks.banks)
    ckpt = trained
    for tenant, block, word in stream[start:stop]:
        banks.observe(tenant, block, word)
        log.frames.append(_observe_frame(trained + 1, tenant, block, word))
        trained += 1
        if trained % every == 0:
            log.checkpoint(trained, banks.banks)
            ckpt = trained
    os.close(log._fd)
    return ckpt


def _reference(stream, upto, pconfig):
    """The banks of an uninterrupted worker after ``upto`` observations."""
    banks = ShardBanks(pconfig, {})
    for tenant, block, word in stream[:upto]:
        banks.observe(tenant, block, word)
    return banks.banks


def _pickled(banks):
    """Banks compared by value: per-tenant pickles, in tenant order."""
    return [(tenant, pickle.dumps(bank)) for tenant, bank in banks.items()]


def _logs(directory):
    return sorted(Path(directory).glob("shard-00-*.log"))


def _record_ends(path):
    """Byte offsets at which a log's header and each record end."""
    blob = path.read_bytes()
    offset = len(pickle.dumps(pickle.loads(blob), pickle.HIGHEST_PROTOCOL))
    ends = [offset]
    while offset < len(blob):
        _first, size, _crc = RECORD.unpack_from(blob, offset)
        offset += RECORD.size + size
        ends.append(offset)
    return ends


FINGERPRINT = ServeConfig(checkpoint_every=EVERY).fingerprint()
PCONFIG = CosmosConfig()


def test_log_truncated_at_every_byte_offset_restores_its_whole_records(
    tmp_path,
):
    stream = _stream(40)
    # A snapshot at the first interval, then four log-only intervals.
    assert _run_worker(tmp_path, stream, 0, 20, FINGERPRINT, PCONFIG) == 20
    log = shard_log_path(tmp_path, 0, EVERY, FINGERPRINT)
    blob = log.read_bytes()
    ends = _record_ends(log)[1:]
    assert len(ends) == 4 and ends[-1] == len(blob)
    references = {
        upto: _pickled(_reference(stream, upto, PCONFIG))
        for upto in range(EVERY, 21, EVERY)
    }
    for offset in range(len(blob) + 1):
        log.write_bytes(blob[:offset])
        trained, tenants, _path = load_latest_shard_state(
            tmp_path, 0, FINGERPRINT, PCONFIG
        )
        whole = sum(1 for end in ends if end <= offset)
        assert trained == EVERY * (1 + whole), offset
        assert _pickled(tenants) == references[trained], offset


def test_a_flipped_payload_byte_stops_replay_at_that_record(tmp_path):
    stream = _stream(40)
    _run_worker(tmp_path, stream, 0, 20, FINGERPRINT, PCONFIG)
    log = shard_log_path(tmp_path, 0, EVERY, FINGERPRINT)
    blob = bytearray(log.read_bytes())
    ends = _record_ends(log)
    # The last frame byte of the third record (ordinals 13..16).
    blob[ends[3] - 1] ^= 0x01
    log.write_bytes(bytes(blob))
    trained, tenants, _path = load_latest_shard_state(
        tmp_path, 0, FINGERPRINT, PCONFIG
    )
    assert trained == 12
    assert _pickled(tenants) == _pickled(_reference(stream, 12, PCONFIG))


def test_a_record_cut_out_of_a_log_is_a_gap_that_stops_replay(tmp_path):
    stream = _stream(40)
    _run_worker(tmp_path, stream, 0, 20, FINGERPRINT, PCONFIG)
    log = shard_log_path(tmp_path, 0, EVERY, FINGERPRINT)
    blob = log.read_bytes()
    ends = _record_ends(log)
    # Drop the second record (ordinals 9..12); the third still verifies.
    log.write_bytes(blob[: ends[1]] + blob[ends[2] :])
    trained, tenants, _path = load_latest_shard_state(
        tmp_path, 0, FINGERPRINT, PCONFIG
    )
    assert trained == 8
    assert _pickled(tenants) == _pickled(_reference(stream, 8, PCONFIG))


def test_a_foreign_log_is_neither_replayed_nor_pruned(tmp_path):
    stream = _stream(200)
    foreign_fp = ServeConfig(checkpoint_every=EVERY, seed=1).fingerprint()
    other = tmp_path / "other"
    other.mkdir()
    _run_worker(other, stream, 0, 20, foreign_fp, PCONFIG)
    foreign = shard_log_path(other, 0, EVERY, foreign_fp)
    ours = tmp_path / "ours"
    ours.mkdir()
    _run_worker(ours, stream, 0, EVERY, FINGERPRINT, PCONFIG)
    # The foreign log would chain on from our snapshot at ordinal 4.
    copied = ours / foreign.name
    copied.write_bytes(foreign.read_bytes())
    trained, _tenants, _path = load_latest_shard_state(
        ours, 0, FINGERPRINT, PCONFIG
    )
    assert trained == EVERY
    # A restored worker snapshots at once, then every 16 intervals;
    # the snapshots at 132 and 196 prune our older files.
    _run_worker(ours, stream, EVERY, 200, FINGERPRINT, PCONFIG)
    assert [p.name for p in shard_checkpoints(ours, 0)] == [
        "shard-00-00000132.ckpt",
        "shard-00-00000196.ckpt",
    ]
    assert copied.read_bytes() == foreign.read_bytes()
    assert sorted(p.name for p in _logs(ours)) == sorted(
        [
            shard_log_path(ours, 0, 132, FINGERPRINT).name,
            shard_log_path(ours, 0, 196, FINGERPRINT).name,
            copied.name,
        ]
    )


def test_torn_newest_snapshot_falls_back_to_the_previous_plus_the_logs(
    tmp_path,
):
    stream = _stream(120)
    assert _run_worker(tmp_path, stream, 0, 110, FINGERPRINT, PCONFIG) == 108
    older, newest = shard_checkpoints(tmp_path, 0)
    assert newest.name == "shard-00-00000068.ckpt"
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) // 2])
    METRICS.reset()
    trained, tenants, path = load_latest_shard_state(
        tmp_path, 0, FINGERPRINT, PCONFIG
    )
    assert path == older
    assert METRICS.counter("checkpoint.fallback.used") == 1
    assert trained == 108
    assert _pickled(tenants) == _pickled(_reference(stream, 108, PCONFIG))


def test_a_restored_incarnation_starts_a_log_at_its_ordinal(tmp_path):
    stream = _stream(120)
    assert _run_worker(tmp_path, stream, 0, 30, FINGERPRINT, PCONFIG) == 28
    assert _run_worker(tmp_path, stream, 28, 50, FINGERPRINT, PCONFIG) == 48
    # The second incarnation snapshotted its restored state at once.
    assert [p.name for p in shard_checkpoints(tmp_path, 0)] == [
        "shard-00-00000004.ckpt",
        "shard-00-00000028.ckpt",
    ]
    assert shard_log_path(tmp_path, 0, 28, FINGERPRINT).exists()
    # Tear the newest snapshot: the chain runs from ordinal 4 through
    # both incarnations' logs.
    newest = shard_checkpoints(tmp_path, 0)[-1]
    newest.write_bytes(newest.read_bytes()[:40])
    trained, tenants, _path = load_latest_shard_state(
        tmp_path, 0, FINGERPRINT, PCONFIG
    )
    assert trained == 48
    assert _pickled(tenants) == _pickled(_reference(stream, 48, PCONFIG))


PREDICTOR_CONFIGS = [
    CosmosConfig(),
    *(
        CosmosConfig(mhr_capacity=4, pht_capacity=6, eviction=policy)
        for policy in ("lru", "clock", "decay")
    ),
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=st.data(),
    seed=st.integers(0, 2**16),
    count=st.integers(0, 160),
    every=st.integers(1, 6),
    snapshot_intervals=st.sampled_from([1, 2, 3, 16]),
    pconfig=st.sampled_from(PREDICTOR_CONFIGS),
)
def test_restore_equals_an_uninterrupted_worker(
    tmp_path_factory, data, seed, count, every, snapshot_intervals, pconfig
):
    """Crash a worker at random points, restoring after each; at the
    last crash tear at most one file.

    Any snapshot or older log may be torn anywhere.  The newest log is
    torn as a crash tears it, in its last write only (the last record,
    or the header of a log with none): every earlier append finished
    before the crash, and it is the only copy of its records.
    """
    directory = tmp_path_factory.mktemp("restore")
    stream = _stream(count, seed=seed, nodes=4)
    fingerprint = ServeConfig(checkpoint_every=every).fingerprint()
    crashes = sorted(
        data.draw(st.lists(st.integers(0, count), min_size=1, max_size=3))
    )
    start = ckpt = 0
    with mock.patch.object(state, "SNAPSHOT_INTERVALS", snapshot_intervals):
        for crash in crashes:
            stop = max(crash, start)
            ckpt = _run_worker(
                directory, stream, start, stop, fingerprint, pconfig, every
            )
            # The supervisor replays its outbox from the restored ordinal.
            start = load_latest_shard_state(
                directory, 0, fingerprint, pconfig
            )[0]
            assert start == ckpt
    newest_log = max(_logs(directory), key=lambda p: p.name.split("-")[2])
    torn = data.draw(st.sampled_from([None, *sorted(directory.iterdir())]))
    if torn is not None:
        blob = torn.read_bytes()
        lowest = 0
        if torn == newest_log:
            ends = _record_ends(torn)
            lowest = ends[-2] if len(ends) > 1 else 0
        torn.write_bytes(blob[: data.draw(st.integers(lowest, len(blob)))])
    trained, tenants, _path = load_latest_shard_state(
        directory, 0, fingerprint, pconfig
    )
    assert ckpt - every <= trained <= ckpt
    assert _pickled(tenants) == _pickled(_reference(stream, trained, pconfig))
