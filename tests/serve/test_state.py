"""Shard checkpoints: round trip, fingerprint gate, torn-frame fallback."""

import pickle
import sys

import pytest

from repro.core.predictor import CosmosPredictor
from repro.core.tuples import pack
from repro.errors import CheckpointError
from repro.ioutil import write_framed
from repro.protocol.messages import MessageType
from repro.serve.config import ServeConfig
from repro.serve.state import (
    KEEP_CHECKPOINTS,
    SHARD_MAGIC,
    load_latest_shard_state,
    load_shard_checkpoint,
    save_shard_checkpoint,
    shard_checkpoint_path,
    shard_checkpoints,
)

from ..sim.test_checkpoint import _dict_backed

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
