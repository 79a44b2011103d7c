"""Shard predictor-state checkpoints for warm restores.

A shard worker checkpoints its per-tenant predictor banks every
``checkpoint_every`` trained observations, in the two-frame format of
:func:`repro.ioutil.write_framed` (pickled header with CRC-32 and a
config fingerprint, atomic rename) under its own magic string.  The
payload pickles the live :class:`~repro.core.predictor.CosmosPredictor`
objects themselves, so a restored bank is the checkpointed one exactly
-- eviction order, parity and injector stream included.  The
supervisor restores a replacement worker from the newest checkpoint
that verifies cleanly -- a torn newest file falls back one frame via
:func:`~repro.ioutil.load_newest_valid` -- and replays the
admitted observations past that point from its outbox, so a SIGKILLed
shard loses no admitted learning and at most one checkpoint interval
has to be replayed.

Workers keep the last :data:`KEEP_CHECKPOINTS` files per shard: one to
restore from plus one to fall back to when the newest is torn.  Only
files this service would load count towards them; a file of another
format or fingerprint is neither kept in a slot nor deleted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import pickle

from ..core.predictor import CosmosPredictor
from ..errors import CheckpointError
from ..ioutil import load_newest_valid, read_framed, write_framed
from .config import STATE_FORMAT

#: Magic string of shard checkpoint headers (distinct from simulation
#: checkpoints so neither loader ever resumes from the other's files).
SHARD_MAGIC = "repro-serve-shard"

#: Checkpoint files retained per shard.
KEEP_CHECKPOINTS = 2


def shard_checkpoint_path(
    directory: Union[str, Path], shard: int, trained: int
) -> Path:
    """Canonical file name for shard ``shard`` after ``trained`` obs."""
    return Path(directory) / f"shard-{shard:02d}-{trained:08d}.ckpt"


def save_shard_checkpoint(
    directory: Union[str, Path],
    shard: int,
    trained: int,
    fingerprint: str,
    banks: Dict[str, CosmosPredictor],
) -> Path:
    """Atomically write one shard checkpoint and prune old ones."""
    body = {"trained": trained, "tenants": banks}
    payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    path = write_framed(
        shard_checkpoint_path(directory, shard, trained),
        SHARD_MAGIC,
        STATE_FORMAT,
        {"fingerprint": fingerprint, "shard": shard, "trained": trained},
        payload,
    )
    ours = [
        candidate
        for candidate in shard_checkpoints(directory, shard)
        if _written_by(candidate, fingerprint)
    ]
    for stale in ours[:-KEEP_CHECKPOINTS]:
        stale.unlink(missing_ok=True)
    return path


def _written_by(path: Path, fingerprint: str) -> bool:
    """Whether ``path``'s header is this format and ``fingerprint``.

    Reads the header frame only: a torn payload still holds its slot,
    as the fallback frame behind it must survive pruning.
    """
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
    except Exception:
        return False
    return (
        isinstance(header, dict)
        and header.get("magic") == SHARD_MAGIC
        and header.get("format") == STATE_FORMAT
        and header.get("fingerprint") == fingerprint
    )


def shard_checkpoints(directory: Union[str, Path], shard: int) -> list:
    """This shard's checkpoint files, oldest first."""
    return sorted(Path(directory).glob(f"shard-{shard:02d}-*.ckpt"))


def own_checkpoints(
    directory: Union[str, Path], shards: int, fingerprint: str
) -> List[Path]:
    """The checkpoints in ``directory`` a service with ``fingerprint``
    would warm-start its ``shards`` shards from, oldest first per shard.
    """
    return [
        path
        for shard in range(shards)
        for path in shard_checkpoints(directory, shard)
        if _written_by(path, fingerprint)
    ]


def load_shard_checkpoint(
    path: Union[str, Path], fingerprint: str
) -> Tuple[int, Dict[str, CosmosPredictor]]:
    """Load one shard checkpoint: ``(trained, tenant -> predictor)``.

    Verifies framing, checksum, and the serve-config fingerprint; every
    failure is a :class:`~repro.errors.CheckpointError` with a named
    cause, so :func:`load_newest_valid` can fall back past it.
    """
    header, payload = read_framed(path, SHARD_MAGIC, STATE_FORMAT)
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"serve config fingerprint mismatch in {path}: the checkpoint "
            f"was written by a service with a different shard layout",
            cause="fingerprint-mismatch",
        )
    try:
        body = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"cannot unpickle shard checkpoint body in {path}: {exc}",
            cause="unreadable-body",
        ) from exc
    return body["trained"], body["tenants"]


def load_latest_shard_state(
    directory: Union[str, Path], shard: int, fingerprint: str
) -> Tuple[int, Dict[str, CosmosPredictor], Optional[Path]]:
    """The newest valid checkpoint for ``shard``, or a cold start.

    Returns ``(trained, tenant banks, path)``; ``(0, {}, None)`` when
    the shard has no loadable checkpoint at all (first boot, or every
    frame corrupt -- the supervisor then replays whatever its outbox
    still holds).
    """
    candidates = list(reversed(shard_checkpoints(directory, shard)))
    if not candidates:
        return 0, {}, None
    try:
        loaded, path, _skipped = load_newest_valid(
            candidates,
            lambda p: load_shard_checkpoint(p, fingerprint),
        )
    except CheckpointError:
        return 0, {}, None
    trained, tenants = loaded
    return trained, tenants, path
