"""Shard predictor state for warm restores: snapshots plus an interval log.

A shard worker makes its training durable once per checkpoint interval
(``checkpoint_every`` trained observations) by appending one record to
its **interval log**: the interval's ``observe`` frames exactly as the
pipe delivered them (the :data:`~repro.serve.worker.OBSERVE` layout),
behind a :data:`RECORD` header of the first ordinal it trains, its byte
count and its CRC-32.  Ordinals here are the worker's trained counts,
the same numbers the snapshots are named by.  The log is the durable
twin of the supervisor's outbox, which holds the same frames.  Each log
file opens with a pickled header of its own magic, format, the
serve-config fingerprint and its start ordinal; the worker keeps it
open with ``O_APPEND`` and writes each record with one ``os.write``.

A full **snapshot** -- the two-frame format of
:func:`repro.ioutil.write_framed` (pickled header with CRC-32 and the
fingerprint, atomic rename) around the pickled live
:class:`~repro.core.predictor.CosmosPredictor` banks, so a restored bank
is the snapshotted one exactly -- is written at a worker's first
checkpoint (at once, for a worker restored past ordinal 0) and then
every :data:`SNAPSHOT_INTERVALS` intervals.  Its interval is appended
to the log first and the next log file starts at its ordinal, so
records chain by ordinal across files with no gap.

A restore (:func:`load_latest_shard_state`) takes the newest snapshot
that verifies cleanly -- a torn newest file falls back one frame via
:func:`~repro.ioutil.load_newest_valid`, no valid one at all is the
empty state at ordinal 0 -- then replays the log records that chain on
from it through :meth:`ShardBanks.observe`, the live training path.  It
stops at the first torn record, bad CRC or ordinal gap that no later
file continues past.  The supervisor then replays the admitted
observations past that point from its outbox, so a SIGKILLed shard
loses no admitted learning.

Workers keep the last :data:`KEEP_CHECKPOINTS` snapshots per shard (one
to restore from plus one to fall back to when the newest is torn) and
the logs from the oldest kept one on.  Only files this service would
load count: a snapshot or log of another format or fingerprint is never
replayed, never kept in a slot and never deleted.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.config import CosmosConfig
from ..core.predictor import CosmosPredictor
from ..errors import CheckpointError
from ..ioutil import load_newest_valid, read_framed, write_framed
from .config import STATE_FORMAT
from .worker import LENGTH, OBSERVE, ShardBanks, write_frame

#: Magic string of shard checkpoint headers (distinct from simulation
#: checkpoints so neither loader ever resumes from the other's files).
SHARD_MAGIC = "repro-serve-shard"

#: Snapshot files retained per shard.
KEEP_CHECKPOINTS = 2

#: A worker snapshots its banks every this many checkpoint intervals
#: (and at its first); the intervals between are log appends only.
SNAPSHOT_INTERVALS = 16

#: Magic string and format of interval-log headers.
LOG_MAGIC = "repro-serve-log"
LOG_FORMAT = 1

#: An interval-log record header: the first ordinal the record trains,
#: the byte count of the frames that follow, and their CRC-32.
RECORD = struct.Struct(">qII")


def shard_checkpoint_path(
    directory: Union[str, Path], shard: int, trained: int
) -> Path:
    """Canonical file name for shard ``shard`` after ``trained`` obs."""
    return Path(directory) / f"shard-{shard:02d}-{trained:08d}.ckpt"


def shard_log_path(
    directory: Union[str, Path], shard: int, start: int, fingerprint: str
) -> Path:
    """The interval log a worker of ``shard`` opens at ordinal ``start``.

    The name carries a fingerprint prefix, so two services sharing a
    directory never open (and truncate) each other's logs.
    """
    return (
        Path(directory)
        / f"shard-{shard:02d}-{start:08d}-{fingerprint[:8]}.log"
    )


def save_shard_checkpoint(
    directory: Union[str, Path],
    shard: int,
    trained: int,
    fingerprint: str,
    banks: Dict[str, CosmosPredictor],
) -> Path:
    """Atomically write one shard snapshot and prune old files."""
    body = {"trained": trained, "tenants": banks}
    payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    path = write_framed(
        shard_checkpoint_path(directory, shard, trained),
        SHARD_MAGIC,
        STATE_FORMAT,
        {"fingerprint": fingerprint, "shard": shard, "trained": trained},
        payload,
    )
    ours = []
    for candidate in shard_checkpoints(directory, shard):
        header = _own_header(candidate, SHARD_MAGIC, STATE_FORMAT, fingerprint)
        if header is not None:
            ours.append((candidate, header["trained"]))
    for stale, _trained in ours[:-KEEP_CHECKPOINTS]:
        stale.unlink(missing_ok=True)
    if len(ours) >= KEEP_CHECKPOINTS:
        _prune_logs(directory, shard, fingerprint, ours[-KEEP_CHECKPOINTS][1])
    return path


def _prune_logs(
    directory: Union[str, Path], shard: int, fingerprint: str, oldest: int
) -> None:
    """Delete this service's logs that end before snapshot ``oldest``.

    The newest log opened at or before ``oldest`` holds the record after
    it, so the logs kept are that one and every later one.
    """
    logs = _own_logs(directory, shard, fingerprint)
    base = max((start for start, _path in logs if start <= oldest), default=0)
    for start, path in logs:
        if start < base:
            path.unlink(missing_ok=True)


def _own_header(
    path: Path, magic: str, version: int, fingerprint: str
) -> Optional[dict]:
    """``path``'s header if it is ``magic``/``version``/``fingerprint``.

    Reads the header only: a torn body still holds its slot, as the
    fallback behind it must survive pruning.
    """
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
    except Exception:
        return None
    if (
        isinstance(header, dict)
        and header.get("magic") == magic
        and header.get("format") == version
        and header.get("fingerprint") == fingerprint
    ):
        return header
    return None


def shard_checkpoints(directory: Union[str, Path], shard: int) -> list:
    """This shard's snapshot files, oldest first."""
    return sorted(Path(directory).glob(f"shard-{shard:02d}-*.ckpt"))


def _own_logs(
    directory: Union[str, Path], shard: int, fingerprint: str
) -> List[Tuple[int, Path]]:
    """``(start, path)`` of this service's logs for ``shard``, oldest first."""
    logs = []
    for path in Path(directory).glob(f"shard-{shard:02d}-*.log"):
        header = _own_header(path, LOG_MAGIC, LOG_FORMAT, fingerprint)
        if header is not None:
            logs.append((header["start"], path))
    return sorted(logs)


def own_checkpoints(
    directory: Union[str, Path], shards: int, fingerprint: str
) -> List[Path]:
    """The snapshots in ``directory`` a service with ``fingerprint``
    would warm-start its ``shards`` shards from, oldest first per shard.
    """
    return [
        path
        for shard in range(shards)
        for path in shard_checkpoints(directory, shard)
        if _own_header(path, SHARD_MAGIC, STATE_FORMAT, fingerprint)
    ]


def load_shard_checkpoint(
    path: Union[str, Path], fingerprint: str
) -> Tuple[int, Dict[str, CosmosPredictor]]:
    """Load one shard snapshot: ``(trained, tenant -> predictor)``.

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
    directory: Union[str, Path],
    shard: int,
    fingerprint: str,
    pconfig: CosmosConfig = CosmosConfig(),
) -> Tuple[int, Dict[str, CosmosPredictor], Optional[Path]]:
    """Restore ``shard``: its newest valid snapshot plus the chained log.

    Returns ``(trained, tenant banks, snapshot path)``.  The snapshot
    banks go through ``ShardBanks(pconfig, ...)`` (which adopts and
    evicts them down to ``pconfig``'s budget when it differs), and the
    log records that chain on from the snapshot's ordinal train them
    through :meth:`ShardBanks.observe`; a ``ShardBanks`` built over the
    result adopts nothing.  No valid snapshot is the empty state at
    ordinal 0 with path ``None``, so a shard with no loadable file at
    all returns ``(0, {}, None)``.
    """
    trained, tenants, path = 0, {}, None
    candidates = list(reversed(shard_checkpoints(directory, shard)))
    if candidates:
        try:
            (trained, tenants), path, _skipped = load_newest_valid(
                candidates,
                lambda p: load_shard_checkpoint(p, fingerprint),
            )
        except CheckpointError:
            pass
    banks = ShardBanks(pconfig, tenants)
    for start, log in _own_logs(directory, shard, fingerprint):
        if start > trained:
            break  # no file holds the next record: the chain ends
        trained = _replay_log(log, banks, trained)
    return trained, banks.banks, path


def _replay_log(path: Path, banks: ShardBanks, trained: int) -> int:
    """Train ``banks`` on ``path``'s records past ordinal ``trained``.

    Stops at the file's end, a torn or bad-CRC record, or a record that
    does not start at ``trained + 1``; returns the ordinal reached.
    """
    try:
        with open(path, "rb") as handle:
            pickle.load(handle)  # the header, checked by _own_logs
            body = handle.read()
    except Exception:
        return trained
    offset = 0
    while offset + RECORD.size <= len(body):
        first, size, crc = RECORD.unpack_from(body, offset)
        offset += RECORD.size
        frames = body[offset : offset + size]
        offset += size
        if len(frames) < size or zlib.crc32(frames) != crc:
            break
        if first <= trained:
            continue  # restored already
        if first != trained + 1:
            break
        at = 0
        while at < size:
            end = at + 4 + LENGTH.unpack_from(frames, at)[0]
            _size, _tag, _seq, block, word = OBSERVE.unpack_from(frames, at)
            banks.observe(
                frames[at + OBSERVE.size : end].decode("utf-8"), block, word
            )
            trained += 1
            at = end
    return trained


class IntervalLog:
    """One worker incarnation's durable state: its log and snapshots.

    The worker appends each observe frame it trains to :attr:`frames`
    and calls :meth:`checkpoint` at the end of each interval.  A new
    incarnation opens a new log file at its restored ordinal; one
    restored past ordinal 0 snapshots its banks first.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard: int,
        fingerprint: str,
        trained: int,
        banks: Dict[str, CosmosPredictor],
    ) -> None:
        self.directory = directory
        self.shard = shard
        self.fingerprint = fingerprint
        #: This interval's observe frames, oldest first.
        self.frames: List[bytes] = []
        if trained:
            # A restored worker snapshots at once, so its state stops
            # depending on the logs it replayed: one torn older log
            # could otherwise end a later restore's chain early.
            save_shard_checkpoint(
                directory, shard, trained, fingerprint, banks
            )
            #: Intervals logged since the last snapshot.
            self._intervals = 0
        else:
            self._intervals = SNAPSHOT_INTERVALS - 1  # snapshot at first
        self._fd = self._open(trained)

    def _open(self, start: int) -> int:
        """Start the log file whose first record trains ``start + 1``."""
        path = shard_log_path(
            self.directory, self.shard, start, self.fingerprint
        )
        fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644
        )
        header = {
            "magic": LOG_MAGIC,
            "format": LOG_FORMAT,
            "fingerprint": self.fingerprint,
            "shard": self.shard,
            "start": start,
        }
        write_frame(fd, pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL))
        return fd

    def checkpoint(
        self, trained: int, banks: Dict[str, CosmosPredictor]
    ) -> None:
        """Make everything up to ordinal ``trained`` durable.

        Appends the interval's record, and every
        :data:`SNAPSHOT_INTERVALS` intervals also snapshots ``banks``
        and starts the next log file at ``trained``.
        """
        frames = b"".join(self.frames)
        first = trained - len(self.frames) + 1
        self.frames.clear()
        write_frame(
            self._fd,
            RECORD.pack(first, len(frames), zlib.crc32(frames)) + frames,
        )
        self._intervals += 1
        if self._intervals < SNAPSHOT_INTERVALS:
            return
        self._intervals = 0
        save_shard_checkpoint(
            self.directory, self.shard, trained, self.fingerprint, banks
        )
        os.close(self._fd)
        self._fd = self._open(trained)
