"""Crash-safe file writing shared by every artifact producer.

Every file this package leaves behind for a human or a follow-up run --
traces, metrics JSON, timeline exports, HTML reports, checkpoints, shard
journals -- is written through :func:`atomic_write`: the content goes to
a temp file in the destination directory and is moved into place with
``os.replace``, which is atomic on POSIX and Windows for same-filesystem
renames.  A reader (or a resumed run) therefore sees either the complete
old file, the complete new file, or no file -- never a truncated one,
no matter when the writing process is killed.

Simulation checkpoints, serve shard checkpoints and trace-cache entries
share one two-frame file format on top of that (:func:`write_framed`,
:func:`read_framed`, :func:`load_newest_valid`), and every content hash
is :func:`canonical_digest`; this module centralizes both patterns so no
writer open-codes them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, List, Tuple, Union

from .errors import CheckpointError
from .obs.manifest import build_manifest
from .sim.metrics import METRICS


@contextmanager
def atomic_write(
    path: Union[str, Path],
    mode: str = "w",
    fsync: bool = False,
) -> Iterator[IO]:
    """Yield a handle whose contents replace ``path`` atomically on success.

    A text-mode handle is UTF-8.  The temp file lives in ``path``'s
    directory (same filesystem, so the final ``os.replace`` is a rename,
    not a copy).  Parent directories are created as needed.  If the body
    raises, the temp file is removed and the destination is left
    untouched.  ``fsync=True`` additionally flushes the file (and, on
    POSIX, its directory) to stable storage before the rename -- use it
    for journals that must survive power loss, not just process death.
    """
    target = Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    encoding = None if "b" in mode else "utf-8"
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent) or ".",
        prefix=f".{target.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
        if fsync:
            _fsync_dir(target.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(
    path: Union[str, Path], text: str, fsync: bool = False
) -> Path:
    """Atomically replace ``path`` with ``text``; return the path."""
    with atomic_write(path, "w", fsync=fsync) as handle:
        handle.write(text)
    return Path(path)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (best effort; no-op where unsupported)."""
    try:
        fd = os.open(str(directory) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_append(handle: IO, text: str) -> None:
    """Append ``text`` to an open handle and push it to stable storage.

    Journal writers use this for per-record durability: flush the Python
    buffer, then ``os.fsync`` so a ``kill -9`` (of this process or the
    machine) cannot swallow an acknowledged record.
    """
    handle.write(text)
    handle.flush()
    os.fsync(handle.fileno())


def canonical_digest(obj: object) -> str:
    """SHA-256 hex digest of ``obj`` as sorted, compact JSON.

    Values JSON cannot encode are hashed by their ``str`` form.
    """
    canonical = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# two-frame files: simulation checkpoints, shard checkpoints, trace cache
# ----------------------------------------------------------------------


def write_framed(
    path: Union[str, Path],
    magic: str,
    version: int,
    header_extra: dict,
    payload: bytes,
) -> Path:
    """Atomically write a two-frame file.

    Frame one is a small pickled header -- ``magic``, format
    ``version``, a CRC-32 of the payload, the payload length, and the
    caller's ``header_extra`` fields (fingerprint, iteration bounds,
    ...); frame two is the raw ``payload`` bytes.  The recorded length
    is what lets :func:`read_framed` distinguish a *truncated* second
    frame from bit rot and report a named cause.

    No fsync: atomic rename keeps every crash of the *process* safe
    (the page cache survives kill -9), and the checksum turns an
    OS-crash torn write into a clean load error rather than a silent
    bad resume.  The run journal, whose records are acknowledgments,
    does fsync (see :mod:`repro.parallel.journal`).
    """
    header = {
        "magic": magic,
        "format": version,
        # CRC-32, not a cryptographic hash: the threat model is
        # truncation and bit rot, and sha256 over a multi-MiB
        # payload would dominate the cost of saving a checkpoint.
        "checksum": f"crc32:{zlib.crc32(payload):08x}",
        "payload_bytes": len(payload),
        # Attribution only; never participates in validation.
        "manifest": build_manifest(f"{magic}-save"),
    }
    header.update(header_extra)
    with atomic_write(path, "wb") as handle:
        pickle.dump(header, handle)
        handle.write(payload)
    return Path(path)


def read_framed(
    path: Union[str, Path], magic: str, version: int
) -> Tuple[dict, bytes]:
    """Read and verify a two-frame file written by :func:`write_framed`.

    Every failure mode raises :class:`~repro.errors.CheckpointError`
    naming the file *and* carrying a machine-readable ``cause``:
    ``missing``, ``truncated-header``, ``unreadable-header``,
    ``bad-magic``, ``version-mismatch``, ``truncated-payload``, or
    ``checksum-mismatch``.  A truncated second frame (the classic torn
    write at the frame boundary) is told apart from bit rot by the
    header's recorded payload length; headers written before the length
    field existed fall through to the checksum check.
    """
    target = Path(path)
    if not target.exists():
        raise CheckpointError(f"no checkpoint at {target}", cause="missing")
    try:
        with open(target, "rb") as handle:
            header = pickle.load(handle)
            payload = handle.read()
    except EOFError as exc:
        raise CheckpointError(
            f"truncated checkpoint header in {target}: the file ends "
            f"inside the header frame ({exc})",
            cause="truncated-header",
        ) from exc
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint header in {target}: {exc}",
            cause="unreadable-header",
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise CheckpointError(
            f"{target} is not a {magic!r} checkpoint", cause="bad-magic"
        )
    if header.get("format") != version:
        raise CheckpointError(
            f"{target} has checkpoint format {header.get('format')}; "
            f"this build reads format {version}",
            cause="version-mismatch",
        )
    expected_bytes = header.get("payload_bytes")
    if expected_bytes is not None and len(payload) < expected_bytes:
        raise CheckpointError(
            f"truncated checkpoint payload in {target}: header promises "
            f"{expected_bytes} bytes but only {len(payload)} follow the "
            "frame boundary (torn write)",
            cause="truncated-payload",
        )
    if f"crc32:{zlib.crc32(payload):08x}" != header.get("checksum"):
        raise CheckpointError(
            f"checksum mismatch in {target}: the checkpoint is "
            "corrupt (truncated write or bit rot); re-run from an "
            "earlier checkpoint or from scratch",
            cause="checksum-mismatch",
        )
    return header, payload


def load_newest_valid(
    paths: Iterable[Union[str, Path]],
    loader: Callable[[Union[str, Path]], object],
) -> Tuple[object, Path, Tuple[Tuple[Path, CheckpointError], ...]]:
    """Load the first of ``paths`` (newest first) that verifies cleanly.

    The fallback discipline shared by simulation resume and the serving
    layer's warm-restore: a torn or corrupt newer checkpoint must not
    strand the run when an older valid one exists.  Returns ``(loaded,
    path, skipped)`` where ``skipped`` records each newer file that was
    passed over together with its named :class:`CheckpointError`.
    Raises a ``no-valid-checkpoint`` :class:`CheckpointError` listing
    every candidate's cause when nothing loads.
    """
    skipped: List[Tuple[Path, CheckpointError]] = []
    candidates = [Path(path) for path in paths]
    for path in candidates:
        try:
            loaded = loader(path)
        except CheckpointError as exc:
            skipped.append((path, exc))
            METRICS.inc("checkpoint.fallback.skipped")
            continue
        if skipped:
            METRICS.inc("checkpoint.fallback.used")
        return loaded, path, tuple(skipped)
    if not candidates:
        raise CheckpointError(
            "no checkpoint candidates to load", cause="no-valid-checkpoint"
        )
    reasons = "; ".join(
        f"{path.name}: {exc.cause or 'error'} ({exc})"
        for path, exc in skipped
    )
    raise CheckpointError(
        f"no valid checkpoint among {len(candidates)} candidate(s): "
        f"{reasons}",
        cause="no-valid-checkpoint",
    )
