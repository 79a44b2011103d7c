"""Crash-safe file writing shared by every artifact producer.

Every file this package leaves behind for a human or a follow-up run --
traces, metrics JSON, timeline exports, HTML reports, checkpoints, shard
journals -- is written through :func:`atomic_write`: the content goes to
a temp file in the destination directory and is moved into place with
``os.replace``, which is atomic on POSIX and Windows for same-filesystem
renames.  A reader (or a resumed run) therefore sees either the complete
old file, the complete new file, or no file -- never a truncated one,
no matter when the writing process is killed.

Trace-cache entries (:mod:`repro.trace.cache`) are stored the same way;
this module centralizes the pattern so no writer open-codes it.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union


@contextmanager
def atomic_write(
    path: Union[str, Path],
    mode: str = "w",
    encoding: "str | None" = "utf-8",
    fsync: bool = False,
) -> Iterator[IO]:
    """Yield a handle whose contents replace ``path`` atomically on success.

    The temp file lives in ``path``'s directory (same filesystem, so the
    final ``os.replace`` is a rename, not a copy).  Parent directories
    are created as needed.  If the body raises, the temp file is removed
    and the destination is left untouched.  ``fsync=True`` additionally
    flushes the file (and, on POSIX, its directory) to stable storage
    before the rename -- use it for journals that must survive power
    loss, not just process death.
    """
    target = Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    if "b" in mode:
        encoding = None
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
