"""Content-addressed on-disk cache of simulation message traces.

Simulating a workload is the expensive step of every experiment; the
resulting trace depends only on ``(workload + construction kwargs,
iterations, seed, system params, protocol options)``.  This module hashes
that tuple into a cache key and stores the trace once per key, so
predictor sweeps (figures 6/7, sensitivity, ablations) replay traces from
disk instead of re-running the simulator -- across processes, including
the parallel runner's worker pool.

Layout: ``<root>/<digest[:2]>/<digest>.trace``.  Each file is a
two-frame file (:func:`repro.ioutil.write_framed`): a small metadata
header (format version, CRC-32, event count, item size and byte order,
SHA-256 of the payload, the human-readable key descriptor) followed by
the trace's raw rows -- the collector's ``array('q')`` of
:data:`~repro.trace.events.EVENT_WIDTH` ints per event, as bytes.
Loads verify the checksums, the count against the payload length, and
the item size and byte order against this machine's, then decode the
rows once with :func:`~repro.trace.events.events_from_flat`; any
mismatch, truncation, or decode error is treated as a miss -- the
corrupt file is removed and the caller re-simulates.  Writes are atomic
(a temp file moved into place with ``os.replace``) so concurrent workers
never observe a half-written trace.  Bump :data:`FORMAT_VERSION`
whenever the row encoding or the simulator's timing model changes
meaning: old entries then simply stop matching and are re-simulated,
and the first :meth:`TraceCache.store` of each cache instance deletes
every entry an older format wrote (the version is part of each key's
digest, so such entries can never be hit again).  A key also hashes
``asdict(params)``, so removing a :class:`~repro.sim.params.SystemParams`
field changes every key too: format 4 came with the removal of the six
Table 3 fields the simulator never read, so that the first store sweeps
the format-3 entries those keys orphaned.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..ioutil import canonical_digest, read_framed, write_framed
from ..sim.metrics import METRICS
from ..sim.params import SystemParams
from ..protocol.stache import StacheOptions
from .events import EVENT_WIDTH, TraceEvent, events_from_flat

#: Bump when the row encoding, the simulator's semantics or the key's
#: fields change.
FORMAT_VERSION = 4

_HEADER_MAGIC = "repro-trace-cache"


@dataclass(frozen=True)
class TraceCacheKey:
    """A content hash plus the descriptor it was derived from."""

    digest: str
    descriptor: Dict[str, object]


def trace_key(
    workload: str,
    iterations: int,
    seed: int,
    params: SystemParams,
    options: StacheOptions,
    workload_kwargs: Optional[Dict[str, int]] = None,
    faults: Optional[str] = None,
    fault_seed: int = 0,
) -> TraceCacheKey:
    """Derive the cache key for one simulation's trace.

    Every field that can change the trace participates in the hash, so a
    change to *any* config field yields a different key (and therefore a
    cache miss, never a stale hit).  ``faults`` is the canonical fault
    profile spec (see :meth:`repro.sim.faults.FaultProfile.spec`); it
    joins the descriptor only when set, so fault-free keys -- including
    every key minted before fault injection existed -- are unchanged.
    """
    descriptor: Dict[str, object] = {
        "format": FORMAT_VERSION,
        "workload": workload,
        "workload_kwargs": dict(sorted((workload_kwargs or {}).items())),
        "iterations": iterations,
        "seed": seed,
        "params": asdict(params),
        "options": asdict(options),
    }
    if faults is not None:
        descriptor["faults"] = {"spec": faults, "seed": fault_seed}
    return TraceCacheKey(
        digest=canonical_digest(descriptor), descriptor=descriptor
    )


class TraceCache:
    """Read/write access to one cache directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._swept = False

    def path_for(self, key: TraceCacheKey) -> Path:
        return self.root / key.digest[:2] / f"{key.digest}.trace"

    def load(self, key: TraceCacheKey) -> Optional[List[TraceEvent]]:
        """Return the cached trace, or ``None`` on miss/corruption.

        A corrupt or truncated entry is deleted so the follow-up
        :meth:`store` replaces it with a good one.
        """
        path = self.path_for(key)
        if not path.exists():
            METRICS.inc("trace.cache.miss")
            return None
        try:
            with METRICS.timer("trace.cache.load"):
                header, payload = read_framed(
                    path, _HEADER_MAGIC, FORMAT_VERSION
                )
                if header.get("sha256") != hashlib.sha256(payload).hexdigest():
                    raise ValueError("payload hash mismatch")
                rows = array("q")
                if (
                    header.get("itemsize") != rows.itemsize
                    or header.get("byteorder") != sys.byteorder
                ):
                    raise ValueError("row encoding mismatch")
                count = header.get("count")
                if len(payload) != count * EVENT_WIDTH * rows.itemsize:
                    raise ValueError("event count mismatch")
                rows.frombytes(payload)
                events = events_from_flat(rows)
        except Exception:
            # Any failure mode -- truncation, bit rot, a stale format,
            # a partial write from a killed process -- degrades to a
            # miss and a re-simulation, never a crash or a wrong trace.
            METRICS.inc("trace.cache.corrupt")
            METRICS.inc("trace.cache.miss")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        METRICS.inc("trace.cache.hit")
        return events

    def store(self, key: TraceCacheKey, rows: array) -> Path:
        """Atomically write a trace's rows under ``key``; return the path."""
        if not self._swept:
            self._swept = True
            self.sweep_old_formats()
        path = self.path_for(key)
        with METRICS.timer("trace.cache.store"):
            payload = rows.tobytes()
            write_framed(
                path,
                _HEADER_MAGIC,
                FORMAT_VERSION,
                {
                    "count": len(rows) // EVENT_WIDTH,
                    "itemsize": rows.itemsize,
                    "byteorder": sys.byteorder,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "descriptor": key.descriptor,
                },
                payload,
            )
        METRICS.inc("trace.cache.stored")
        return path

    def sweep_old_formats(self) -> int:
        """Delete entries written by an older :data:`FORMAT_VERSION`.

        Only the header frame of each entry is read.  Entries of a
        *newer* format are kept -- another checkout may share this
        directory -- and so are unreadable ones, which :meth:`load`
        removes if their key is ever asked for.  Returns the number of
        entries deleted.
        """
        removed = 0
        for path in self.root.glob("*/*.trace"):
            try:
                with open(path, "rb") as handle:
                    header = pickle.load(handle)
                stale = (
                    header.get("magic") == _HEADER_MAGIC
                    and header.get("format") < FORMAT_VERSION
                )
            except Exception:
                continue  # unreadable, or not a header we wrote
            if stale:
                try:
                    path.unlink()
                except OSError:
                    continue  # another process swept it first
                removed += 1
        if removed:
            METRICS.inc("trace.cache.swept", removed)
        return removed
