"""Consistent-hash routing of ``(tenant, block)`` keys to shards.

Routing must be stable across processes and platforms -- a restarted
front-end (or the replay oracle in the test suite) has to send every
block to the same shard the original run did -- so positions come from
:mod:`hashlib`, never the salted builtin ``hash`` (the same discipline
as :mod:`repro.parallel.seeds`).  Each shard owns ``vnodes`` points on a
64-bit ring; a key routes to the first shard point at or clockwise from
its own hash.  Virtual nodes keep shard load within a few percent of
even without any coordination, and consistent hashing keeps most keys
in place if a deployment ever resizes the pool (resizing invalidates
checkpoints -- see :meth:`~repro.serve.config.ServeConfig.fingerprint`
-- but cached client-side routing stays mostly right).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Tuple

#: Virtual nodes per shard.  Part of the serve fingerprint: changing it
#: moves blocks between shards, so shard checkpoints would not restore.
VNODES = 64


def _point(material: str) -> int:
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A fixed ring of ``shards * vnodes`` points."""

    def __init__(self, shards: int, vnodes: int = VNODES) -> None:
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                points.append((_point(f"shard-{shard}-vnode-{vnode}"), shard))
        points.sort()
        self.shards = shards
        self.vnodes = vnodes
        self._hashes = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, tenant: str, block: int) -> int:
        """The shard owning ``block`` for ``tenant``."""
        where = bisect.bisect_left(
            self._hashes, _point(f"{tenant}\x1f{block:x}")
        )
        if where == len(self._hashes):
            where = 0  # wrap: the ring is circular
        return self._owners[where]
