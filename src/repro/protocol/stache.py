"""Protocol-level options of the Wisconsin Stache protocol.

Stache (Reinhardt, Larus & Wood) is a software, full-map, write-invalidate
directory protocol.  The paper highlights the properties that matter for
coherence-message prediction (Section 5.1); each is represented here:

* **half-migratory optimization** -- on a read or write miss from another
  cache, the directory asks the current exclusive holder to *invalidate*
  its copy (``inval_rw_request``) rather than demote it to shared
  (``downgrade_request``).  Toggled by :attr:`StacheOptions.half_migratory`
  so the appbt-hurts / dsmc-helps effect can be measured.
* **round-robin page placement with home-node locality** -- implemented by
  :class:`repro.sim.memory_map.MemoryMap`; the home node accesses its own
  directory pages without generating messages.
* **no cache-page replacement** -- caches never evict remote blocks, so
  Cosmos history persists (the controllers simply never replace).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StacheOptions:
    """Tunable protocol behaviours."""

    #: Invalidate (rather than downgrade) an exclusive copy when another
    #: node misses on the block.
    half_migratory: bool = True

    #: Serve remote-owner misses with Origin-style three-hop forwarding
    #: instead of Stache's four-message recall
    #: (see :mod:`repro.protocol.origin`).
    forwarding: bool = False

    #: Give caches a finite direct-mapped capacity with silent clean
    #: replacement (Stache itself never replaces; Section 5.1).  The
    #: directory then tolerates stale sharers re-requesting blocks.
    finite_caches: bool = False


#: Stache as the paper ran it.
DEFAULT_OPTIONS = StacheOptions()
