"""Shared-memory layout: pages, blocks, and round-robin home assignment.

Stache allocates pages round-robin across nodes; the owner of a page acts
as the directory for every block on it (Section 5.1 of the paper).  The
:class:`MemoryMap` implements the address arithmetic and the
:class:`Allocator` hands out fresh blocks to workload models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import WorkloadError
from .params import SystemParams


class MemoryMap:
    """Address arithmetic for a round-robin paged shared memory."""

    def __init__(self, params: SystemParams) -> None:
        self._block_bytes = params.cache_block_bytes
        self._page_bytes = params.page_bytes
        self._n_nodes = params.n_nodes

    @property
    def block_bytes(self) -> int:
        return self._block_bytes

    @property
    def page_bytes(self) -> int:
        return self._page_bytes

    def block_of(self, addr: int) -> int:
        """Block-aligned address containing byte address ``addr``."""
        return addr - (addr % self._block_bytes)

    def page_of(self, addr: int) -> int:
        """Page number containing byte address ``addr``."""
        return addr // self._page_bytes

    def home_of(self, addr: int) -> int:
        """Home (directory) node for ``addr``: round-robin by page number."""
        return self.page_of(addr) % self._n_nodes

    def page_base(self, page: int) -> int:
        """Byte address of the first block on ``page``."""
        return page * self._page_bytes

    def blocks_on_page(self, page: int) -> List[int]:
        """All block addresses on ``page``."""
        base = self.page_base(page)
        return list(range(base, base + self._page_bytes, self._block_bytes))


class Allocator:
    """Sequential page allocator used by workload models.

    Pages come out in increasing page-number order, which is exactly
    Stache's round-robin placement: page X lives on node ``X % n``,
    page X+1 on node ``(X + 1) % n``.
    """

    def __init__(self, memory_map: MemoryMap) -> None:
        self._map = memory_map
        self._next_page = 0

    @property
    def memory_map(self) -> MemoryMap:
        return self._map

    @property
    def pages_allocated(self) -> int:
        return self._next_page

    def alloc_page(self, home: Optional[int] = None) -> int:
        """Allocate one page; return its page number.

        If ``home`` is given, skip forward to the next page whose
        round-robin home is that node (models a workload touching pages
        first from that node, e.g. per-processor private data).
        """
        n = self._map._n_nodes
        if home is not None:
            if not 0 <= home < n:
                raise WorkloadError(f"home node {home} out of range 0..{n - 1}")
            offset = (home - self._next_page) % n
            self._next_page += offset
        page = self._next_page
        self._next_page += 1
        return page

    def alloc_blocks(self, count: int, home: Optional[int] = None) -> List[int]:
        """Allocate ``count`` block addresses, page by page."""
        if count <= 0:
            raise WorkloadError(f"cannot allocate {count} blocks")
        blocks: List[int] = []
        while len(blocks) < count:
            page = self.alloc_page(home=home)
            blocks.extend(self._map.blocks_on_page(page))
        return blocks[:count]

    def alloc_block(self, home: Optional[int] = None) -> int:
        """Allocate a single block (wasting the rest of its page)."""
        return self.alloc_blocks(1, home=home)[0]
