"""Fixed-size page store for index nodes.

R-tree nodes occupy exactly one page (paper Section 3.3: 8 KB nodes,
fanout 400).  The store allocates pages from the underlying
:class:`~repro.storage.disk.Disk` in call order, so a bulk loader that
writes leaves left-to-right obtains the sequential sibling layout whose
performance consequences Section 6.2 analyzes.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.storage.disk import Disk


class PageStore:
    """Allocates and addresses fixed-size pages on a simulated disk."""

    def __init__(self, disk: Disk, page_bytes: int) -> None:
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        self.disk = disk
        self.page_bytes = page_bytes
        self._offsets: Dict[int, int] = {}
        self._next_page_id = 0
        #: Page writes so far.  The tree builders mutate a node's entry
        #: list in place and then write the page, so anything derived
        #: from page contents (an R-tree's leaf columns) is stale once
        #: this has moved.
        self.writes = 0

    def __len__(self) -> int:
        return self._next_page_id

    @property
    def total_bytes(self) -> int:
        return self._next_page_id * self.page_bytes

    def allocate(self) -> int:
        """Allocate one page, returning its page id."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self._offsets[page_id] = self.disk.allocate(self.page_bytes)
        return page_id

    def allocate_many(self, n: int) -> List[int]:
        """Allocate ``n`` pages as one contiguous run of extents."""
        return [self.allocate() for _ in range(n)]

    def offset_of(self, page_id: int) -> int:
        try:
            return self._offsets[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} was never allocated") from None

    def write(self, page_id: int, payload: Any) -> None:
        self.writes += 1
        self.disk.write(self.offset_of(page_id), self.page_bytes, payload)

    def read(self, page_id: int) -> Any:
        """Read a page, charging one page of I/O."""
        return self.disk.read(self.offset_of(page_id))

    def read_silent(self, page_id: int) -> Any:
        """Read a page without charging I/O (validation/reporting only)."""
        return self.disk.read_silent(self.offset_of(page_id))
