"""LRU buffer pool for index pages.

The synchronized tree join (ST) revisits R-tree nodes, so the paper
grants it a 22 MB LRU pool (Section 3.3) — generous enough that the NJ
and NY indexes fit entirely, making ST's disk reads drop to (slightly
below) the number of index pages, while the DISK* indexes overflow the
pool and pages are re-read 1.14-1.63 times on average (Table 4).

``requests`` counts logical page requests; ``misses`` counts the ones
that actually reached the disk.  Table 4 reports disk reads, i.e.
misses; the hit/request split powers the buffer-pool ablation bench.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.storage.pages import PageStore


class BufferPool:
    """Fixed-capacity LRU cache in front of a :class:`PageStore`."""

    def __init__(self, store: PageStore, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError("buffer pool needs at least one page")
        self.store = store
        self.capacity = capacity_pages
        self._cache: "OrderedDict[int, Any]" = OrderedDict()
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def request(self, page_id: int) -> Any:
        """Return the page payload, reading from disk only on a miss."""
        self.requests += 1
        if page_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(page_id)
            return self._cache[page_id]
        self.misses += 1
        payload = self.store.read(page_id)
        self._cache[page_id] = payload
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.evictions += 1
        return payload

    def contains(self, page_id: int) -> bool:
        return page_id in self._cache

    def clear(self) -> None:
        """Drop every resident page.

        Counters (``requests``/``hits``/``misses``/``evictions``) are
        deliberately left intact: clearing models a cold restart of the
        *pages*, while the statistics describe the pool's whole service
        history.
        """
        self._cache.clear()

    @property
    def resident_pages(self) -> int:
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0
