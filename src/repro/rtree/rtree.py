"""The page-resident R-tree and its read paths.

An :class:`RTree` owns a set of page ids inside a shared
:class:`~repro.storage.pages.PageStore` (both join inputs live on the
same simulated disk, as they did on the paper's single-disk machines).
It knows its root page, its height, and the id list of every page per
level — the leaf-first id ordering is what the page-request accounting
of Table 4 and the layout effects of Figure 2 rest on.

Read paths:

* :meth:`read_node` — direct, charged read (PQ touches every page
  exactly once through this path);
* :meth:`read_node_via` — read through a caller-supplied LRU buffer
  pool (ST's path; hits cost no I/O);
* :meth:`read_node_silent` — uncharged, for validation and reporting.

Each charged node read also charges one ``decode`` CPU op per entry,
modelling the cost of unpacking the 20-byte records.

:meth:`leaf_columns` is the same leaf pages as flat numpy columns, for
the vectorized PQ traversal (:mod:`repro.core.kernels.np_index`): a
host-side copy of what the simulated disk holds, built on first use,
never charged, and rebuilt when a page of the store has been written
since.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.geom.rect import Rect, intersects, mbr_of
from repro.rtree.node import LEAF_LEVEL, Node, node_capacity
from repro.storage.buffer_pool import BufferPool
from repro.storage.pages import PageStore


class RTree:
    """A bulk-loaded or incrementally built R-tree on a page store."""

    def __init__(
        self,
        store: PageStore,
        root_page_id: int,
        height: int,
        num_objects: int,
        pages_per_level: Sequence[Sequence[int]],
        name: str = "rtree",
    ) -> None:
        self.store = store
        self.root_page_id = root_page_id
        self.height = height
        self.num_objects = num_objects
        #: pages_per_level[0] are the leaves, the last entry is [root].
        self.pages_per_level: List[List[int]] = [
            list(level) for level in pages_per_level
        ]
        self.name = name
        #: ``(store.writes when built, LeafColumns)`` or None.
        self._leaf_columns = None

    # -- basic shape ----------------------------------------------------

    @property
    def capacity(self) -> int:
        return node_capacity(self.store.page_bytes)

    @property
    def page_count(self) -> int:
        """Total pages of this index — its Table 4 "lower bound" share."""
        return sum(len(level) for level in self.pages_per_level)

    @property
    def leaf_page_ids(self) -> List[int]:
        return self.pages_per_level[0]

    @property
    def leaf_page_count(self) -> int:
        return len(self.pages_per_level[0])

    @property
    def index_bytes(self) -> int:
        """On-disk size of the index (Table 2's "R-tree" rows)."""
        return self.page_count * self.store.page_bytes

    def root_mbr(self) -> Rect:
        return self.read_node_silent(self.root_page_id).mbr()

    # -- read paths -------------------------------------------------------

    def read_node(self, page_id: int) -> Node:
        """Charged read of one node page."""
        node: Node = self.store.read(page_id)
        self.store.disk.env.charge("decode", len(node.entries))
        return node

    def read_node_via(self, pool: BufferPool, page_id: int) -> Node:
        """Read through an LRU pool; only misses reach the disk."""
        node: Node = pool.request(page_id)
        self.store.disk.env.charge("decode", len(node.entries))
        return node

    def read_node_silent(self, page_id: int) -> Node:
        return self.store.read_silent(page_id)

    def leaf_columns(self):
        """The leaf pages as numpy columns (requires numpy).

        Like a catalog entry's column image this duplicates, on the
        host, records the simulated disk already holds, so it is
        neither charged nor budgeted.  The insertion builders edit a
        node's entries in place and then write the page: a build is
        kept only while the store's write count stands where it stood.
        """
        writes = self.store.writes
        if self._leaf_columns is None or self._leaf_columns[0] != writes:
            from repro.core.kernels.np_index import LeafColumns

            self._leaf_columns = (writes, LeafColumns(self))
        return self._leaf_columns[1]

    # -- queries ------------------------------------------------------------

    def query(self, window: Rect) -> Iterator[Rect]:
        """All data rectangles intersecting ``window`` (charged DFS)."""
        stack = [self.root_page_id]
        env = self.store.disk.env
        while stack:
            node = self.read_node(stack.pop())
            env.charge("query", len(node.entries))
            if node.is_leaf:
                for entry in node.entries:
                    if intersects(entry, window):
                        yield entry
            else:
                for entry in node.entries:
                    if intersects(entry, window):
                        stack.append(entry.rid)

    def iter_all(self) -> Iterator[Rect]:
        """Every data rectangle, uncharged (test/reporting helper)."""
        for page_id in self.pages_per_level[0]:
            node = self.read_node_silent(page_id)
            yield from node.entries

    # -- statistics -----------------------------------------------------------

    def packing_ratio(self) -> float:
        """Average node occupancy relative to capacity (paper: ~90%)."""
        nodes = 0
        entries = 0
        for level in self.pages_per_level:
            for page_id in level:
                node = self.read_node_silent(page_id)
                nodes += 1
                entries += len(node.entries)
        if nodes == 0:
            return 0.0
        return entries / (nodes * self.capacity)

    def stats(self) -> dict:
        return {
            "name": self.name,
            "objects": self.num_objects,
            "height": self.height,
            "pages": self.page_count,
            "leaf_pages": self.leaf_page_count,
            "index_bytes": self.index_bytes,
            "packing_ratio": self.packing_ratio(),
        }

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raise ``AssertionError`` if broken.

        * levels descend by exactly one from root to leaves;
        * every internal entry's rectangle equals its child's MBR;
        * no node exceeds capacity; only the root may hold < 2 entries;
        * the number of reachable data rectangles equals ``num_objects``;
        * the per-level page id lists match the reachable structure.
        """
        cap = self.capacity
        seen_objects = 0
        level_pages = {i: set() for i in range(self.height)}
        root = self.read_node_silent(self.root_page_id)
        assert root.level == self.height - 1, (
            f"root level {root.level} != height-1 {self.height - 1}"
        )
        stack = [(self.root_page_id, root.level)]
        while stack:
            page_id, expect_level = stack.pop()
            node = self.read_node_silent(page_id)
            assert node.level == expect_level, (
                f"page {page_id}: level {node.level}, expected {expect_level}"
            )
            assert len(node.entries) <= cap, (
                f"page {page_id}: {len(node.entries)} entries > capacity {cap}"
            )
            if page_id != self.root_page_id:
                assert len(node.entries) >= 1, f"page {page_id} is empty"
            level_pages[node.level].add(page_id)
            if node.is_leaf:
                seen_objects += len(node.entries)
                continue
            for entry in node.entries:
                child = self.read_node_silent(entry.rid)
                child_mbr = child.mbr()
                assert (
                    entry.xlo == child_mbr.xlo
                    and entry.xhi == child_mbr.xhi
                    and entry.ylo == child_mbr.ylo
                    and entry.yhi == child_mbr.yhi
                ), (
                    f"page {page_id}: entry MBR {entry} != child MBR "
                    f"{child_mbr} (child page {entry.rid})"
                )
                stack.append((entry.rid, node.level - 1))
        assert seen_objects == self.num_objects, (
            f"reachable objects {seen_objects} != recorded {self.num_objects}"
        )
        for lvl in range(self.height):
            recorded = set(self.pages_per_level[lvl])
            assert recorded == level_pages[lvl], (
                f"level {lvl}: recorded pages != reachable pages"
            )
