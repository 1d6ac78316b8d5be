"""Sorted rectangle sources — the unification at the heart of PQ.

Section 4's key idea: a join input, whatever its physical
representation, can be presented as *a stream of MBRs sorted by lower
y-coordinate*, and then a single plane-sweep joins any combination of
representations.  The representations:

* :class:`ListSource` — an in-memory list (sorted on construction);
* :class:`StreamSource` — a disk stream that is already y-sorted
  (SSSJ's path: external sort, then scan);
* :class:`IndexSource` — the paper's *index adapter*: extracts data
  rectangles from an R-tree in sorted order with a priority-queue-driven
  traversal that touches every node at most once (Figure 1 of the
  paper);
* :class:`JoinSource` — the output of another PQ join (the intersection
  rectangles stream out in sweep order), enabling the multi-way joins
  of Section 4.

:class:`IndexSource` implements both paper refinements:

1. **two queues** — internal nodes are queued as 12-byte
   ``(y, page id)`` tuples, data rectangles as full 20-byte records, and
   the next item is whichever queue head is smaller;
2. **per-leaf feeding** — when a leaf is read, its rectangles are sorted
   once and only the head enters the data queue; each pop pushes that
   leaf's next rectangle, keeping the data queue small (the heap-cost
   optimization at the end of Section 4).

It also implements the "slightly more complicated version" the paper
sketches: an optional *prune window* restricts the traversal to subtrees
intersecting the window, which is what makes indexed joins win on
localized inputs (Section 6.3's Minnesota example).  And it implements
the paper's overflow note — "PQ can be modified to handle overflow
gracefully by using an external priority queue [2, 9]" — via
``queue_memory_items``: when set, both queues become
:class:`repro.storage.pqueue.ExternalHeap` instances that spill their
largest half to disk instead of growing without bound.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.geom.rect import RECT_BYTES, Rect, intersects
from repro.rtree.rtree import RTree
from repro.storage.pqueue import ExternalHeap
from repro.storage.stream import Stream

#: Bytes per internal-node queue entry: lower y (float32 would do, the
#: paper stores (y, page ID)) — 8 bytes of key + 4 of page id.
NODE_ENTRY_BYTES = 12


class SortedSource:
    """Protocol: iterable of rectangles in nondecreasing ``ylo`` order.

    Concrete sources expose ``__iter__`` plus a ``max_memory_bytes``
    attribute (populated after iteration) so PQ can report Table 3
    numbers for any input mix.
    """

    max_memory_bytes: int = 0

    def __iter__(self) -> Iterator[Rect]:  # pragma: no cover - protocol
        raise NotImplementedError


class ListSource(SortedSource):
    """In-memory rectangles, sorted here unless the caller vouches."""

    def __init__(self, rects: Iterable[Rect], env=None,
                 presorted: bool = False) -> None:
        self.rects = list(rects)
        if not presorted:
            self.rects.sort(key=lambda r: (r.ylo, r.xlo, r.rid))
            if env is not None and len(self.rects) > 1:
                env.charge(
                    "sort", int(len(self.rects) * math.log2(len(self.rects)))
                )
        self.max_memory_bytes = len(self.rects) * RECT_BYTES

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.rects)


class StreamSource(SortedSource):
    """A y-sorted disk stream; scanning charges sequential block reads."""

    def __init__(self, stream: Stream) -> None:
        if not stream.closed:
            raise ValueError("stream must be closed before it can be a source")
        self.stream = stream
        # One block of lookahead is all the memory a stream source needs.
        self.max_memory_bytes = (
            min(len(stream), stream.block_capacity) * RECT_BYTES
        )

    def __iter__(self) -> Iterator[Rect]:
        return self.stream.scan()


class IndexSource(SortedSource):
    """Priority-queue-driven sorted extraction from an R-tree (Figure 1).

    This generator is the reference: under the numpy kernel ``pq_join``
    plans the same traversal a page at a time
    (:mod:`repro.core.kernels.np_index`) and must reproduce its reads,
    charges, emit order and statistics exactly — including two quirks
    of the queues below: a data key ``(ylo, seq)`` is compared with a
    node key ``(ylo, page id)``, so on equal ``ylo`` data goes first
    iff ``seq <= page id``; and equal-``ylo`` rectangles of different
    open leaves leave in push order.

    Parameters
    ----------
    tree:
        The index to traverse.
    prune_window:
        If given, subtrees and data rectangles not intersecting this
        window are skipped — the modified PQ of Sections 4/6.3.  The
        default (``None``) is the paper's measured version, which always
        touches every node exactly once.
    """

    def __init__(self, tree: RTree,
                 prune_window: Optional[Rect] = None,
                 queue_memory_items: Optional[int] = None) -> None:
        self.tree = tree
        self.prune_window = prune_window
        self.queue_memory_items = queue_memory_items
        self._reset_statistics()

    def _reset_statistics(self) -> None:
        self.pages_read = 0
        self.rects_emitted = 0
        self.max_memory_bytes = 0
        self.max_node_queue = 0
        self.max_data_queue = 0
        self.queue_spills = 0
        self._heap_ops = 0

    def _make_queue(self):
        if self.queue_memory_items is not None:
            return _ExternalQueue(
                ExternalHeap(self.tree.store.disk,
                             memory_items=self.queue_memory_items)
            )
        return _InMemoryQueue()

    def __iter__(self) -> Iterator[Rect]:
        # The statistics describe one traversal: a second iteration
        # (or one cut short by a disjoint prune window) starts from zero.
        self._reset_statistics()
        tree = self.tree
        env = tree.store.disk.env
        prune = self.prune_window

        root_mbr = tree.root_mbr()
        if prune is not None and not intersects(root_mbr, prune):
            return
        # Internal-node queue: keys are (ylo, page_id).
        node_q = self._make_queue()
        node_q.push((root_mbr.ylo, tree.root_page_id), None)
        # Data queue: keys are (ylo, tiebreak); values carry the rect
        # and its leaf continuation (sorted leaf list, next index).
        data_q = self._make_queue()
        seq = 0
        buffered = 0  # rectangles held in open leaf buffers
        heap_ops = 0

        while len(node_q) or len(data_q):
            take_data = len(data_q) and (
                not len(node_q) or data_q.peek_key() <= node_q.peek_key()
            )
            if take_data:
                _, (rect, leaf_rects, nxt) = data_q.pop()
                heap_ops += _log2(len(data_q) + 1)
                buffered -= 1
                if nxt < len(leaf_rects):
                    succ = leaf_rects[nxt]
                    data_q.push((succ.ylo, seq),
                                (succ, leaf_rects, nxt + 1))
                    seq += 1
                    heap_ops += _log2(len(data_q))
                self.rects_emitted += 1
                yield rect
                continue

            (_, page_id), _ = node_q.pop()
            heap_ops += _log2(len(node_q) + 1)
            node = tree.read_node(page_id)
            self.pages_read += 1
            if node.is_leaf:
                if prune is None:
                    live = list(node.entries)
                else:
                    live = [e for e in node.entries if intersects(e, prune)]
                if not live:
                    continue
                live.sort(key=lambda r: (r.ylo, r.xlo, r.rid))
                env.charge(
                    "pq_leaf_sort",
                    int(len(live) * max(1.0, math.log2(len(live)))),
                )
                head = live[0]
                data_q.push((head.ylo, seq), (head, live, 1))
                seq += 1
                buffered += len(live)
                heap_ops += _log2(len(data_q))
            else:
                for entry in node.entries:
                    if prune is None or intersects(entry, prune):
                        node_q.push((entry.ylo, entry.rid), None)
                        heap_ops += _log2(len(node_q))
            # Memory high-water: node queue entries at 12 bytes, data
            # queue entries plus buffered leaf rects at 20 bytes.
            mem = (
                node_q.memory_items() * NODE_ENTRY_BYTES
                + (data_q.memory_items() + buffered) * RECT_BYTES
            )
            if mem > self.max_memory_bytes:
                self.max_memory_bytes = mem
            if len(node_q) > self.max_node_queue:
                self.max_node_queue = len(node_q)
            if len(data_q) > self.max_data_queue:
                self.max_data_queue = len(data_q)

        self.queue_spills = node_q.spills() + data_q.spills()
        self._heap_ops = heap_ops
        env.charge("pqueue", heap_ops)


class JoinSource(SortedSource):
    """The intersection rectangles of a running join, as a source.

    Feeding one join's output into another is how Section 4 builds
    multi-way intersection joins.  The pair stream arrives in sweep
    order, so the intersection rectangles are ``ylo``-sorted by
    construction; each carries ``rid=0`` and the constituent ids are
    forwarded to ``on_pair`` if provided.
    """

    def __init__(self, pair_iter: Iterator[Tuple[Rect, Rect]],
                 on_pair=None) -> None:
        self.pair_iter = pair_iter
        self.on_pair = on_pair
        self.n_pairs = 0

    def __iter__(self) -> Iterator[Rect]:
        from repro.geom.rect import intersection

        for ra, rb in self.pair_iter:
            inter = intersection(ra, rb)
            if inter is None:  # pragma: no cover - emitted pairs intersect
                continue
            self.n_pairs += 1
            if self.on_pair is not None:
                self.on_pair(ra, rb)
            yield inter


class _InMemoryQueue:
    """Thin heapq adapter with the interface both queue kinds share."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, Any]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, key, value) -> None:
        heapq.heappush(self._heap, (key, value))

    def pop(self):
        return heapq.heappop(self._heap)

    def peek_key(self):
        return self._heap[0][0]

    def memory_items(self) -> int:
        return len(self._heap)

    def spills(self) -> int:
        return 0


class _ExternalQueue:
    """Adapter over :class:`ExternalHeap` (the overflow-graceful queue)."""

    __slots__ = ("_heap",)

    def __init__(self, heap: ExternalHeap) -> None:
        self._heap = heap

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, key, value) -> None:
        self._heap.push(key, value)

    def pop(self):
        return self._heap.pop()

    def peek_key(self):
        return self._heap.peek_key()

    def memory_items(self) -> int:
        # Only the in-memory portion counts against Table 3's budget.
        return min(len(self._heap), self._heap.memory_items)

    def spills(self) -> int:
        return self._heap.spills


def _log2(n: int) -> int:
    return n.bit_length() if n > 0 else 1
