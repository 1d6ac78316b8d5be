"""Vectorized PQ join of two R-trees: a page at a time, a sweep in numpy.

The reference (:func:`repro.core.pq_join.pq_join` over two
:class:`~repro.core.sources.IndexSource` generators and
:func:`~repro.core.sweep.sweep_join`) handles one rectangle at a time:
two heaps per tree, a merge loop, two striped active sets.  This module
returns the *same* result — pairs in the same order, the same
``read_node`` calls in the same order across both trees, the same
``env.charge`` calls, the same Table 3 numbers — from three steps:

* **Plan each traversal without touching the ledger.**  Data never
  reorders the node queue, so the pop order of a tree's pages is a
  best-first walk on ``(ylo, page id)`` alone: a ``heapq`` loop over
  *pages*, internal nodes read silently, leaves taken from the tree's
  :class:`LeafColumns`.  The leaves are gathered with one fancy index,
  pruned with one mask, and — each leaf's rows being stored in
  ``(ylo, xlo, rid)`` order — emitted in the order of one stable
  argsort by ``ylo``.  What the generator counts an item at a time
  follows from counts: the data queue holds one entry per *open* leaf,
  so its length at an emit, at a leaf's opening and at each of Table
  3's samples is a difference of two prefix counts (leaves opened,
  leaves exhausted).
* **Ties are replayed, not approximated.**  The reference orders equal
  ``ylo`` keys by push sequence number, and compares a data key
  ``(ylo, seq)`` with a node key ``(ylo, page id)`` — so on equal
  ``ylo`` data goes first iff ``seq <= page id``, and rectangles of
  different open leaves round-robin.  Both quirks are part of the
  contract (the golden reproduction pins them).  Only a ``ylo`` value
  shared by rectangles of two leaves, or by a rectangle and a node that
  is popped after the rectangle's leaf, can be affected; those values
  are found with two comparisons over the sorted columns and each is
  replayed through a real queue over integers (:func:`_replay_ties`).
* **Sweep once, replay the accounting.**  The two emit sequences merge
  like any two sorted runs (:class:`~repro.core.kernels.np_sweep._Merged`);
  :func:`~repro.core.kernels.np_sweep._find_pairs` finds each pair
  once, and a :class:`~repro.core.sweep.StripedSweep` emits it in the
  strip holding the left edge of the x-overlap, so the reference order
  is ``(later event, strip, earlier event)``.  The striped structure's
  ops come from three facts about a registration (a rectangle in one
  strip): when it dies, when a probe of its strip next sweeps it out,
  and whether a global compaction got there first
  (:func:`_simulate_striped`).

A source's reads between its emits *j - 1* and *j* run when the merge
consumes its rectangle *j - 1* (A before B at the start and on equal
``ylo``), and both trees share one disk whose observers price seeks —
so the charged reads are issued last, in one loop over the pops of both
trees ordered by the merged position of the emit that triggers each.

Every entry point returns ``None`` for input outside the model — a
non-finite or inverted rectangle, a tree whose handle no longer matches
its pages — before anything is charged; the caller runs the reference.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.columnar import PairColumns
from repro.core.kernels.np_sweep import (
    _find_pairs,
    _Merged,
    _simulate_ops,
    window_mask,
)
from repro.core.pq_join import SAMPLE_RECTS
from repro.core.sources import NODE_ENTRY_BYTES
from repro.core.sweep import SweepStats, auto_strips
from repro.geom.rect import RECT_BYTES, Rect, cells_per_unit, intersects

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


class LeafColumns:
    """An R-tree's leaf pages as flat columns.

    ``coords`` is one ``(4, n)`` block — rows ``xlo, xhi, ylo, yhi`` —
    and ``rid`` the ids, so one fancy index gathers any set of leaves.
    Columns are grouped by leaf in ``tree.leaf_page_ids`` order — leaf
    ``slot[page id]`` owns ``start[s] : start[s] + count[s]`` — and
    each leaf's are stored in ``(ylo, xlo, rid)`` order, the order the
    traversal sorts a leaf into when it opens it (a pruned leaf is a
    mask over a sorted run: still sorted).  ``widths`` keeps the first
    :data:`~repro.core.pq_join.SAMPLE_RECTS` rectangle widths in
    *entry* order, which is what the strip sizing sums.  ``valid`` is
    False when any rectangle is non-finite or inverted: the kernel's
    model (and its integer strip arithmetic) does not hold for such a
    tree.
    """

    __slots__ = ("coords", "rid", "slot", "start", "count", "widths",
                 "valid")

    def __init__(self, tree) -> None:
        pages = tree.leaf_page_ids
        entries = [tree.read_node_silent(p).entries for p in pages]
        flat = list(chain.from_iterable(entries))
        # (fromiter over the flattened records: a quarter of the time
        # np.array takes to walk a list of NamedTuples.)
        coords = np.fromiter(chain.from_iterable(flat), np.float64,
                             5 * len(flat)).reshape(-1, 5)[:, :4].T
        xlo, xhi, ylo, yhi = coords
        # Ids never pass through a float (see np_sweep._columns).
        rid = np.fromiter(map(itemgetter(4), flat), np.int64, len(flat))
        self.count = np.fromiter(map(len, entries), np.int64, len(pages))
        self.start = np.cumsum(self.count) - self.count
        self.slot = {page: s for s, page in enumerate(pages)}
        self.widths = xhi[:SAMPLE_RECTS] - xlo[:SAMPLE_RECTS]
        self.valid = bool(
            np.isfinite(coords).all()
            and (xhi >= xlo).all() and (yhi >= ylo).all()
        )
        leaf = np.repeat(np.arange(len(pages)), self.count)
        order = np.lexsort((rid, xlo, ylo, leaf))
        self.coords = np.ascontiguousarray(coords[:, order])
        self.rid = rid[order]


class _Traversal:
    """What one ``IndexSource`` would do, worked out before it is done.

    The statistics carry the reference's attribute names, so
    ``pq_join`` reports either through the same code.
    """

    __slots__ = ("tree", "cols", "pages", "before", "leaf_sort",
                 "heap_ops", "max_memory_bytes", "max_node_queue",
                 "max_data_queue")

    #: The external heap is the reference's alone.
    queue_spills = 0

    def __init__(self, tree) -> None:
        self.tree = tree
        #: ``(xlo, xhi, ylo, yhi, rid)`` in emit order.
        self.cols = (_EMPTY_F64,) * 4 + (_EMPTY_I64,)
        #: Popped page ids in pop order; ``before[k]`` rectangles are
        #: emitted before pop *k*; ``leaf_sort[k]`` is its
        #: ``pq_leaf_sort`` charge (0: not a leaf, or nothing live).
        self.pages: List[int] = []
        self.before: List[int] = []
        self.leaf_sort: List[int] = []
        self.heap_ops = 0
        self.max_memory_bytes = 0
        self.max_node_queue = 0
        self.max_data_queue = 0

    @property
    def pages_read(self) -> int:
        return len(self.pages)

    @property
    def rects_emitted(self) -> int:
        return len(self.cols[4])


def _bits(counts: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of positive counts (the reference's ``_log2``)."""
    return np.frexp(counts)[1]


def _traverse(tree, prune: Optional[Rect]) -> Optional[_Traversal]:
    """Plan one tree's traversal; ``None`` when outside the model."""
    leaves = tree.leaf_columns()
    if not leaves.valid:
        return None
    out = _Traversal(tree)
    root = tree.root_mbr()
    if prune is not None and not intersects(root, prune):
        return out

    # -- the node queue, which data never reorders ----------------------
    slot_of = leaves.slot
    heap = [(root.ylo, tree.root_page_id)]
    keys: List[float] = []
    pages = out.pages
    slots: List[int] = []
    queued: List[int] = []
    ops = 0
    last = root.ylo
    while heap:
        ops += len(heap).bit_length()
        y, page = heapq.heappop(heap)
        if y < last:
            return None  # an entry below its parent: not an R-tree
        last = y
        slot = slot_of.get(page, -1)
        if slot < 0:
            node = tree.read_node_silent(page)
            if node.is_leaf:
                return None  # a leaf this handle's columns do not know
            for entry in node.entries:
                if prune is None or intersects(entry, prune):
                    heapq.heappush(heap, (entry.ylo, entry.rid))
                    ops += len(heap).bit_length()
        keys.append(y)
        pages.append(page)
        slots.append(slot)
        queued.append(len(heap))
    n_pops = len(pages)
    key = np.array(keys)
    slot = np.array(slots, dtype=np.int64)

    # -- every visited leaf in one gather, pruned in one mask -----------
    leaf_pop = np.flatnonzero(slot >= 0)
    visited = slot[leaf_pop]
    size = leaves.count[visited]
    ends = np.cumsum(size)
    rows = np.arange(int(size.sum())) + np.repeat(
        leaves.start[visited] - (ends - size), size
    )
    leaf = np.repeat(np.arange(len(leaf_pop)), size)
    coords = leaves.coords[:, rows]
    rid = leaves.rid[rows]
    if prune is not None:
        keep = window_mask(*coords, prune)
        if not keep.all():
            coords = coords[:, keep]
            rid = rid[keep]
            leaf = leaf[keep]
    live = np.bincount(leaf, minlength=len(leaf_pop))
    stop = np.cumsum(live)
    has = live > 0
    first = (stop - live)[has]
    final = stop[has] - 1
    opener = leaf_pop[has]  # the pop that opened each leaf with live rows
    ylo = coords[2]
    n = len(ylo)
    if (ylo[first] < key[opener]).any():
        return None  # a rectangle below its leaf's key: not an R-tree

    # -- emit order: by ylo, then push sequence -------------------------
    order = np.argsort(ylo, kind="stable")
    ys = ylo[order]
    before = np.searchsorted(ys, key, side="left")
    succ = np.ones(n, dtype=bool)
    succ[final] = False  # a leaf's last rectangle pushes no successor
    if n:
        leaf_sorted = leaf[order]
        shared = (ys[1:] == ys[:-1]) & (leaf_sorted[1:] != leaf_sorted[:-1])
        at = np.minimum(before, n - 1)
        waits = (
            (before < n) & (ys[at] == key)
            & (leaf_pop[leaf_sorted[at]] < np.arange(n_pops))
        )
        if shared.any() or waits.any():
            order, before = _replay_ties(
                np.unique(np.concatenate((ys[1:][shared], key[waits]))),
                ys, order, key, pages, leaf, leaf_pop, live, succ, before,
            )

    # -- what the generator counts, from counts -------------------------
    succ = succ[order]
    emitted_at = np.empty(n, dtype=np.int64)
    emitted_at[order] = np.arange(n)
    opened = before[opener]
    closed = np.sort(emitted_at[final])
    at_emit = np.arange(n)
    depth = (np.searchsorted(opened, at_emit, side="right")
             - np.searchsorted(closed, at_emit, side="left"))
    open_depth = (np.arange(1, len(opener) + 1)
                  - np.searchsorted(closed, opened, side="left"))
    # A pop costs log(len before); a push log(len after), the same
    # count when the leaf has a successor to push.
    ops += int((_bits(depth) * (1 + succ)).sum())
    ops += int(_bits(open_depth).sum())

    # Table 3 is sampled after each node pop (not after a leaf with
    # nothing live), and counts a leaf's queued head twice.
    live_pop = np.zeros(n_pops, dtype=np.int64)
    live_pop[leaf_pop] = live
    sampled = (slot < 0) | (live_pop > 0)
    node_q = np.array(queued, dtype=np.int64)[sampled]
    data_q = (np.cumsum(live_pop > 0)
              - np.searchsorted(closed, before, side="left"))[sampled]
    buffered = (np.cumsum(live_pop) - before)[sampled]
    if len(node_q):
        out.max_node_queue = int(node_q.max())
        out.max_data_queue = int(data_q.max())
        out.max_memory_bytes = int(
            (node_q * NODE_ENTRY_BYTES
             + (data_q + buffered) * RECT_BYTES).max()
        )
    out.cols = (*coords[:, order], rid[order])
    out.before = before.tolist()
    out.leaf_sort = [
        int(c * max(1.0, math.log2(c))) if c else 0
        for c in live_pop.tolist()
    ]
    out.heap_ops = ops
    return out


def _replay_ties(values: np.ndarray, ys: np.ndarray, order: np.ndarray,
                 key: np.ndarray, pages: List[int], leaf: np.ndarray,
                 leaf_pop: np.ndarray, live: np.ndarray,
                 succ: np.ndarray, before: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Settle the ``ylo`` values whose order the sort cannot decide.

    ``order`` (gathered row of each *base position*: the stable sort by
    ``ylo``, leaves in pop order) is exact wherever a ``ylo`` value
    belongs to one leaf and no node of that key is still queued.  For
    each other value — ``values``, ascending — the reference's queues
    are replayed over integers: the rectangles of that ``ylo`` leave a
    FIFO in push-sequence order (a queued head's successor, and a leaf
    opened meanwhile, join at the back), and the next node of that key
    goes first iff its page id is below the front's sequence number.
    A sequence number is the count of pushes before it: leaves opened
    with something live plus rectangles emitted with a successor.

    Returns the corrected ``(order, before)`` (``before`` in place).
    """
    n = len(order)
    base = order
    order = order.copy()
    inv = np.empty(n, dtype=np.int64)
    inv[base] = np.arange(n)
    first = np.cumsum(live) - live
    pop_leaf = np.full(len(key), -1, dtype=np.int64)
    pop_leaf[leaf_pop] = np.arange(len(leaf_pop))
    succ = succ[base]
    # Pushes before base position i / before pop k, where no tie decides.
    emit_pushes = np.concatenate(([0], np.cumsum(succ)))
    open_pushes = np.concatenate(
        ([0], np.cumsum((pop_leaf >= 0) & (live[pop_leaf] > 0)))
    )
    #: Base position -> sequence number, for pushes a replay made.
    pushed = {}

    def seq_of(i: int) -> int:
        seq = pushed.get(i)
        if seq is not None:
            return seq
        g = base[i]
        opener = leaf_pop[leaf[g]]
        if g == first[leaf[g]]:  # pushed when its leaf was opened
            return open_pushes[opener] + emit_pushes[before[opener]]
        p = inv[g - 1]  # pushed when its predecessor was emitted
        return (open_pushes[np.searchsorted(key, ys[p], side="right")]
                + emit_pushes[p])

    spans = zip(
        np.searchsorted(ys, values, side="left").tolist(),
        np.searchsorted(ys, values, side="right").tolist(),
        np.searchsorted(key, values, side="left").tolist(),
        np.searchsorted(key, values, side="right").tolist(),
    )
    for g0, g1, k0, k1 in spans:
        seq = int(open_pushes[k0] + emit_pushes[g0])
        # Queued already: the head of each run of this ylo whose leaf
        # was opened by an earlier key.
        run = leaf[base[g0:g1]].tolist()
        heads = sorted(
            (seq_of(g0 + r), g0 + r) for r, ordinal in enumerate(run)
            if leaf_pop[ordinal] < k0 and (r == 0 or run[r - 1] != ordinal)
        )
        fifo = deque(heads)
        emitted: List[int] = []
        k = k0
        while fifo or k < k1:
            if fifo and (k == k1 or fifo[0][0] <= pages[k]):
                _, i = fifo.popleft()
                emitted.append(i)
                if not succ[i]:
                    continue
                j = int(inv[base[i] + 1])
            else:
                before[k] = g0 + len(emitted)
                ordinal = pop_leaf[k]
                k += 1
                if ordinal < 0 or not live[ordinal]:
                    continue
                j = int(inv[first[ordinal]])
            pushed[j] = seq
            if j < g1:
                fifo.append((seq, j))
            seq += 1
        order[g0:g1] = base[emitted]
    return order, before


def _strips_of(x: np.ndarray, x0: float, inv_width: float,
               nstrips: int) -> np.ndarray:
    """``StripedSweep._strip_of`` over a column: same expression, same
    truncation toward zero, same clamp (applied to the float, so the
    cast cannot overflow)."""
    return np.clip((x - x0) * inv_width, 0, nstrips - 1).astype(np.int64)


def _simulate_striped(m: _Merged, lo_strip: np.ndarray,
                      hi_strip: np.ndarray, nstrips: int
                      ) -> Tuple[int, int]:
    """``(cpu_ops, max_active_items)`` of two :class:`StripedSweep`s.

    A *registration* is one rectangle in one strip of its side's
    structure; event *i* registers ``hi_strip[i] - lo_strip[i] + 1`` of
    them after probing the same strips of the opposite structure.  A
    registration of rectangle *c* is dead from event ``d`` on
    (``lo[d] > hi[c]``, so ``d > c``: the interval is not inverted) and
    leaves its strip at the first probe of that strip at or after
    ``d`` — or at a global compaction, if one comes first.  So a probe
    scans the strip's live registrations (inserted before, dead after:
    two prefix counts on ``strip · (n + 1) + event`` keys) plus the
    garbage it sweeps out, and the raw total the compaction schedule
    watches is the live total plus the garbage not yet swept.  Only
    that schedule is sequential: one integer loop over events, which
    looks a registration up only where a compaction may have beaten a
    probe to it.
    """
    n = m.n
    if not n:
        return 0, 0
    n1 = n + 1
    width = hi_strip - lo_strip + 1
    total = int(width.sum())
    ends = np.cumsum(width)
    event = np.repeat(np.arange(n), width)
    strip = (np.arange(total) - np.repeat(ends - width, width)
             + np.repeat(lo_strip, width))
    dies = m.end[event]
    # Structure 1 is A's active set: A events register in it, B probe it.
    side = m.is_a[event].astype(np.int64)
    cell = (side * nstrips + strip) * n1
    # One sorted key list each for the registrations by (cell, event)
    # and by (cell, death) and the probes by (cell probed, event):
    # sorted needles search several times faster than unsorted ones.
    by_event = np.sort(cell + event)
    by_death = np.sort(cell + dies)
    probes = np.sort(cell + (1 - 2 * side) * (nstrips * n1) + event)
    # Live registrations each probe scans, summed per probing event.
    scanned = np.bincount(
        probes % n1, minlength=n,
        weights=(np.searchsorted(by_event, probes, side="left")
                 - np.searchsorted(by_death, probes, side="right")),
    ).astype(np.int64)
    # The probe that sweeps each registration out, if any does: the
    # first of its cell at or after its death.
    at = np.searchsorted(probes, by_death, side="left")
    swept_by = probes[np.minimum(at, total - 1)]
    swept = (at < total) & (swept_by // n1 == by_death // n1)
    # Sorted by (sweeping event, death): a compaction at event j had
    # already removed those of a group that died at or before j.
    sweeps = np.sort((swept_by[swept] % n1) * n1 + by_death[swept] % n1)
    group = np.searchsorted(sweeps, np.arange(n1) * n1).tolist()
    sweeps = sweeps.tolist()
    died = np.bincount(by_death % n1, minlength=n1)[:n]
    live = ends - np.cumsum(died)
    cost = scanned + width

    ops = 0
    garbage = 0
    compacted = -1
    compact_at = 64
    max_active = 0
    for i, (start, stop, dead, scan, alive) in enumerate(zip(
        group, group[1:], died.tolist(), cost.tolist(), live.tolist(),
    )):
        if compacted >= 0 and start < stop:
            start = bisect_right(sweeps, i * n1 + compacted, start, stop)
        removed = stop - start
        garbage += dead - removed
        ops += scan + removed
        raw = alive + garbage
        if raw > compact_at:
            ops += raw  # compact() scans every raw strip
            garbage = 0
            compacted = i
            raw = alive
            compact_at = max(64, 2 * raw)
            if raw > max_active:
                max_active = raw
        elif raw <= 64 and raw > max_active:
            max_active = raw
    return ops, max_active


def _average_width(tree_a, tree_b) -> float:
    """``pq_join._sample_avg_width`` for two trees: the running float
    sum left to right (``cumsum`` is sequential; a pairwise ``sum`` is
    not the same number, and the strip count truncates it)."""
    widths = np.concatenate(
        (tree_a.leaf_columns().widths, tree_b.leaf_columns().widths)
    )
    return float(np.cumsum(widths)[-1]) / len(widths) if len(widths) else 0.0


def index_join(tree_a, tree_b, env, universe: Optional[Rect],
               structure: str, nstrips: Optional[int],
               prune_a: Optional[Rect], prune_b: Optional[Rect],
               collect_pairs: bool):
    """The sweep of two pruned index traversals, reads and charges
    included: ``(SweepStats, pairs or None, source a, source b)`` with
    the sources' statistics as :class:`_Traversal`, or ``None`` (and
    nothing charged) when the input is outside the kernel's model.

    ``structure`` / ``nstrips`` are ``PQConfig``'s; an unset strip count
    is sized from the sampled average width as the reference does.
    """
    striped = structure == "striped" and universe is not None
    if striped:
        span = universe.xhi - universe.xlo
        if not math.isfinite(span):
            return None
        if nstrips is None:
            nstrips = auto_strips(span, _average_width(tree_a, tree_b))
        if nstrips < 1:
            return None
        if cells_per_unit(nstrips, span) == 0.0:
            # StripedSweep's degenerate universe
            nstrips, span = 1, 1.0
    a = _traverse(tree_a, prune_a)
    b = _traverse(tree_b, prune_b) if a is not None else None
    if a is None or b is None:
        return None

    m = _Merged(a.cols, b.cols, a.cols[2:4], b.cols[2:4], presorted=True)
    if striped and 2 * nstrips * (m.n + 1) ** 2 >= 2 ** 62:
        return None  # the fused integer keys below would not fit
    later, earlier = _find_pairs(m.end, m.xlo, m.xhi, m.is_a)
    if striped:
        inv_width = nstrips / span
        if nstrips > 1 and later.size:
            # Emitted in the strip holding the overlap's left edge.
            edge = _strips_of(
                np.maximum(m.xlo[later], m.xlo[earlier]),
                universe.xlo, inv_width, nstrips,
            )
            by_strip = np.argsort(later * nstrips + edge, kind="stable")
            later, earlier = later[by_strip], earlier[by_strip]
        ops, max_active = _simulate_striped(
            m, _strips_of(m.xlo, universe.xlo, inv_width, nstrips),
            _strips_of(m.xhi, universe.xlo, inv_width, nstrips), nstrips,
        )
    else:
        (ops, max_active), = _simulate_ops(m.is_a, m.end, (0, m.n))
    pairs = None
    if collect_pairs:
        a_later = m.is_a[later]
        ids = np.empty((later.size, 2), dtype=np.int64)
        ids[:, 0] = m.rid[np.where(a_later, later, earlier)]
        ids[:, 1] = m.rid[np.where(a_later, earlier, later)]
        pairs = PairColumns(ids)

    _charge(env, m, a, b)
    env.charge("sweep", ops)
    stats = SweepStats(
        pairs=int(later.size), cpu_ops=ops, max_active_items=max_active,
        max_active_bytes=max_active * RECT_BYTES,
    )
    return stats, pairs, a, b


def _charge(env, m: _Merged, a: _Traversal, b: _Traversal) -> None:
    """Issue both traversals' reads and charges in the reference order.

    The merge advances a source right after taking its rectangle, so
    the pops a source makes before its emit *j* run at the merged
    position of its emit *j - 1* — before anything, A first, for
    ``j = 0`` — and its ``pqueue`` charge follows its last pop.
    """
    triggers = []
    for src, is_src, start in ((a, m.is_a, -2), (b, ~m.is_a, -1)):
        at = np.concatenate(([start], np.flatnonzero(is_src)))
        triggers.append(at[src.before + [src.rects_emitted]])
    order = np.argsort(np.concatenate(triggers), kind="stable").tolist()
    split = len(a.pages) + 1
    for i in order:
        src, k = (a, i) if i < split else (b, i - split)
        if k == len(src.pages):
            if src.heap_ops:
                env.charge("pqueue", src.heap_ops)
            continue
        src.tree.read_node(src.pages[k])
        if src.leaf_sort[k]:
            env.charge("pq_leaf_sort", src.leaf_sort[k])
