"""Synchronized R-tree traversal (Brinkhoff, Kriegel & Seeger [8], §3.3).

A depth-first descent over *pairs* of nodes, one from each tree.  For a
pair whose bounding rectangles intersect, the children overlapping the
pair's intersection region are joined with Forward-Sweep (the paper's
recommended combination of the search-space restriction and
plane-sweep), and each resulting child pair is visited recursively;
pairs of data entries at the leaves are reported.

Trees of different heights are handled the standard way: the deeper
node keeps descending against the shallower node until levels align.

All page requests go through one shared LRU buffer pool (22 MB in the
paper, scaled here); re-requests of buffered pages cost no I/O.  Table 4
counts disk reads, i.e. pool misses — on inputs whose two indexes fit in
the pool every page is read at most once and the search-space
restriction can push reads *below* the page count of the two trees,
exactly the paper's NJ/NY observation.

Because the bulk loader writes each level's pages in allocation order,
the DFS touches leaf children of one parent consecutively — sequential
runs that the machine observers price as cheap I/O.  That layout effect
is the whole story of Figure 2(d)-(f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.join_result import JoinResult
from repro.core.sweep import forward_sweep_pairs
from repro.geom.rect import Rect, intersection, intersects
from repro.rtree.node import Node
from repro.rtree.rtree import RTree
from repro.storage.buffer_pool import BufferPool


@dataclass(frozen=True)
class STConfig:
    """ST knobs; defaults follow Section 3.3."""

    buffer_pool_pages: Optional[int] = None  # None = scale config pool


def st_join(
    tree_a: RTree,
    tree_b: RTree,
    config: STConfig = STConfig(),
    collect_pairs: bool = False,
) -> JoinResult:
    """Join the data rectangles of two R-trees on the same store,
    through a fresh LRU pool, as in the paper's one-shot experiments."""
    if tree_a.store is not tree_b.store:
        raise ValueError("ST expects both indexes on the same page store")
    store = tree_a.store
    env = store.disk.env
    pool_pages = config.buffer_pool_pages or env.scale.buffer_pool_pages
    pool = BufferPool(store, pool_pages)

    pairs: Optional[List[Tuple[int, int]]] = [] if collect_pairs else None
    n_pairs = 0

    def sink(ra: Rect, rb: Rect) -> None:
        nonlocal n_pairs
        n_pairs += 1
        if pairs is not None:
            pairs.append((ra.rid, rb.rid))

    root_a = tree_a.read_node_via(pool, tree_a.root_page_id)
    root_b = tree_b.read_node_via(pool, tree_b.root_page_id)
    if intersects(root_a.mbr(), root_b.mbr()):
        stack: List[Tuple[int, int]] = [
            (tree_a.root_page_id, tree_b.root_page_id)
        ]
        while stack:
            pid_a, pid_b = stack.pop()
            node_a = tree_a.read_node_via(pool, pid_a)
            node_b = tree_b.read_node_via(pool, pid_b)
            _join_nodes(node_a, node_b, stack, sink, env)

    return JoinResult(
        algorithm="ST",
        n_pairs=n_pairs,
        pairs=pairs,
        max_memory_bytes=pool_pages * store.page_bytes,
        detail={
            "page_requests": pool.requests,
            "disk_reads": pool.misses,
            "pool_hits": pool.hits,
            "pool_pages": pool_pages,
            "lower_bound_pages": tree_a.page_count + tree_b.page_count,
        },
    )


# -- internals ---------------------------------------------------------------


def _join_nodes(node_a: Node, node_b: Node,
                stack: List[Tuple[int, int]], sink, env) -> None:
    """Process one node pair, pushing child pairs / emitting data pairs."""
    region = intersection(node_a.mbr(), node_b.mbr())
    if region is None:
        return
    # Search-space restriction: only entries overlapping the pair's
    # intersection region can contribute (Brinkhoff et al.'s heuristic).
    live_a = [e for e in node_a.entries if intersects(e, region)]
    live_b = [e for e in node_b.entries if intersects(e, region)]
    # Two passes over the entries: the MBR recomputation above and the
    # restriction filter.  Both are real per-visit work in this
    # implementation, and a node pair is visited once per parent match.
    env.charge("st_filter", 2 * (len(node_a.entries) + len(node_b.entries)))
    if not live_a or not live_b:
        return

    if node_a.level == node_b.level:
        if node_a.is_leaf:
            forward_sweep_pairs(live_a, live_b, env, on_pair=sink)
        else:
            matches: List[Tuple[int, int]] = []

            def push(ea: Rect, eb: Rect) -> None:
                matches.append((ea.rid, eb.rid))

            forward_sweep_pairs(live_a, live_b, env, on_pair=push)
            # Brinkhoff et al. process node A's entries in their stored
            # order (the sweep only restricts the candidate set).  On a
            # Hilbert-packed tree, stored order == page-id order for
            # tree A, so its sibling leaves stream off the disk in
            # runs, while tree B's partners arrive in whatever order
            # the overlaps dictate and lean on the track cache — the
            # *partial* sequentiality Section 6.2 describes.  The stack
            # pops from the end, so push in descending A order.
            matches.sort(key=lambda p: p[0], reverse=True)
            stack.extend(matches)
    elif node_a.level > node_b.level:
        # Descend the deeper tree A against the whole node B.
        b_mbr = node_b.mbr()
        for ea in reversed(live_a):
            if intersects(ea, b_mbr):
                stack.append((ea.rid, node_b.page_id))
    else:
        a_mbr = node_a.mbr()
        for eb in reversed(live_b):
            if intersects(eb, a_mbr):
                stack.append((node_a.page_id, eb.rid))
