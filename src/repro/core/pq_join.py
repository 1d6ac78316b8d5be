"""Priority-Queue-Driven Traversal — the paper's algorithm (Section 4).

PQ unifies the indexed and non-indexed approaches: every input is
presented as a y-sorted rectangle source and a single plane sweep joins
them.

* A non-indexed input is externally sorted, as in SSSJ.
* An indexed input is unpacked lazily by the priority-queue traversal of
  :class:`repro.core.sources.IndexSource` (Figure 1 of the paper): the
  queue starts with the root's bounding rectangle; extracting an
  internal node loads its children into the queue; extracting a data
  rectangle feeds it to the sweep.  Every index page is touched at most
  once, so page accesses are "optimal" (Table 4) — but they arrive in
  sweep order, i.e. essentially randomly with respect to the disk
  layout, which is the performance story of Figure 2(d)-(f).
* The output of another join works too (:class:`JoinSource`), giving
  multi-way joins (see :mod:`repro.core.multiway`).

The sweep uses the same internal components as SSSJ (Striped-Sweep by
default).  ``max_memory_bytes`` of the result is the Table 3 measure:
sweep structures plus priority queues plus the per-leaf sorted buffers.

The code in this module — the sources, the merge loop, the striped
structures, one rectangle at a time — is the reference.  Two indexed
inputs under the numpy kernel are joined by
:mod:`repro.core.kernels.np_index` instead, which reproduces the
reference's pairs and their order, its ``read_node`` sequence across
both trees, its charges and every number reported here; it declines
(and the reference runs) when an input is not an ``RTree``, when
``queue_memory_items`` asks for the external heap, and on a non-finite
or inverted rectangle.  ``detail["kernel"]`` names the one that ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.core.join_result import JoinResult
from repro.core.kernels import resolve_kernel
from repro.core.sources import (
    IndexSource,
    ListSource,
    SortedSource,
    StreamSource,
)
from repro.core.sweep import (
    auto_strips,
    check_structure,
    structure_factory,
    sweep_join,
)
from repro.geom.rect import Rect, union_mbr
from repro.rtree.rtree import RTree
from repro.storage.disk import Disk
from repro.storage.sort import sort_stream_by_ylo
from repro.storage.stream import Stream

#: Anything pq_join can turn into a sorted source.
JoinInput = Union[SortedSource, RTree, Stream]

#: Rectangles per input the automatic strip sizing samples.
SAMPLE_RECTS = 512


@dataclass(frozen=True)
class PQConfig:
    """PQ knobs; defaults follow Section 4's implementation notes."""

    structure: str = "striped"  # one of sweep.SWEEP_STRUCTURES
    nstrips: Optional[int] = None
    """Strip count for Striped-Sweep; ``None`` sizes strips from the
    average rectangle width sampled from the inputs (as in [4])."""
    prune: bool = False
    """Enable the "slightly more complicated version" that skips
    subtrees which cannot intersect the other input's bounding box —
    no effect on the paper's dense experiments, decisive on localized
    joins (Section 6.3)."""
    queue_memory_items: Optional[int] = None
    """In-memory bound for the index-adapter priority queues; when set,
    queues spill to disk through an external heap (the Section 4
    overflow mechanism).  ``None`` (the default, and what the paper
    measures) keeps the queues fully in memory — Table 3 shows they
    stay tiny on real data."""

    def __post_init__(self) -> None:
        check_structure(self.structure)


def pq_join(
    input_a: JoinInput,
    input_b: JoinInput,
    disk: Disk,
    universe: Optional[Rect] = None,
    config: PQConfig = PQConfig(),
    collect_pairs: bool = False,
    window_a: Optional[Rect] = None,
    window_b: Optional[Rect] = None,
    kernel: str = "auto",
) -> JoinResult:
    """Join two inputs of any representation (index, stream, source).

    ``universe`` bounds Striped-Sweep's strips; when omitted it is taken
    from index root MBRs where available, falling back to Forward-Sweep
    if neither input is an index and no universe is given.
    ``window_a``/``window_b`` override the bounding boxes used for
    pruning (by default an index's root MBR; streams have none) —
    the planner passes catalog universes here so a pruned traversal
    works even against a non-indexed opposite input.  ``kernel``
    (``"auto"`` / ``"numpy"`` / ``"python"``, resolved by
    :func:`~repro.core.kernels.resolve_kernel`) picks the implementation
    for two indexed inputs; see the module docstring.
    """
    env = disk.env
    if window_a is None:
        window_a = _bounding_box(input_a)
    if window_b is None:
        window_b = _bounding_box(input_b)
    if universe is None:
        if window_a is not None and window_b is not None:
            universe = union_mbr(window_a, window_b)
        elif window_a is not None:
            universe = window_a
        elif window_b is not None:
            universe = window_b
    prune_a = window_b if config.prune else None
    prune_b = window_a if config.prune else None

    if (resolve_kernel(kernel) == "numpy" and isinstance(input_a, RTree)
            and isinstance(input_b, RTree)
            and config.queue_memory_items is None):
        from repro.core.kernels import np_index

        swept = np_index.index_join(
            input_a, input_b, env, universe, config.structure,
            config.nstrips, prune_a, prune_b, collect_pairs,
        )
        if swept is not None:
            return _result(*swept, kernel="numpy")

    source_a = _as_source(
        input_a, disk, prune_window=prune_a,
        tag="a", queue_memory_items=config.queue_memory_items,
    )
    source_b = _as_source(
        input_b, disk, prune_window=prune_b,
        tag="b", queue_memory_items=config.queue_memory_items,
    )

    pairs: Optional[List[Tuple[int, int]]] = [] if collect_pairs else None

    def sink(ra: Rect, rb: Rect) -> None:
        if pairs is not None:
            pairs.append((ra.rid, rb.rid))

    nstrips = config.nstrips
    if (config.structure == "striped" and nstrips is None
            and universe is not None):
        avg_w = _sample_avg_width(input_a, input_b)
        nstrips = auto_strips(universe.xhi - universe.xlo, avg_w)

    stats = sweep_join(
        iter(source_a),
        iter(source_b),
        structure_factory(config.structure, nstrips, universe),
        env,
        on_pair=sink if pairs is not None else None,
    )
    return _result(stats, pairs, source_a, source_b, kernel="python")


# -- internals ---------------------------------------------------------------


def _result(stats, pairs, source_a, source_b, kernel: str) -> JoinResult:
    """The PQ result record; index sides also report their traversal
    (an ``IndexSource``, or the numpy kernel's account of one)."""
    queue_bytes = source_a.max_memory_bytes + source_b.max_memory_bytes
    detail = {
        "sweep_bytes": stats.max_active_bytes,
        "queue_bytes": queue_bytes,
        "max_active_items": stats.max_active_items,
        "kernel": kernel,
    }
    for side, src in (("a", source_a), ("b", source_b)):
        if hasattr(src, "pages_read"):
            detail[f"pages_read_{side}"] = src.pages_read
            detail[f"rects_{side}"] = src.rects_emitted
            detail[f"max_node_queue_{side}"] = src.max_node_queue
            detail[f"max_data_queue_{side}"] = src.max_data_queue
            detail[f"queue_spills_{side}"] = src.queue_spills
    return JoinResult(
        algorithm="PQ",
        n_pairs=stats.pairs,
        pairs=pairs,
        max_memory_bytes=stats.max_active_bytes + queue_bytes,
        detail=detail,
    )


def _as_source(
    inp: JoinInput, disk: Disk, prune_window: Optional[Rect], tag: str,
    queue_memory_items: Optional[int] = None,
) -> SortedSource:
    if isinstance(inp, RTree):
        return IndexSource(inp, prune_window=prune_window,
                           queue_memory_items=queue_memory_items)
    if isinstance(inp, Stream):
        sorted_stream = sort_stream_by_ylo(inp, disk, name=f"pq.{tag}")
        return StreamSource(sorted_stream)
    if isinstance(inp, SortedSource):
        return inp
    raise TypeError(
        f"cannot join input of type {type(inp).__name__}; expected an "
        "RTree, a Stream, or a SortedSource"
    )


def _bounding_box(inp: JoinInput) -> Optional[Rect]:
    if isinstance(inp, RTree):
        return inp.root_mbr()
    return None


def _sample_avg_width(input_a: JoinInput, input_b: JoinInput,
                      limit: int = SAMPLE_RECTS) -> float:
    """Average rectangle width sampled (uncharged) from both inputs.

    Stands in for catalog statistics, like the histograms of [1] the
    paper's cost model assumes.  Index inputs sample their first leaf
    pages; streams their first blocks; list sources their head.
    """
    total = 0.0
    count = 0
    for inp in (input_a, input_b):
        for r in _sample_rects(inp, limit):
            total += r.xhi - r.xlo
            count += 1
    return total / count if count else 0.0


def _sample_rects(inp: JoinInput, limit: int):
    from repro.core.sources import ListSource

    if isinstance(inp, RTree):
        taken = 0
        for pid in inp.leaf_page_ids:
            node = inp.read_node_silent(pid)
            for e in node.entries:
                yield e
                taken += 1
                if taken >= limit:
                    return
    elif isinstance(inp, Stream):
        taken = 0
        for offset in inp._block_offsets:
            for r in inp.disk.read_silent(offset):
                yield r
                taken += 1
                if taken >= limit:
                    return
    elif isinstance(inp, ListSource):
        yield from inp.rects[:limit]
