"""External multiway mergesort over rectangle streams.

This is the sorting component of SSSJ and of R-tree bulk loading (both
"essentially consist of (external) sorting of the data", Section 6.3).
The structure is the classic two-phase sort the paper's TPIE
implementation used:

1. **Run formation** — read the input sequentially, cut it into chunks
   of at most ``memory_rects`` records, sort each chunk in memory, and
   write it out as a run (one sequential write pass).
2. **Multiway merge** — merge all runs with a heap, writing the sorted
   output (one *non-sequential* read pass, because the merge pulls one
   block at a time from k interleaved runs, plus one sequential write
   pass).

An input that fits in memory degenerates to read-sort-write, which is
why the paper's NJ dataset (7.9 MB against 24 MB of memory) never paid
for a merge pass.

CPU cost: ``n log2 n`` comparisons for run formation and
``n (1 + log2 k)`` heap comparisons for the merge (one sift path per
element), charged to the environment under ``sort`` — the same
asymptotics as the STL sort/heap the authors used.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional

from repro.geom.rect import RECT_BYTES, Rect
from repro.storage.disk import Disk
from repro.storage.stream import Stream

#: Floor on budget-governed run-formation chunks: a sort that cannot
#: hold even this many records would degenerate into per-record runs.
#: Matches the floor :meth:`repro.sim.scale.ScaleConfig.memory_rects`
#: applies to the scaled memory budget itself.
MIN_SORT_RECTS = 64


def _charge_nlogn(env, category: str, n: int) -> None:
    if n > 1:
        env.charge(category, int(n * math.log2(n)))


def external_sort(
    source: Stream,
    disk: Disk,
    key: Callable[[Rect], tuple],
    memory_rects: Optional[int] = None,
    name: str = "sorted",
) -> Stream:
    """Sort ``source`` by ``key`` into a new closed stream.

    ``memory_rects`` bounds how many records are held in memory at once;
    it defaults to the environment's scaled memory budget.  When the
    environment carries a shared
    :class:`~repro.engine.resources.ResourceBudget`, the sort acquires
    a grant for its working set and shrinks ``memory_rects`` to what
    was actually granted — under memory pressure the sort forms more,
    smaller runs instead of silently exceeding the budget.
    """
    env = disk.env
    if memory_rects is None:
        memory_rects = env.scale.memory_rects
    if memory_rects < 2:
        raise ValueError("memory budget too small to sort anything")

    budget = getattr(env, "budget", None)
    grant = None
    if budget is not None:
        grant = budget.acquire(
            "sort", memory_rects * RECT_BYTES,
            minimum=MIN_SORT_RECTS * RECT_BYTES,
        )
        memory_rects = max(MIN_SORT_RECTS, grant.bytes // RECT_BYTES)

    try:
        runs = _form_runs(source, disk, key, memory_rects, name)
        if len(runs) == 1:
            return runs[0]
        out = _merge_runs(runs, disk, key, name)
        for run in runs:
            run.free()
        return out
    finally:
        if grant is not None:
            grant.release()


def sort_stream_by_ylo(source: Stream, disk: Disk,
                       name: str = "sorted-y") -> Stream:
    """Sort by lower y-coordinate — the order every sweep consumes.

    Ties broken by the remaining coordinates and the id so the order is
    total and runs are deterministic across algorithms.
    """
    return external_sort(source, disk, key=_ylo_key, name=name)


def _ylo_key(r: Rect) -> tuple:
    return (r.ylo, r.xlo, r.xhi, r.yhi, r.rid)


def _form_runs(source: Stream, disk: Disk, key, memory_rects: int,
               name: str) -> List[Stream]:
    env = disk.env
    runs: List[Stream] = []
    chunk: List[Rect] = []

    def flush() -> None:
        if not chunk:
            return
        _charge_nlogn(env, "sort", len(chunk))
        chunk.sort(key=key)
        runs.append(
            Stream.from_rects(disk, chunk, name=f"{name}.run{len(runs)}")
        )
        chunk.clear()

    for rect in source.scan():
        chunk.append(rect)
        if len(chunk) >= memory_rects:
            flush()
    flush()
    if not runs:
        # Empty input sorts to an empty stream.
        runs.append(Stream.from_rects(disk, (), name=f"{name}.run0"))
    return runs


def _merge_runs(runs: List[Stream], disk: Disk, key,
                name: str) -> Stream:
    env = disk.env
    k = len(runs)
    out = Stream(disk, name=name)
    heap = []
    iters = []
    for idx, run in enumerate(runs):
        it = run.scan()
        iters.append(it)
        first = next(it, None)
        if first is not None:
            heap.append((key(first), idx, first))
    heapq.heapify(heap)
    log_k = max(1, int(math.ceil(math.log2(k))))
    merged = 0
    while heap:
        _, idx, rect = heapq.heappop(heap)
        out.append(rect)
        merged += 1
        nxt = next(iters[idx], None)
        if nxt is not None:
            heapq.heappush(heap, (key(nxt), idx, nxt))
    env.charge("sort", (1 + log_k) * merged)
    return out.close()
