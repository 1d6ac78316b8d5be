"""Scalable Sweeping-based Spatial Join (Arge et al. [4], Section 3.1).

Structure: externally sort both inputs by lower y-coordinate, then run a
single plane sweep over the two sorted streams with Striped-Sweep as the
interval structure.  For the data sizes of the paper this is exactly
"two sequential read passes, one non-sequential read pass (while
merging), and two sequential write passes over the data" — our stream
and sort substrates produce precisely those passes, and a test pins
them.

The worst-case guarantee comes from a partitioning fallback (the
distribution-sweeping component of [4], simplified to one axis as the
paper describes): if the sweep's interval structures outgrow memory,
the x-range is split into vertical slabs, rectangles are distributed to
every slab they overlap (one extra read/write pass per level), each slab
is swept independently, and cross-slab duplicates are suppressed with
the reference-point rule.  The paper notes the fallback never fires on
real data ("the data structures were always significantly smaller than
the available internal memory"); tests exercise it with adversarial
inputs, and the experiments run with it armed but observe it never
triggering, exactly as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.core.join_result import JoinResult
from repro.core.sweep import (
    auto_strips,
    check_structure,
    structure_factory,
    sweep_join,
)
from repro.geom.rect import Rect
from repro.storage.disk import Disk
from repro.storage.sort import sort_stream_by_ylo
from repro.storage.stream import Stream

#: Slabs created per fallback level.
_FANOUT = 8
#: Beyond this depth no x-split can help (e.g. every rectangle stabs one
#: vertical line); the slab is swept without a memory limit, the only
#: remaining option — [4] handles this case with interval-structure
#: paging, which never matters at our scales.
_MAX_DEPTH = 3


@dataclass(frozen=True)
class SSSJConfig:
    """Knobs for SSSJ; defaults follow the paper's implementation."""

    structure: str = "striped"  # one of sweep.SWEEP_STRUCTURES
    nstrips: Optional[int] = None
    """Strip count for Striped-Sweep; ``None`` sizes strips from the
    average rectangle width sampled from the inputs (as in [4])."""
    memory_items: Optional[int] = None  # None = scale config budget

    def __post_init__(self) -> None:
        check_structure(self.structure)


def sssj_join(
    stream_a: Stream,
    stream_b: Stream,
    disk: Disk,
    universe: Optional[Rect] = None,
    config: SSSJConfig = SSSJConfig(),
    collect_pairs: bool = False,
) -> JoinResult:
    """Join two (unsorted, closed) rectangle streams.

    ``universe`` bounds the x-range for Striped-Sweep and the fallback
    slabs; callers that know their dataset pass it (it is catalog
    metadata), otherwise it is derived with an uncharged scan.  Both
    inputs are externally sorted here, every call.
    """
    env = disk.env
    if universe is None:
        universe = silent_universe(stream_a, stream_b)
    memory_items = (
        config.memory_items
        if config.memory_items is not None
        else env.scale.memory_rects
    )

    if config.structure == "striped" and config.nstrips is None:
        nstrips = auto_strips(
            universe.xhi - universe.xlo,
            _sample_avg_width(stream_a, stream_b),
        )
        config = replace(config, nstrips=nstrips)

    run_a = sort_stream_by_ylo(stream_a, disk, name="sssj.a")
    run_b = sort_stream_by_ylo(stream_b, disk, name="sssj.b")

    pairs: Optional[List[Tuple[int, int]]] = [] if collect_pairs else None
    state = _State(pairs=pairs)
    _join_slab(
        run_a, run_b, disk, universe.xlo, universe.xhi, universe,
        config, memory_items, state, depth=0,
        accept=lambda ref_x: True,
    )
    run_a.free()
    run_b.free()
    return JoinResult(
        algorithm="SSSJ",
        n_pairs=state.n_pairs,
        pairs=pairs,
        max_memory_bytes=state.max_memory,
        detail={
            "fallback_depth": state.deepest,
            "memory_items": memory_items,
        },
    )


# -- internals ---------------------------------------------------------------


@dataclass
class _State:
    """Accumulator threaded through the (rarely taken) slab recursion."""

    pairs: Optional[List[Tuple[int, int]]]
    n_pairs: int = 0
    max_memory: int = 0
    deepest: int = 0


def _join_slab(
    sorted_a: Stream,
    sorted_b: Stream,
    disk: Disk,
    xlo: float,
    xhi: float,
    universe: Rect,
    config: SSSJConfig,
    memory_items: int,
    state: _State,
    depth: int,
    accept: Callable[[float], bool],
) -> None:
    """Sweep one slab; on structure overflow, split it and recurse.

    ``accept`` is the dedup predicate on the pair's reference x — the
    left edge of the x-overlap.  The top-level call accepts everything;
    slab calls accept only reference points inside their own slab.
    """
    env = disk.env
    limit = None if depth >= _MAX_DEPTH else memory_items
    emitted_before = state.n_pairs

    def sink(ra: Rect, rb: Rect) -> None:
        ref_x = ra.xlo if ra.xlo >= rb.xlo else rb.xlo
        if accept(ref_x):
            state.n_pairs += 1
            if state.pairs is not None:
                state.pairs.append((ra.rid, rb.rid))

    stats = sweep_join(
        sorted_a.scan(),
        sorted_b.scan(),
        structure_factory(config.structure, config.nstrips,
                          universe._replace(xlo=xlo, xhi=xhi)),
        env,
        on_pair=sink,
        memory_items=limit,
    )
    if not stats.overflowed:
        if stats.max_active_bytes > state.max_memory:
            state.max_memory = stats.max_active_bytes
        if depth > state.deepest:
            state.deepest = depth
        return

    # Overflow: discard this slab's partial output and re-run split.
    state.n_pairs = emitted_before
    if state.pairs is not None:
        del state.pairs[emitted_before:]
    edges = [xlo + (xhi - xlo) * i / _FANOUT for i in range(_FANOUT + 1)]
    edges[-1] = xhi
    for i in range(_FANOUT):
        lo, hi = edges[i], edges[i + 1]
        sub_a = _filter_to_slab(sorted_a, disk, lo, hi, f"d{depth}a{i}")
        sub_b = _filter_to_slab(sorted_b, disk, lo, hi, f"d{depth}b{i}")
        last = i == _FANOUT - 1

        def sub_accept(ref_x: float, _lo=lo, _hi=hi, _last=last,
                       _outer=accept) -> bool:
            if not _outer(ref_x):
                return False
            if _last:
                return _lo <= ref_x <= _hi
            return _lo <= ref_x < _hi

        _join_slab(
            sub_a, sub_b, disk, lo, hi, universe, config, memory_items,
            state, depth + 1, sub_accept,
        )
        sub_a.free()
        sub_b.free()


def _sample_avg_width(stream_a: Stream, stream_b: Stream,
                      limit: int = 512) -> float:
    """Average rectangle width from the first blocks of both inputs.

    Uncharged: a system would keep this in catalog statistics (the
    paper's cost model likewise assumes histogram metadata [1]).
    """
    total = 0.0
    count = 0
    for s in (stream_a, stream_b):
        for offset in s._block_offsets:
            for r in s.disk.read_silent(offset):
                total += r.xhi - r.xlo
                count += 1
                if count >= limit:
                    break
            if count >= limit:
                break
    return total / count if count else 0.0


def _filter_to_slab(source: Stream, disk: Disk, lo: float, hi: float,
                    tag: str) -> Stream:
    """Rectangles of ``source`` whose x-interval overlaps [lo, hi].

    The filter pass reads the source and writes the slab stream — this
    is the extra pass the fallback pays, and it is fully charged.
    """
    out = Stream(disk, name=f"sssj.slab.{tag}")
    for r in source.scan():
        if r.xlo <= hi and r.xhi >= lo:
            out.append(r)
    return out.close()


def silent_universe(stream_a: Stream, stream_b: Stream) -> Rect:
    """Dataset MBR via uncharged scans (catalog-metadata stand-in)."""
    xlo = ylo = math.inf
    xhi = yhi = -math.inf
    for s in (stream_a, stream_b):
        for offset in s._block_offsets:
            for r in s.disk.read_silent(offset):
                if r.xlo < xlo:
                    xlo = r.xlo
                if r.xhi > xhi:
                    xhi = r.xhi
                if r.ylo < ylo:
                    ylo = r.ylo
                if r.yhi > yhi:
                    yhi = r.yhi
    if xlo is math.inf:
        return Rect(0.0, 1.0, 0.0, 1.0, 0)
    return Rect(xlo, xhi, ylo, yhi, 0)
