"""Vectorized batched forward sweep over columnar inputs.

The pure-python kernel (:func:`repro.core.sweep.forward_sweep_pairs_batched`)
walks a merged event stream, probing a lazily-expired active list per
side.  This module computes the *same* output — same pairs, in the
same emit order, with the same op accounting — from whole-column numpy
arithmetic:

* **Merged event order.**  Each side is sorted by ``(ylo, xlo)``
  (stable, like the python sort); the merge loop takes from A on ties,
  which is exactly a stable argsort by ``ylo`` over ``[A; B]``.
* **Pairs.**  At the event of the later rectangle, the earlier one is
  in the opposite active list and pairs iff it is still alive
  (``earlier.yhi >= later.ylo``) and the x-intervals overlap.  The
  kernel evaluates that predicate in blocks: each block of events is
  tested against the (pruned) active arrays and against its own
  earlier events in two broadcasted masks, preserving the sweep's
  ``O(events x active)`` shape rather than degrading to all-pairs.
  The python kernel emits pairs grouped by the later event, in active
  list (= insertion) order — i.e. sorted by ``(later, earlier)`` event
  index — so one lexsort reproduces the exact emit order.
* **Op accounting.**  The python kernel's ops depend on the *raw*
  (live + lazily-dead) active sizes and its amortized compaction
  schedule.  Both derive from two vectorizable quantities: how many
  opposite events precede event *i*, and how many of them died before
  ``y_i`` (every rectangle with ``yhi < y_i`` was inserted before *i*,
  because ``ylo <= yhi``).  A cheap O(events) integer loop replays the
  probe/insert/compact schedule on those counts — no rectangle is
  touched — and lands on bit-identical ``cpu_ops`` and
  ``max_active_items``.
* **Segments.**  PBSM's tiles are independent sweeps, so *k* of them
  run as one: the sides are concatenated and every y-coordinate is
  replaced by the exact integer key ``tile * R + rank``, ``rank`` being
  the order-preserving dense rank of all ``ylo``/``yhi`` values of the
  group (one argsort — no arithmetic on coordinates, ties stay ties).
  Events then order by tile first, an alive range can never reach into
  the next tile, and the three steps above run unchanged over the
  whole group; only the op replay knows about tiles, restarting its
  state at each segment.  One tile needs no ranks: its raw floats are
  already such a key.

Inputs with inverted y-intervals (``yhi < ylo``) break the
"dead implies already inserted" identity; every entry point returns
``None`` for those, and the caller falls back to the python kernel.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import PairColumns
from repro.core.sweep import SweepStats
from repro.geom.rect import RECT_BYTES, Rect

#: Upper bound on candidate pairs materialized per chunk (see
#: :func:`_find_pairs`).  Bounds peak memory at roughly
#: ``24 bytes x CHUNK_CANDIDATES`` while keeping the number of numpy
#: passes per sweep near one for everything but pathological overlap.
CHUNK_CANDIDATES = 4_000_000

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: ``(xlo, xhi, ylo, yhi, rid)`` arrays of one side.
Columns = Tuple[np.ndarray, ...]


# -- column extraction -------------------------------------------------------


def _columns(side) -> Columns:
    """``(xlo, xhi, ylo, yhi, rid)`` arrays from a tile or Rect list.

    Columnar tiles (``array('d')`` columns or shared-memory
    memoryviews) convert zero-copy via ``frombuffer``; boxed Rect
    lists pay one bulk conversion for the coordinates and one for the
    ids, which never pass through a float (a ``rid`` above 2**53 would
    not survive it).
    """
    if isinstance(side, (list, tuple)):
        if not side:
            e = np.empty(0, dtype=np.float64)
            return e, e, e, e, _EMPTY_I64
        arr = np.asarray(side, dtype=np.float64)
        return (
            np.ascontiguousarray(arr[:, 0]),
            np.ascontiguousarray(arr[:, 1]),
            np.ascontiguousarray(arr[:, 2]),
            np.ascontiguousarray(arr[:, 3]),
            np.fromiter(map(itemgetter(4), side), np.int64, len(side)),
        )
    return (
        np.frombuffer(side.xlo, dtype=np.float64),
        np.frombuffer(side.xhi, dtype=np.float64),
        np.frombuffer(side.ylo, dtype=np.float64),
        np.frombuffer(side.yhi, dtype=np.float64),
        np.frombuffer(side.rid, dtype=np.int64),
    )


def _valid(cols: Columns) -> bool:
    """No inverted y-interval: the kernel's model holds for this side."""
    return bool(np.all(cols[3] >= cols[2]))


def _is_sorted_by_ylo(ylo: np.ndarray) -> bool:
    return len(ylo) <= 1 or bool(np.all(ylo[1:] >= ylo[:-1]))


# -- the vectorized sweep core -----------------------------------------------


class _Merged:
    """Merged event columns of one sweep (sorted sides, A-first ties).

    ``lo`` / ``hi`` are the sweep keys of each event's y-interval: the
    raw ``ylo`` / ``yhi`` for a single sweep, the segmented integer
    keys for a group (:func:`_segment_keys`).  Each side is ordered by
    ``(lo, xlo)`` unless ``presorted``, then the two runs are merged by
    ``lo`` with a stable sort; the columns are gathered once, through
    the composed permutation.  ``cb is ca`` sweeps one side against
    itself and sorts it once.
    """

    __slots__ = ("xlo", "xhi", "ylo", "rid", "lo", "hi", "is_a", "n")

    def __init__(self, ca: Columns, cb: Columns,
                 keys_a: Tuple[np.ndarray, np.ndarray],
                 keys_b: Tuple[np.ndarray, np.ndarray],
                 presorted: bool = False) -> None:
        na = len(ca[0])
        nb = len(cb[0])
        self.n = na + nb
        order_a = _side_order(ca[0], keys_a[0], presorted)
        if cb is ca:
            # Both runs index the one side: no second copy of it.
            order_b = order_a
            src = ca + keys_a
        else:
            order_b = _side_order(cb[0], keys_b[0], presorted) + na
            src = tuple(
                np.concatenate(pair) for pair in zip(ca + keys_a,
                                                     cb + keys_b)
            )
        perm = np.concatenate((order_a, order_b))
        merge = np.argsort(src[5][perm], kind="stable")
        perm = perm[merge]
        self.is_a = merge < na
        self.xlo = src[0][perm]
        self.xhi = src[1][perm]
        self.ylo = src[2][perm]
        self.rid = src[4][perm]
        self.lo = src[5][perm]
        self.hi = src[6][perm]


def _side_order(xlo: np.ndarray, lo: np.ndarray,
                presorted: bool) -> np.ndarray:
    """One side's sort permutation: by ``(lo, xlo)``, stable — the
    python sort key — or the identity for a presorted side."""
    if presorted or len(lo) <= 1:
        return np.arange(len(lo), dtype=np.int64)
    return np.lexsort((xlo, lo))


def _find_pairs(lo: np.ndarray, hi: np.ndarray, xlo: np.ndarray,
                xhi: np.ndarray, is_a: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """All sweep pairs as ``(later, earlier)`` event indices, emit order.

    Because events are sorted by their ``lo`` key, the earlier
    rectangle *c* of a pair is alive at the later event *e* exactly
    when ``lo[e] <= hi[c]`` — i.e. *e* lies in the contiguous index
    range ``(c, end_c)`` with ``end_c = searchsorted(lo, hi[c],
    'right')``, which a segmented key keeps inside *c*'s own tile.
    Candidates are enumerated one direction at a time (A-earlier with
    B-later, then B-earlier with A-later) through each side's compact
    index space, so only opposite-side candidates are ever
    materialized — their total count equals the live probe work the
    python kernel does — and the only per-candidate filter left is the
    x-overlap test.  Enumeration is chunked so peak memory stays
    bounded on pathologically overlapping inputs.
    """
    n = len(lo)
    if n == 0:
        return _EMPTY_I64, _EMPTY_I64
    # end[c]: first event index no longer alive for c (end[c] >= c + 1).
    end = np.searchsorted(lo, hi, side="right")
    # Inclusive per-side prefix counts: cnt_a[i] = #A events <= i.
    cnt_a = np.cumsum(is_a)
    cnt_b = np.arange(1, n + 1, dtype=cnt_a.dtype) - cnt_a
    idx_a = np.nonzero(is_a)[0]
    idx_b = np.nonzero(~is_a)[0]
    later_parts: List[np.ndarray] = []
    earlier_parts: List[np.ndarray] = []
    for c_side, e_side, cnt_e in (
        (idx_a, idx_b, cnt_b),
        (idx_b, idx_a, cnt_a),
    ):
        if not (len(c_side) and len(e_side)):
            continue
        # Later opposite-side events for c occupy the compact range
        # [cnt_e[c], cnt_e[end[c] - 1]) of e_side.
        lo_j = cnt_e[c_side]
        hi_j = cnt_e[end[c_side] - 1]
        counts = hi_j - lo_j
        cum = np.cumsum(counts)
        xlo_e = xlo[e_side]
        xhi_e = xhi[e_side]
        start = 0
        m = len(c_side)
        while start < m:
            base = int(cum[start - 1]) if start else 0
            stop = int(np.searchsorted(cum, base + CHUNK_CANDIDATES,
                                       side="left")) + 1
            stop = min(m, max(stop, start + 1))
            cc = counts[start:stop]
            total = int(cc.sum())
            if total:
                c_rep = np.repeat(c_side[start:stop], cc)
                c_starts = np.cumsum(cc) - cc
                j = (
                    np.arange(total, dtype=np.int64)
                    + np.repeat(lo_j[start:stop] - c_starts, cc)
                )
                keep = (
                    (np.repeat(xlo[c_side[start:stop]], cc) <= xhi_e[j])
                    & (xlo_e[j] <= np.repeat(xhi[c_side[start:stop]], cc))
                )
                later_parts.append(e_side[j[keep]])
                earlier_parts.append(c_rep[keep])
            start = stop
    if not later_parts:
        return _EMPTY_I64, _EMPTY_I64
    later = np.concatenate(later_parts)
    earlier = np.concatenate(earlier_parts)
    # The python kernel emits grouped by the later event, in active
    # list (= insertion = event) order: sort by (later, earlier).
    # Fused into one unique int64 key — cheaper than a lexsort.
    order = np.argsort(later * n + earlier)
    return later[order], earlier[order]


def _pairs(m: _Merged, bounds: Sequence[int]
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_find_pairs` oriented: ``(a_idx, b_idx, segment)`` event
    indices of each pair's A and B rectangle and the segment of
    ``bounds`` it was found in (its later event's), in emit order.
    (The later/earlier arrays end with this frame: a hot tile's pair
    columns are what sets a pool worker's peak memory.)"""
    later, earlier = _find_pairs(m.lo, m.hi, m.xlo, m.xhi, m.is_a)
    a_later = m.is_a[later]
    return (np.where(a_later, later, earlier),
            np.where(a_later, earlier, later),
            np.searchsorted(bounds, later, side="right") - 1)


def _simulate_ops(is_a: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  bounds: Sequence[int]) -> List[Tuple[int, int]]:
    """Replay the probe/insert/compact op schedule on merged events.

    Returns one ``(cpu_ops, max_active_items)`` per segment
    ``[bounds[t], bounds[t + 1])``, each bit-identical to
    :func:`~repro.core.sweep.sweep_join_batched` over that segment's
    events alone.  ``live_x[i]`` is the live size of side x's active
    list when event *i* probes/compacts: inserts before *i* minus
    deaths before ``lo[i]`` (validity ``lo <= hi`` guarantees every
    death happened after its insert).  Both terms are counted over the
    whole array; a segmented key puts every event of an earlier tile
    among the inserted *and* the dead, so the difference is the tile's
    own, and only the replay state restarts per segment.
    """
    ins_a = np.cumsum(is_a) - is_a
    not_a = ~is_a
    ins_b = np.cumsum(not_a) - not_a
    deaths_a = np.sort(hi[is_a])
    deaths_b = np.sort(hi[not_a])
    live_a = (ins_a - np.searchsorted(deaths_a, lo, side="left")).tolist()
    live_b = (ins_b - np.searchsorted(deaths_b, lo, side="left")).tolist()
    side_a = is_a.tolist()

    out: List[Tuple[int, int]] = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        ops = 0
        raw_a = raw_b = 0
        compact_at = 64
        max_active = 0
        for a_event, la, lb in zip(side_a[start:stop], live_a[start:stop],
                                   live_b[start:stop]):
            if a_event:
                ops += raw_b + 1  # probe the whole raw B list, insert into A
                raw_b = lb
                raw_a += 1
            else:
                ops += raw_a + 1
                raw_a = la
                raw_b += 1
            total = raw_a + raw_b
            if total > compact_at:
                ops += total  # compact() scans both raw lists
                if a_event:
                    raw_a = la + 1  # the just-inserted rect is live
                    raw_b = lb
                else:
                    raw_a = la
                    raw_b = lb + 1
                total = raw_a + raw_b
                doubled = 2 * total
                compact_at = doubled if doubled > 64 else 64
                if total > max_active:
                    max_active = total
            elif total <= 64 and total > max_active:
                max_active = total
        out.append((ops, max_active))
    return out


def _sort_ops(n: int) -> int:
    """The python kernel's sort charge: ``int(n * log2(n))`` for n > 1."""
    return int(n * math.log2(n)) if n > 1 else 0


# -- public entry points -----------------------------------------------------


def sweep_pairs_batched(
    rects_a, rects_b, env, presorted: bool = False,
) -> Optional[Tuple[List[Tuple[Rect, Rect]], SweepStats]]:
    """Vectorized :func:`~repro.core.sweep.forward_sweep_pairs_batched`.

    Accepts Rect lists or columnar tiles on either side.  Returns
    ``None`` when the input is outside the kernel's model (inverted
    y-intervals) — the caller falls back to the python kernel.
    """
    ca = _columns(rects_a)
    cb = ca if rects_b is rects_a else _columns(rects_b)
    if not (_valid(ca) and (cb is ca or _valid(cb))):
        return None
    if presorted:
        # The python merge loop raises on the first out-of-order event;
        # an unsorted presorted=True input is a caller bug either way.
        if not _is_sorted_by_ylo(ca[2]):
            raise ValueError("source A is not sorted by ylo")
        if not _is_sorted_by_ylo(cb[2]):
            raise ValueError("source B is not sorted by ylo")
    else:
        env.charge("sweep", _sort_ops(len(ca[0]) + len(cb[0])))
    m = _Merged(ca, cb, ca[2:4], cb[2:4], presorted)
    a_idx, b_idx, _ = _pairs(m, (0, m.n))
    (ops, max_active), = _simulate_ops(m.is_a, m.lo, m.hi, (0, m.n))
    stats = SweepStats(
        pairs=int(a_idx.size),
        cpu_ops=ops,
        max_active_items=max_active,
        max_active_bytes=max_active * RECT_BYTES,
    )
    env.charge("sweep", ops)
    # One sweep, raw keys: ``m.hi`` is the events' ``yhi``.
    events = list(map(Rect, m.xlo.tolist(), m.xhi.tolist(),
                      m.ylo.tolist(), m.hi.tolist(), m.rid.tolist()))
    pairs = [
        (events[a], events[b])
        for a, b in zip(a_idx.tolist(), b_idx.tolist())
    ]
    return pairs, stats


def sweep_tiles(
    tiles: Sequence[tuple], self_join: bool, grid_spec: tuple, window,
    collect: bool,
) -> Optional[Tuple[List[int], Optional[PairColumns], List[int],
                    List[int]]]:
    """*k* whole tile tasks in one pass: sweep + ownership + dedup.

    ``tiles`` holds one ``(part_id, side_a, side_b)`` per tile of one
    query (so ``self_join``, the grid, the window and ``collect`` are
    shared; ``side_b`` is ``None`` when a tile sweeps against itself).
    Mirrors the python body of
    :func:`repro.engine.executor.sweep_tile_task` tile by tile — window
    pruning, the batched sweep (sort charge included), reference-point
    ownership against the PBSM grid and each pair's own partition,
    self-join dedup — without boxing a single ``Rect`` or id pair, and
    without a pair ever crossing from one tile into the next.  Returns
    ``(counts, owned pairs or None, cpu_ops, dups)`` with one entry
    per tile in the three lists and the pairs of all tiles as one
    :class:`~repro.core.columnar.PairColumns`, tile after tile in the
    python body's emit order — or ``None`` when the input is outside
    the kernel's model, and then for the whole group.
    """
    k = len(tiles)
    ca, tile_a = _gather([a for _, a, _ in tiles], window)
    if (self_join and window is not None) or all(
        b is None or b is a for _, a, b in tiles
    ):
        cb, tile_b = ca, tile_a
    else:
        cb, tile_b = _gather(
            [a if b is None else b for _, a, b in tiles], window
        )
    if not (_valid(ca) and (cb is ca or _valid(cb))):
        return None
    sizes = np.bincount(tile_a, minlength=k) + np.bincount(
        tile_b, minlength=k
    )
    bounds = [0] + np.cumsum(sizes).tolist()
    # One tile needs no ranks: its raw floats are already a valid key.
    keys_a, keys_b = (
        (ca[2:4], cb[2:4]) if k == 1
        else _segment_keys(ca, tile_a, cb, tile_b)
    )
    m = _Merged(ca, cb, keys_a, keys_b)
    a_idx, b_idx, seg = _pairs(m, bounds)
    ops = [
        _sort_ops(stop - start) + swept
        for start, stop, (swept, _) in zip(
            bounds[:-1], bounds[1:],
            _simulate_ops(m.is_a, m.lo, m.hi, bounds),
        )
    ]
    if not a_idx.size:
        return ([0] * k, PairColumns.empty() if collect else None, ops,
                [0] * k)

    # Owned: the reference point lies in the pair's own partition.
    # (Its coordinates are dropped before the ids are gathered: on a
    # hot tile these pair-length columns are the task's peak memory.)
    own = _partition_of_points(
        np.maximum(m.xlo[a_idx], m.xlo[b_idx]),
        np.maximum(m.ylo[a_idx], m.ylo[b_idx]), grid_spec,
    ) == np.array([part_id for part_id, _, _ in tiles], np.int64)[seg]
    rid_a = m.rid[a_idx]
    rid_b = m.rid[b_idx]
    if self_join:
        own &= rid_a < rid_b
    owned = np.bincount(seg[own], minlength=k)
    dups = np.bincount(seg, minlength=k) - owned
    pairs: Optional[PairColumns] = None
    if collect:
        ids = np.empty((int(owned.sum()), 2), dtype=np.int64)
        ids[:, 0] = rid_a[own]
        ids[:, 1] = rid_b[own]
        pairs = PairColumns(ids)
    return (owned.tolist(), pairs, ops, dups.tolist())


def _gather(sides: list, window) -> Tuple[Columns, np.ndarray]:
    """One side of a group: the tiles' columns end to end, pruned to
    ``window``, and the tile index of every row."""
    per_tile = [_columns(side) for side in sides]
    cols = tuple(np.concatenate(col) for col in zip(*per_tile))
    tile = np.repeat(
        np.arange(len(sides), dtype=np.int64),
        [len(c[0]) for c in per_tile],
    )
    if window is not None:
        keep = window_mask(*cols[:4], window)
        if not bool(np.all(keep)):
            cols = tuple(col[keep] for col in cols)
            tile = tile[keep]
    return cols, tile


def _segment_keys(ca: Columns, tile_a: np.ndarray, cb: Columns,
                  tile_b: np.ndarray):
    """``(lo, hi)`` integer sweep keys per side: ``tile * R + rank``.

    ``rank`` is the dense rank of a y-value among all ``ylo`` / ``yhi``
    of the group — equal values share a rank, order is kept — so keys
    compare inside a tile exactly as the floats do, and every key of
    tile *t* lies below every key of tile *t + 1*.
    """
    parts = [ca[2], ca[3]] if cb is ca else [ca[2], ca[3], cb[2], cb[3]]
    values = np.concatenate(parts)
    order = np.argsort(values)
    ordered = values[order]
    step = np.zeros(len(values), dtype=np.int64)
    step[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.cumsum(step)
    span = len(values)  # R: above every rank
    na, nb = len(tile_a), len(tile_b)
    keys_a = (tile_a * span + rank[:na], tile_a * span + rank[na:2 * na])
    if cb is ca:
        return keys_a, keys_a
    rank_b = rank[2 * na:]
    return keys_a, (tile_b * span + rank_b[:nb],
                    tile_b * span + rank_b[nb:])


def window_mask(xlo: np.ndarray, xhi: np.ndarray, ylo: np.ndarray,
                yhi: np.ndarray, window) -> np.ndarray:
    """Closed-interval ``Rect.intersects(window)`` over whole columns."""
    return (
        (xlo <= window.xhi) & (window.xlo <= xhi)
        & (ylo <= window.yhi) & (window.ylo <= yhi)
    )


def _partition_of_points(x: np.ndarray, y: np.ndarray,
                         grid_spec: tuple) -> np.ndarray:
    """Vectorized :meth:`~repro.core.pbsm.TileGrid.partition_of_point`.

    Same arithmetic, same order of operations: the scale factors are
    computed exactly as ``TileGrid.__init__`` does (python floats),
    truncation toward zero matches ``int()``, and clamping matches
    ``_clamp`` — bit-identical partition ids.
    """
    uxlo, uxhi, uylo, uyhi, t, p = grid_spec
    span_x = uxhi - uxlo
    span_y = uyhi - uylo
    inv_x = t / span_x if span_x > 0 else 0.0
    inv_y = t / span_y if span_y > 0 else 0.0
    col = ((x - uxlo) * inv_x).astype(np.int64)
    row = ((y - uylo) * inv_y).astype(np.int64)
    np.clip(col, 0, t - 1, out=col)
    np.clip(row, 0, t - 1, out=row)
    return (row * t + col) % p
