"""Vectorized batched forward sweep over columnar inputs.

The pure-python kernel (:func:`repro.core.sweep.forward_sweep_pairs_batched`)
walks a merged event stream, probing a lazily-expired active list per
side.  This module computes the *same* output — same pairs, in the
same emit order, with the same op accounting — from whole-column numpy
arithmetic:

* **Merged event order.**  The python sort orders each side by
  ``(ylo, xlo)``, stable, and its merge loop takes from A on equal
  ``ylo``: events order by ``(ylo, side, xlo, index within the
  side)``.  No two events tie on that tuple, so one default argsort of
  it packed into an int64 of dense ranks is that order exactly (a key
  too wide for int64 falls back to one lexsort of the same columns).
* **Pairs.**  At the event of the later rectangle, the earlier one is
  in the opposite active list and pairs iff it is still alive
  (``earlier.yhi >= later.ylo``) and the x-intervals overlap.  An
  event stays alive up to ``end`` — one ``searchsorted`` per call,
  with sorted needles, shared by everything below — so the candidates
  of each earlier event are one contiguous range of the other side,
  enumerated in chunks: the sweep's ``O(events x active)`` shape, not
  all-pairs.  The python kernel emits pairs grouped by the later
  event, in active list (= insertion) order — i.e. sorted by
  ``(later, earlier)`` event index — so one argsort of a fused key
  reproduces the exact emit order.
* **Op accounting.**  The python kernel's ops depend on the *raw*
  (live + lazily-dead) active sizes and its amortized compaction
  schedule.  Live sizes are prefix counts (inserts before event *i*
  minus ``end`` values at or before it); a probe leaves the opposite
  list at its live size, so raw sizes and probe costs are prefix sums
  over runs of same-side events.  Only compactions — a few hundred in
  the ~400 K events of a hundred served queries — are found one at a
  time, each by one vectorized first-exceedance search; no rectangle
  is touched and ``cpu_ops`` / ``max_active_items`` are bit-identical.
* **Segments.**  PBSM's tiles are independent sweeps, so *k* of them
  run as one: the sides are concatenated and every y-coordinate is
  replaced by the exact integer key ``tile * R + rank``, ``rank`` being
  the order-preserving dense rank of all ``ylo``/``yhi`` values of the
  group (one argsort — no arithmetic on coordinates, ties stay ties).
  Events then order by tile first, an alive range can never reach into
  the next tile, and the three steps above run unchanged over the
  whole group; only the op replay knows about tiles, restarting its
  state at each segment.  One tile needs no ranks: its raw floats are
  already such a key.  Tiles that are adjacent runs of one column
  image (a cold distribute's, a cached distribution's) are read as one
  slice of it; only tiles from different buffers are concatenated.
* **Ownership, strip.**  :func:`sweep_tiles` then keeps a pair only
  if its reference point lies in the pair's own partition (and, in a
  self-join, ``rid_a < rid_b``) and, on a shard, if its reference x
  lies in the shard's strip.  Both ride in the task's ``grid_spec``,
  which has one of two layouts:

  ==========  ====================================================
  entries     layout
  ==========  ====================================================
  6           ``xlo, xhi, ylo, yhi, tiles per side, partitions``
              (the grid alone: owns every x)
  8           the grid, then the strip ``lo, hi``
  ==========  ====================================================

  The kernel counts each test's drops apart (``dups``, ``unowned``).
  It knows no window: a windowed query's tiles hold only rectangles
  that meet the window, which is all the window test there is
  (:mod:`~repro.core.kernels.np_distribute` says why), and a shard
  folds the window's low x into its strip (:func:`fold_floor`).

Inputs with inverted y-intervals (``yhi < ylo``) break the
"dead implies already inserted" identity, and a NaN coordinate has no
rank in the merge key; every entry point returns ``None`` for an input
with either (or with an infinite coordinate), and the caller falls back
to the python kernel.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import PairColumns
from repro.core.sweep import SweepStats
from repro.geom.rect import RECT_BYTES, Rect, cells_per_unit

#: Upper bound on candidate pairs materialized per chunk (see
#: :func:`_find_pairs`).  Bounds peak memory at roughly
#: ``24 bytes x CHUNK_CANDIDATES`` while keeping the number of numpy
#: passes per sweep near one for everything but pathological overlap.
CHUNK_CANDIDATES = 4_000_000

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: Every packed merge key (:func:`_merge_order`) must lie below this:
#: int64 represents it exactly.
_KEY_BOUND = 2 ** 63

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
    """Finite coordinates and no inverted y-interval: the kernel's model
    holds for this side (a NaN would have no rank in the merge key)."""
    return bool(
        all(np.isfinite(col).all() for col in cols[:4])
        and np.all(cols[3] >= cols[2])
    )


def _is_sorted_by_ylo(ylo: np.ndarray) -> bool:
    return len(ylo) <= 1 or bool(np.all(ylo[1:] >= ylo[:-1]))


# -- the vectorized sweep core -----------------------------------------------


class _Merged:
    """Merged event columns of one sweep (sorted sides, A-first ties).

    ``keys_a`` / ``keys_b`` are each side's ``(lo, hi)`` sweep keys of
    its y-intervals: the raw ``ylo`` / ``yhi`` for a single sweep, the
    segmented integer keys for a group (:func:`_segment_keys`).  Events
    are ordered as the python merge takes them (:func:`_merge_order`)
    and the columns are gathered once, through that permutation; ``hi``
    is the merged ``hi`` keys (a single sweep's ``yhi``).  ``cb is ca``
    sweeps one side against itself without a second copy of its
    columns.

    ``end[c]`` is the first event no longer alive for event *c*
    (``searchsorted(lo, hi[c], 'right')`` over the merged keys, so
    ``end[c] >= c + 1``): the one search every consumer — pairs, op
    replays — shares.
    """

    __slots__ = ("xlo", "xhi", "ylo", "rid", "hi", "end", "is_a", "n")

    def __init__(self, ca: Columns, cb: Columns,
                 keys_a: Tuple[np.ndarray, np.ndarray],
                 keys_b: Tuple[np.ndarray, np.ndarray],
                 presorted: bool = False) -> None:
        na = len(ca[0])
        self.n = na + len(cb[0])
        if cb is ca:
            # Both runs index the one side: no second copy of it.
            src = ca + keys_a
            lo, xlo = (np.concatenate((col, col))
                       for col in (keys_a[0], ca[0]))
        else:
            src = tuple(
                np.concatenate(pair) for pair in zip(ca + keys_a,
                                                     cb + keys_b)
            )
            lo, xlo = src[5], src[0]
        order = _merge_order(lo, None if presorted else xlo, na)
        self.is_a = order < na
        perm = order if cb is not ca else np.where(self.is_a, order,
                                                   order - na)
        self.xlo = src[0][perm]
        self.xhi = src[1][perm]
        self.ylo = src[2][perm]
        self.rid = src[4][perm]
        self.hi = src[6][perm]
        # Sorted needles search several times faster than unsorted ones.
        by_hi = np.argsort(self.hi)
        self.end = np.empty(self.n, dtype=np.int64)
        self.end[by_hi] = np.searchsorted(lo[order], self.hi[by_hi],
                                          side="right")


def _merge_order(lo: np.ndarray, xlo: Optional[np.ndarray],
                 na: int) -> np.ndarray:
    """The python merge's event order over ``[A; B]`` as a permutation.

    Each side is sorted by ``(lo, xlo)`` (stable, so equal keys keep
    their index order; ``xlo`` is ``None`` for presorted sides, which
    keep index order outright) and the merge takes A on equal ``lo``:
    the order of ``(lo, side, xlo, index within the side)``.  No two
    events share that tuple, so one default argsort of it packed into
    one int64 — dense ranks, not coordinates — is exact.  A key that
    would not fit (about 1.6 M events) is sorted as the four columns.
    """
    n = len(lo)
    side = np.arange(n) >= na
    index = np.arange(n) - na * side
    lo_rank, n_lo = _dense_rank(lo)
    x_rank, n_x = (
        (np.zeros(n, dtype=np.int64), 1) if xlo is None
        else _dense_rank(xlo)
    )
    width = max(na, n - na, 1)
    if n_lo * 2 * n_x * width > _KEY_BOUND:
        return np.lexsort((index, x_rank, side, lo_rank))
    return np.argsort(((lo_rank * 2 + side) * n_x + x_rank) * width + index)


def _dense_rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving dense rank of ``values`` (equal values share
    one) and the number of distinct values."""
    order = np.argsort(values)
    ordered = values[order]
    step = np.zeros(len(values), dtype=np.int64)
    step[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(values), dtype=np.int64)
    distinct = np.cumsum(step)
    rank[order] = distinct
    return rank, int(distinct[-1]) + 1 if len(values) else 0


def _find_pairs(end: np.ndarray, xlo: np.ndarray, xhi: np.ndarray,
                is_a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All sweep pairs as ``(later, earlier)`` event indices, emit order.

    Because events are sorted by their ``lo`` key, the earlier
    rectangle *c* of a pair is alive at the later event *e* exactly
    when ``lo[e] <= hi[c]`` — i.e. *e* lies in the contiguous index
    range ``(c, end[c])`` (:attr:`_Merged.end`), which a segmented key
    keeps inside *c*'s own tile.
    Candidates are enumerated one direction at a time (A-earlier with
    B-later, then B-earlier with A-later) through each side's compact
    index space, so only opposite-side candidates are ever
    materialized — their total count equals the live probe work the
    python kernel does — and the only per-candidate filter left is the
    x-overlap test.  Enumeration is chunked so peak memory stays
    bounded on pathologically overlapping inputs.
    """
    n = len(end)
    if n == 0:
        return _EMPTY_I64, _EMPTY_I64
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
    later, earlier = _find_pairs(m.end, m.xlo, m.xhi, m.is_a)
    a_later = m.is_a[later]
    return (np.where(a_later, later, earlier),
            np.where(a_later, earlier, later),
            np.searchsorted(bounds, later, side="right") - 1)


def _simulate_ops(is_a: np.ndarray, end: np.ndarray,
                  bounds: Sequence[int]) -> List[Tuple[int, int]]:
    """Replay the probe/insert/compact op schedule on merged events.

    Returns one ``(cpu_ops, max_active_items)`` per segment
    ``[bounds[t], bounds[t + 1])``, each bit-identical to the python
    merge loop (:func:`~repro.core.sweep.sweep_join_batched`, no
    memory limit) over that segment's events alone, from ``end``
    (:attr:`_Merged.end`).

    The python sweep keeps a *raw* size per active list (live entries
    plus lazily-dead ones).  Event *i* probes the opposite list — that
    costs its raw size, and leaves it at its live size — then inserts
    into its own.  So a list's raw size is its live size as the last
    opposite event left it plus the inserts of the current run of
    same-side events, and everything but the compactions is prefix
    arithmetic.  A compaction (raw total over ``compact_at``) cuts only
    the compacting event's own list back to live, and only until its
    run ends; between compactions the totals are fixed, so each next
    compaction is one first-exceedance search and the loop is over
    compactions, not events.

    Live sizes are inserts before *i* minus deaths before *i* (*c* is
    dead at *i* iff ``end[c] <= i``; validity ``lo <= hi`` puts every
    death after its insert).  Both are counted over the whole array; a
    segmented key puts every event of an earlier tile among the
    inserted *and* the dead, so the difference is the tile's own, and
    only the schedule restarts per segment.
    """
    n = len(is_a)
    b = np.asarray(bounds, dtype=np.int64)
    if not n:
        return [(0, 0)] * (len(b) - 1)
    events = np.arange(n)
    ins_a = np.cumsum(is_a) - is_a
    dead = np.cumsum(np.bincount(end, minlength=n + 1))[:n]
    dead_a = np.cumsum(np.bincount(end[is_a], minlength=n + 1))[:n]
    live_a = ins_a - dead_a
    live_b = events - ins_a - (dead - dead_a)
    own = np.where(is_a, live_a, live_b)
    opp = np.where(is_a, live_b, live_a)

    nonempty = b[:-1] < b[1:]
    starts = b[:-1][nonempty]
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    run = first.copy()
    run[1:] |= is_a[1:] != is_a[:-1]
    run_at = np.flatnonzero(run)
    run_id = np.cumsum(run) - 1
    run_start = run_at[run_id]
    # The own list's raw size after event i, were nothing compacted:
    # the live size the opposite side's last probe left (none at a
    # segment start), plus the run's inserts so far.
    base = np.where(first[run_at], 0, opp[run_at - 1])
    raw = base[run_id] + (events - run_start) + 1
    uncompacted = raw + opp

    compactions: List[int] = []
    over = np.flatnonzero(uncompacted > 64)
    if over.size:
        run_stop = np.append(run_at[1:], n)
        seg = np.searchsorted(b, over, side="right") - 1
        heads = np.flatnonzero(np.diff(seg, prepend=-1))
        for c, t in zip(over[heads].tolist(), seg[heads].tolist()):
            stop = int(b[t + 1])
            while c < stop:
                compactions.append(c)
                limit = max(64, 2 * int(own[c] + 1 + opp[c]))
                # Cut back to live: the rest of c's run sits this lower.
                cut = int(raw[c] - own[c] - 1)
                run_end = int(run_stop[run_id[c]])
                c = _first_above(uncompacted, limit + cut, c + 1, run_end)
                if c == run_end:
                    c = _first_above(uncompacted, limit, run_end, stop)

    cut_after = np.zeros(n, dtype=np.int64)
    comp = np.array(compactions, dtype=np.int64)
    if comp.size:
        # Each event's run is cut by its run's latest compaction so far.
        latest = np.full(n, -1, dtype=np.int64)
        latest[comp] = np.arange(comp.size)
        latest = np.maximum.accumulate(latest)
        cuts = raw[comp] - own[comp] - 1
        in_run = (latest >= 0) & (comp[latest] >= run_start)
        cut_after = np.where(in_run, cuts[latest], 0)
    cut_before = np.zeros(n, dtype=np.int64)
    cut_before[1:] = cut_after[:-1]
    cut_before[run] = 0
    own_raw = raw - cut_after
    total = raw - cut_before + opp  # both raw lists after i's insert

    # An event costs its probe of the opposite raw list plus its insert.
    cost = np.ones(n, dtype=np.int64)
    cost[1:] += np.where(run[1:], own_raw[:-1], opp[:-1])
    cost[first] = 1
    cost[comp] += total[comp]  # compact() scans both raw lists
    peak = np.where(total <= 64, total, 0)
    peak[comp] = own[comp] + 1 + opp[comp]

    csum = np.concatenate(([0], np.cumsum(cost)))
    ops = (csum[b[1:]] - csum[b[:-1]]).tolist()
    peaks = [0] * len(ops)
    for t, value in zip(np.flatnonzero(nonempty).tolist(),
                        np.maximum.reduceat(peak, starts).tolist()):
        peaks[t] = value
    return list(zip(ops, peaks))


def _first_above(values: np.ndarray, limit: int, start: int,
                 stop: int) -> int:
    """First index in ``[start, stop)`` whose value exceeds ``limit``,
    else ``stop``.  Scans in doubling slices, so a search costs about
    the distance it moves."""
    size = 256
    while start < stop:
        hit = np.flatnonzero(values[start:min(stop, start + size)] > limit)
        if hit.size:
            return start + int(hit[0])
        start += size
        size *= 2
    return stop


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
    y-intervals, non-finite coordinates) — the caller falls back to the
    python kernel.
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
    (ops, max_active), = _simulate_ops(m.is_a, m.end, (0, m.n))
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
    tiles: Sequence[tuple], self_join: bool, grid_spec: tuple,
    collect: bool,
) -> Optional[Tuple[List[int], Optional[PairColumns], List[int],
                    List[int], List[int]]]:
    """*k* whole tile tasks in one pass: sweep + ownership + dedup.

    ``tiles`` holds one ``(part_id, side_a, side_b)`` per tile of one
    query (so ``self_join``, the grid and ``collect`` are shared;
    ``side_b`` is ``None`` when a tile sweeps against itself).
    Mirrors :func:`repro.core.pbsm.sweep_tile`, the reference, tile
    by tile — the batched sweep (sort charge included),
    reference-point ownership against the PBSM grid and each pair's
    own partition, self-join dedup, then the strip test — without
    boxing a single ``Rect`` or id pair, and without a pair ever
    crossing from one tile into the next.

    ``grid_spec`` is the grid's six numbers ``(xlo, xhi, ylo, yhi,
    tiles per side, partitions)``, then optionally a shard's strip
    ``(lo, hi)``: 6 or 8 entries.  With a strip a pair is kept only
    if its reference x lies in ``[lo, hi)`` (:func:`strip_mask`; a
    windowed query's strip has the window's low x folded in,
    :func:`fold_floor`).  A window is not the kernel's: a windowed
    query's tiles hold only the rectangles that meet it.  Returns
    ``(counts, owned pairs or None, cpu_ops, dups, unowned)`` with one
    entry per tile in the four lists — ``dups`` what the partition
    test and self-join dedup dropped, ``unowned`` what the strip test
    dropped after them — and the pairs of all tiles as one
    :class:`~repro.core.columnar.PairColumns`, tile after tile in the
    python body's emit order — or ``None`` when the input is outside
    the kernel's model, and then for the whole group.
    """
    if len(grid_spec) not in (6, 8):
        raise ValueError(
            f"a grid spec has 6 or 8 entries, not {len(grid_spec)}"
        )
    k = len(tiles)
    ca, tile_a = _gather([a for _, a, _ in tiles])
    if all(b is None or b is a for _, a, b in tiles):
        cb, tile_b = ca, tile_a
    else:
        cb, tile_b = _gather([a if b is None else b for _, a, b in tiles])
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
            _simulate_ops(m.is_a, m.end, bounds),
        )
    ]
    if not a_idx.size:
        return ([0] * k, PairColumns.empty() if collect else None, ops,
                [0] * k, [0] * k)

    # Owned: the reference point lies in the pair's own partition.
    # (Its coordinates are dropped before the ids are gathered: on a
    # hot tile these pair-length columns are the task's peak memory.)
    ref_x = np.maximum(m.xlo[a_idx], m.xlo[b_idx])
    own = _partition_of_points(
        ref_x, np.maximum(m.ylo[a_idx], m.ylo[b_idx]), grid_spec[:6]
    ) == np.array([part_id for part_id, _, _ in tiles], np.int64)[seg]
    if self_join:
        own &= m.rid[a_idx] < m.rid[b_idx]
    found = np.bincount(seg[own], minlength=k)
    dups = np.bincount(seg, minlength=k) - found
    owned = found
    if len(grid_spec) == 8:
        own &= strip_mask(ref_x, grid_spec[6:])
        owned = np.bincount(seg[own], minlength=k)
    del ref_x
    pairs: Optional[PairColumns] = None
    if collect:
        ids = np.empty((int(owned.sum()), 2), dtype=np.int64)
        ids[:, 0] = m.rid[a_idx[own]]
        ids[:, 1] = m.rid[b_idx[own]]
        pairs = PairColumns(ids)
    return (owned.tolist(), pairs, ops, dups.tolist(),
            (found - owned).tolist())


def strip_mask(x: np.ndarray, strip: Sequence[float]) -> np.ndarray:
    """``lo <= x < hi`` over a column of reference x-coordinates: the
    results a shard owning the strip ``(lo, hi)`` keeps.  An infinite
    ``hi`` is no bound, so the last strip owns an infinite x too."""
    lo, hi = strip
    if hi == math.inf:
        return x >= lo
    if lo == -math.inf:
        return x < hi
    return (x >= lo) & (x < hi)


def fold_floor(strip: Sequence[float], floor: float) -> Tuple[float, float]:
    """The strip that owns ``x`` exactly when ``strip`` owns
    ``max(x, floor)``.

    A windowed query's reference x is clipped up to the window's low
    x; folding that floor into the strip once spares every test the
    clip.  ``lo <= max(x, floor)`` holds for every x once ``floor``
    reaches ``lo``, and ``max(x, floor) < hi`` for none once it
    reaches a finite ``hi``; :func:`strip_mask`'s infinite ``hi``
    still owns an infinite x.
    """
    lo, hi = strip
    return (-math.inf if floor >= lo else lo,
            hi if floor < hi or hi == math.inf else -math.inf)


def _gather(sides: list) -> Tuple[Columns, np.ndarray]:
    """One side of a group: the tiles' columns end to end, and the
    tile index of every row.

    Tiles that are adjacent runs of one image's columns
    (:attr:`~repro.core.columnar.ColumnarTile.source`, in row order)
    are read as one slice of those columns; only separate runs are
    concatenated, so a group that is one run — or one tile — is swept
    where it lies, without a copy.
    """
    runs: List[list] = []  # [columns, lo, hi], or [None, Columns]
    for side in sides:
        source = getattr(side, "source", None)  # a Rect list has none
        if source is None:
            runs.append([None, _columns(side)])
        elif runs and runs[-1][0] is source[0] and runs[-1][2] == source[1]:
            runs[-1][2] = source[2]
        else:
            runs.append(list(source))
    per_run = [
        run[1] if run[0] is None else tuple(
            np.frombuffer(col, dtype=np.int64 if i == 4 else np.float64)[
                run[1]:run[2]]
            for i, col in enumerate(run[0])
        )
        for run in runs
    ]
    cols = (per_run[0] if len(per_run) == 1
            else tuple(np.concatenate(col) for col in zip(*per_run)))
    tile = np.repeat(np.arange(len(sides), dtype=np.int64),
                     [len(side) for side in sides])
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
    rank, span = _dense_rank(np.concatenate(parts))  # R: above every rank
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
    inv_x = cells_per_unit(t, uxhi - uxlo)
    inv_y = cells_per_unit(t, uyhi - uylo)
    col = ((x - uxlo) * inv_x).astype(np.int64)
    row = ((y - uylo) * inv_y).astype(np.int64)
    np.clip(col, 0, t - 1, out=col)
    np.clip(row, 0, t - 1, out=row)
    return (row * t + col) % p
