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

Inputs with inverted y-intervals (``yhi < ylo``) break the
"dead implies already inserted" identity; every entry point returns
``None`` for those, and the caller falls back to the python kernel.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

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


# -- column extraction -------------------------------------------------------


def _columns(side) -> Tuple[np.ndarray, ...]:
    """``(xlo, xhi, ylo, yhi, rid)`` arrays from a tile or Rect list.

    Columnar tiles (``array('d')`` columns or shared-memory
    memoryviews) convert zero-copy via ``frombuffer``; boxed Rect
    lists pay one bulk conversion.
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
            arr[:, 4].astype(np.int64),
        )
    return (
        np.frombuffer(side.xlo, dtype=np.float64),
        np.frombuffer(side.xhi, dtype=np.float64),
        np.frombuffer(side.ylo, dtype=np.float64),
        np.frombuffer(side.yhi, dtype=np.float64),
        np.frombuffer(side.rid, dtype=np.int64),
    )


def _sort_side(cols: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, ...]:
    """Columns reordered by ``(ylo, xlo)``, stable — the python sort key."""
    xlo, xhi, ylo, yhi, rid = cols
    if len(ylo) <= 1:
        return cols
    order = np.lexsort((xlo, ylo))
    return (xlo[order], xhi[order], ylo[order], yhi[order], rid[order])


def _is_sorted_by_ylo(ylo: np.ndarray) -> bool:
    return len(ylo) <= 1 or bool(np.all(ylo[1:] >= ylo[:-1]))


# -- the vectorized sweep core -----------------------------------------------


def _find_pairs(ylo: np.ndarray, yhi: np.ndarray, xlo: np.ndarray,
                xhi: np.ndarray, is_a: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """All sweep pairs as ``(later, earlier)`` event indices, emit order.

    Because events are sorted by ``ylo``, the earlier rectangle *c* of
    a pair is alive at the later event *e* exactly when
    ``ylo[e] <= yhi[c]`` — i.e. *e* lies in the contiguous index range
    ``(c, hi_c)`` with ``hi_c = searchsorted(ylo, yhi[c], 'right')``.
    Candidates are enumerated one direction at a time (A-earlier with
    B-later, then B-earlier with A-later) through each side's compact
    index space, so only opposite-side candidates are ever
    materialized — their total count equals the live probe work the
    python kernel does — and the only per-candidate filter left is the
    x-overlap test.  Enumeration is chunked so peak memory stays
    bounded on pathologically overlapping inputs.
    """
    n = len(ylo)
    if n == 0:
        return _EMPTY_I64, _EMPTY_I64
    # hi[c]: first event index no longer alive for c (hi[c] >= c + 1).
    hi = np.searchsorted(ylo, yhi, side="right")
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
        # [cnt_e[c], cnt_e[hi[c] - 1]) of e_side.
        lo_j = cnt_e[c_side]
        hi_j = cnt_e[hi[c_side] - 1]
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


def _simulate_ops(is_a: np.ndarray, ylo: np.ndarray,
                  yhi: np.ndarray) -> Tuple[int, int]:
    """Replay the probe/insert/compact op schedule on merged events.

    Returns ``(cpu_ops, max_active_items)`` bit-identical to
    :func:`~repro.core.sweep.sweep_join_batched` over the same events.
    ``live_x[i]`` is the live size of side x's active list when event
    *i* probes/compacts: inserts before *i* minus deaths before
    ``y_i`` (validity ``ylo <= yhi`` guarantees every death happened
    after its insert).
    """
    ins_a = np.cumsum(is_a) - is_a
    not_a = ~is_a
    ins_b = np.cumsum(not_a) - not_a
    deaths_a = np.sort(yhi[is_a])
    deaths_b = np.sort(yhi[not_a])
    live_a = (ins_a - np.searchsorted(deaths_a, ylo, side="left")).tolist()
    live_b = (ins_b - np.searchsorted(deaths_b, ylo, side="left")).tolist()
    side_a = is_a.tolist()

    ops = 0
    raw_a = raw_b = 0
    compact_at = 64
    max_active = 0
    for i, a_event in enumerate(side_a):
        if a_event:
            ops += raw_b + 1  # probe the whole raw B list, insert into A
            raw_b = live_b[i]
            raw_a += 1
        else:
            ops += raw_a + 1
            raw_a = live_a[i]
            raw_b += 1
        total = raw_a + raw_b
        if total > compact_at:
            ops += total  # compact() scans both raw lists
            if a_event:
                raw_a = live_a[i] + 1  # the just-inserted rect is live
                raw_b = live_b[i]
            else:
                raw_a = live_a[i]
                raw_b = live_b[i] + 1
            total = raw_a + raw_b
            doubled = 2 * total
            compact_at = doubled if doubled > 64 else 64
            if total > max_active:
                max_active = total
        elif total <= 64 and total > max_active:
            max_active = total
    return ops, max_active


class _Merged:
    """Merged event columns of one sweep (sorted sides, A-first ties)."""

    __slots__ = ("xlo", "xhi", "ylo", "yhi", "rid", "is_a", "n")

    def __init__(self, sa: Tuple[np.ndarray, ...],
                 sb: Tuple[np.ndarray, ...]) -> None:
        na = len(sa[0])
        nb = len(sb[0])
        self.n = na + nb
        is_a = np.zeros(self.n, dtype=bool)
        is_a[:na] = True
        ylo_cat = np.concatenate((sa[2], sb[2]))
        order = np.argsort(ylo_cat, kind="stable")
        self.xlo = np.concatenate((sa[0], sb[0]))[order]
        self.xhi = np.concatenate((sa[1], sb[1]))[order]
        self.ylo = ylo_cat[order]
        self.yhi = np.concatenate((sa[3], sb[3]))[order]
        self.rid = np.concatenate((sa[4], sb[4]))[order]
        self.is_a = is_a[order]


def _sweep_merged(m: _Merged) -> Tuple[np.ndarray, np.ndarray, SweepStats]:
    """Pairs (as merged-event ``a_idx``/``b_idx``) plus kernel stats."""
    later, earlier = _find_pairs(m.ylo, m.yhi, m.xlo, m.xhi, m.is_a)
    ops, max_active = _simulate_ops(m.is_a, m.ylo, m.yhi)
    stats = SweepStats(
        pairs=int(later.size),
        cpu_ops=ops,
        max_active_items=max_active,
        max_active_bytes=max_active * RECT_BYTES,
    )
    if later.size:
        a_later = m.is_a[later]
        a_idx = np.where(a_later, later, earlier)
        b_idx = np.where(a_later, earlier, later)
    else:
        a_idx = b_idx = _EMPTY_I64
    return a_idx, b_idx, stats


def _charge_sort(env, n: int) -> int:
    """The python kernel's sort charge: ``int(n * log2(n))`` for n > 1."""
    if n > 1:
        ops = int(n * math.log2(n))
        env.charge("sweep", ops)
        return ops
    return 0


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
    if np.any(ca[3] < ca[2]) or np.any(cb[3] < cb[2]):
        return None
    if presorted:
        # The python merge loop raises on the first out-of-order event;
        # an unsorted presorted=True input is a caller bug either way.
        if not _is_sorted_by_ylo(ca[2]):
            raise ValueError("source A is not sorted by ylo")
        if not _is_sorted_by_ylo(cb[2]):
            raise ValueError("source B is not sorted by ylo")
        sa, sb = ca, cb
    else:
        sa = _sort_side(ca)
        sb = sa if cb is ca else _sort_side(cb)
        _charge_sort(env, len(sa[0]) + len(sb[0]))
    m = _Merged(sa, sb)
    a_idx, b_idx, stats = _sweep_merged(m)
    env.charge("sweep", stats.cpu_ops)
    events = list(map(Rect, m.xlo.tolist(), m.xhi.tolist(),
                      m.ylo.tolist(), m.yhi.tolist(), m.rid.tolist()))
    pairs = [
        (events[a], events[b])
        for a, b in zip(a_idx.tolist(), b_idx.tolist())
    ]
    return pairs, stats


def sweep_tile(
    side_a, side_b, self_join: bool, grid_spec: tuple, part_id: int,
    window, collect: bool,
) -> Optional[Tuple[int, Optional[PairColumns], int, int]]:
    """The whole tile task, vectorized: sweep + ownership + dedup.

    Mirrors :func:`repro.engine.executor.sweep_tile_task`'s python
    body — window pruning, the batched sweep (sort charge included),
    reference-point ownership against the PBSM grid, self-join dedup —
    without boxing a single ``Rect`` or id pair.  Returns the task
    outcome ``(count, owned pairs or None, cpu_ops, dups)``, the pairs
    as :class:`~repro.core.columnar.PairColumns` in the python body's
    emit order, or ``None`` when the input is outside the kernel's
    model.
    """
    ca = _columns(side_a)
    cb = ca if (side_b is None or side_b is side_a) else _columns(side_b)
    if np.any(ca[3] < ca[2]) or (cb is not ca and np.any(cb[3] < cb[2])):
        return None
    if window is not None:
        ca = _window_filter(ca, window)
        cb = ca if (self_join or cb is ca) else _window_filter(cb, window)
    sa = _sort_side(ca)
    sb = sa if cb is ca else _sort_side(cb)
    ops = _charge_sort_count(len(sa[0]) + len(sb[0]))
    m = _Merged(sa, sb)
    a_idx, b_idx, stats = _sweep_merged(m)
    ops += stats.cpu_ops

    if a_idx.size:
        rid_a = m.rid[a_idx]
        rid_b = m.rid[b_idx]
        x_ref = np.maximum(m.xlo[a_idx], m.xlo[b_idx])
        y_ref = np.maximum(m.ylo[a_idx], m.ylo[b_idx])
        own = _partition_of_points(x_ref, y_ref, grid_spec) == part_id
        if self_join:
            own &= rid_a < rid_b
        count = int(np.count_nonzero(own))
        dups = int(a_idx.size) - count
        pairs: Optional[PairColumns] = None
        if collect:
            ids = np.empty((count, 2), dtype=np.int64)
            ids[:, 0] = rid_a[own]
            ids[:, 1] = rid_b[own]
            pairs = PairColumns(ids)
    else:
        count = dups = 0
        pairs = PairColumns.empty() if collect else None
    return (count, pairs, ops, dups)


def _charge_sort_count(n: int) -> int:
    return int(n * math.log2(n)) if n > 1 else 0


def window_mask(xlo: np.ndarray, xhi: np.ndarray, ylo: np.ndarray,
                yhi: np.ndarray, window) -> np.ndarray:
    """Closed-interval ``Rect.intersects(window)`` over whole columns."""
    return (
        (xlo <= window.xhi) & (window.xlo <= xhi)
        & (ylo <= window.yhi) & (window.ylo <= yhi)
    )


def _window_filter(cols: Tuple[np.ndarray, ...],
                   window) -> Tuple[np.ndarray, ...]:
    """:func:`window_mask` pruning of a side's columns."""
    xlo, xhi, ylo, yhi, rid = cols
    keep = window_mask(xlo, xhi, ylo, yhi, window)
    if bool(np.all(keep)):
        return cols
    return (xlo[keep], xhi[keep], ylo[keep], yhi[keep], rid[keep])


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
