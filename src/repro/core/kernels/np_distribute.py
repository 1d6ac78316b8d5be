"""Vectorized cold path: tile distribution, and the window post-filter
of the multiway plan.

The python distribute (:func:`repro.core.pbsm.distribute`) walks
a base stream one ``Rect`` at a time: window test, tile range,
partition set, one ``append`` per copy.  This module computes the same
placement — the same copies, in the same order, for the same op
charge — from whole-column arithmetic over a :class:`ColumnImage`, a
second in-memory representation of the relation's base stream (as
``CatalogEntry.rects`` already is):

* **Window prune.**  Closed-interval ``Rect.intersects`` as four
  column comparisons.  This is the only window test a partitioned
  plan makes (an index plan's traversal prunes its leaves the same
  way, to the window-clipped region of the other input): two
  rectangles that each meet a region inside the window, and meet each
  other, have an intersection that meets the window.  Per axis, two
  closed intervals that each meet a third, and meet each other, share
  a point with it (1-D Helly), so the pair's intersection and the
  window share a point on both axes.
* **Tile ranges.**  ``TileGrid.tile_range`` truncates
  ``(v - universe.lo) * inv`` toward zero and then clamps to
  ``[0, t - 1]``; both steps are monotone, so clamping the float first
  and truncating after gives the same tile for every finite input
  (negative offsets of a window-clipped universe included) and can
  never overflow the integer cast.
* **Copies.**  A rectangle inside one tile has one copy.  A multi-tile
  rectangle is expanded to its tiles' partitions and reduced to the
  distinct ones; copies are ordered by (stream row, partition), which
  is the order the python loop appends them in.
* **Group by partition.**  A stable sort of the resident copies by
  partition yields every partition's tile in scan order, gathered from
  the image once, one column at a time, into a
  :class:`~repro.core.columnar.TileImage` whose tiles are views of
  those columns: no tile is copied again, and a retained distribution
  shares the columns.

The warm path has one step here too: a windowed query that reuses a
cached full distribution prunes its column image to the window
(:func:`prune_image`, the same mask) before any tile is grouped or
shipped.

The kernel decides placement only.  Budget draws, block-read charges
and spill writes stay with the executor, which walks the simulated
disk exactly as the python path does.

The window post-filter, :func:`filter_window`, serves the one plan
whose inputs are not pruned to the window — multiway, whose tuples
leave the cascade as ids — by looking each rectangle up again by rid.

:func:`distribute` and :func:`filter_window` return ``None`` for
inputs outside this model — non-finite coordinates, which make the
python ``int()`` raise — before doing any work; the caller then runs
the python reference, with identical results by contract.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import PairColumns, TileImage
from repro.core.kernels.np_sweep import strip_mask, window_mask
from repro.geom.rect import Rect

#: Upper bound on (rectangle, tile) candidates expanded at once when
#: reducing multi-tile rectangles to their distinct partitions.
CHUNK_CANDIDATES = 250_000


class ColumnImage:
    """A relation's rectangles as five columns in stream order.

    ``rid`` lookups resolve through a sorted index; among duplicate
    ids the last row wins, as in a dict built over the rectangles.
    """

    __slots__ = ("xlo", "xhi", "ylo", "yhi", "rid", "bounds",
                 "_rid_sorted", "_rid_rows")

    def __init__(self, rects: Sequence[Rect]) -> None:
        n = len(rects)
        # Column by column: a 2-D intermediate would double the peak.
        self.xlo, self.xhi, self.ylo, self.yhi = (
            np.fromiter(map(itemgetter(i), rects), np.float64, n)
            for i in range(4)
        )
        self.rid = np.fromiter(map(itemgetter(4), rects), np.int64, n)
        #: ``(min x, max x, min y, max y)`` over all corners; NaN if
        #: any coordinate is.  Lets the kernels rule out non-finite
        #: arithmetic from eight scalars instead of a column pass.
        self.bounds = (
            float(min(self.xlo.min(), self.xhi.min())),
            float(max(self.xlo.max(), self.xhi.max())),
            float(min(self.ylo.min(), self.yhi.min())),
            float(max(self.ylo.max(), self.yhi.max())),
        )
        self._rid_rows = np.argsort(self.rid, kind="stable")
        self._rid_sorted = self.rid[self._rid_rows]

    def __len__(self) -> int:
        return len(self.rid)

    def rows_of(self, rids: np.ndarray) -> np.ndarray:
        """The row holding each of ``rids`` (which must all be present)."""
        last = np.searchsorted(self._rid_sorted, rids, side="right") - 1
        return self._rid_rows[last]


class Distribution:
    """Where one relation's rectangles go on a tile grid.

    ``rows[i]`` / ``parts[i]`` are the image row and the partition of
    the *i*-th copy in scan order; ``ops`` is the python loop's charge
    (one per scanned rectangle plus one per copy).
    """

    __slots__ = ("rows", "parts", "ops")

    def __init__(self, rows: np.ndarray, parts: np.ndarray,
                 scanned: int) -> None:
        self.rows = rows
        self.parts = parts
        self.ops = scanned + len(rows)

    def tiles(self, image: ColumnImage, resident: int,
              n_parts: int) -> TileImage:
        """The first ``resident`` copies grouped by partition, as one
        :class:`~repro.core.columnar.TileImage`.

        Its tile *i* holds partition *i*'s copies in scan order (empty
        for a partition none of them reached).  The copies are gathered
        from ``image`` once, one column at a time; the tiles are views
        of those columns, so no tile is copied again.
        """
        parts = self.parts[:resident]
        # 16-bit keys take numpy's radix path: a linear stable sort.
        keys = parts.astype(np.uint16) if n_parts <= 0x10000 else parts
        rows = self.rows[:resident][np.argsort(keys, kind="stable")]
        columns = [col[rows] for col in (image.xlo, image.xhi, image.ylo,
                                         image.yhi, image.rid)]
        ends = np.cumsum(np.bincount(parts, minlength=n_parts)).tolist()
        return TileImage(columns, [0, *ends])


def distribute(image: ColumnImage, grid,
               window: Optional[Rect]) -> Optional[Distribution]:
    """Vectorized placement of ``image`` on ``grid`` (a ``TileGrid``).

    Rows that miss ``window`` are scanned (one op) but not placed, as
    in the python loop.
    """
    uni = grid.universe
    lo_x, hi_x, lo_y, hi_y = image.bounds
    if not all(map(math.isfinite, (
        (lo_x - uni.xlo) * grid.inv_x, (hi_x - uni.xlo) * grid.inv_x,
        (lo_y - uni.ylo) * grid.inv_y, (hi_y - uni.ylo) * grid.inv_y,
    ))):
        return None
    xlo, xhi, ylo, yhi = image.xlo, image.xhi, image.ylo, image.yhi
    if window is None:
        rows = np.arange(len(image))
    else:
        rows = np.flatnonzero(window_mask(xlo, xhi, ylo, yhi, window))
        xlo, xhi, ylo, yhi = xlo[rows], xhi[rows], ylo[rows], yhi[rows]
    c0, c1, r0, r1 = tile_ranges(xlo, xhi, ylo, yhi, grid)
    parts = (r0 * grid.t + c0) % grid.p
    is_multi = (c1 != c0) | (r1 != r0)
    if is_multi.any():
        multi = np.flatnonzero(is_multi)
        single = np.flatnonzero(~is_multi)
        # One key per copy: sorting it orders by (row, partition).
        # The two runs are each ascending, which the stable merge sort
        # exploits.
        keys = np.concatenate((
            rows[single] * grid.p + parts[single],
            _multi_tile_keys(rows[multi], c0[multi], c1[multi],
                             r0[multi], r1[multi], grid.t, grid.p),
        ))
        keys.sort(kind="stable")
        rows, parts = np.divmod(keys, grid.p)
    return Distribution(rows, parts, len(image))


def tile_ranges(xlo: np.ndarray, xhi: np.ndarray, ylo: np.ndarray,
                yhi: np.ndarray, grid) -> Tuple[np.ndarray, ...]:
    """``TileGrid.tile_range`` over columns: ``(c0, c1, r0, r1)``."""
    uni = grid.universe
    top = grid.t - 1

    def index(v: np.ndarray, lo: float, inv: float) -> np.ndarray:
        return np.clip((v - lo) * inv, 0, top).astype(np.int64)

    return (
        index(xlo, uni.xlo, grid.inv_x), index(xhi, uni.xlo, grid.inv_x),
        index(ylo, uni.ylo, grid.inv_y), index(yhi, uni.ylo, grid.inv_y),
    )


def _multi_tile_keys(rows: np.ndarray, c0: np.ndarray, c1: np.ndarray,
                     r0: np.ndarray, r1: np.ndarray, t: int,
                     p: int) -> np.ndarray:
    """Ascending ``row * p + partition`` keys of multi-tile rectangles.

    Tiles map to partitions row-major round-robin, so one tile row
    visits consecutive residues and tile rows repeat with a period
    dividing ``p``: ``p`` columns by ``p`` rows reach every partition
    a larger footprint would, which bounds the expansion per rectangle
    by ``p * p`` whatever the grid resolution.
    """
    width = np.minimum(c1 - c0 + 1, p)
    counts = width * np.minimum(r1 - r0 + 1, p)
    ends = np.cumsum(counts)
    out = []
    start = 0
    while start < len(rows):
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + CHUNK_CANDIDATES,
                                   side="right"))
        stop = max(stop, start + 1)
        cc = counts[start:stop]
        rect = np.repeat(np.arange(start, stop), cc)
        k = np.arange(int(ends[stop - 1]) - base)
        k -= np.repeat(ends[start:stop] - cc - base, cc)
        dr, dc = np.divmod(k, width[rect])
        keys = ((r0[rect] + dr) * t + c0[rect] + dc) % p
        keys += rows[rect] * p
        keys.sort()
        distinct = np.empty(len(keys), dtype=bool)
        distinct[0] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        out.append(keys[distinct])
        start = stop
    return out[0] if len(out) == 1 else np.concatenate(out)


def prune_image(image: TileImage, window: Rect) -> TileImage:
    """The rows of ``image`` that meet ``window``, still grouped by tile.

    One :func:`~repro.core.kernels.np_sweep.window_mask` over the whole
    image and one gather a column; the survivors' tile offsets are one
    ``searchsorted`` of the image's.  An image the window covers whole
    comes back as itself, its tiles (and their identity) untouched.
    """
    cols = [np.frombuffer(col, dtype=np.float64) for col in image.columns[:4]]
    keep = np.flatnonzero(window_mask(*cols, window))
    if len(keep) == len(image):
        return image
    cols.append(np.frombuffer(image.columns[4], dtype=np.int64))
    return TileImage([col[keep] for col in cols],
                     np.searchsorted(keep, image.offsets).tolist())


def filter_window(images: Sequence[ColumnImage],
                  pairs: Sequence[tuple],
                  window: Rect) -> Optional[PairColumns]:
    """The pairs/tuples whose common intersection meets ``window``.

    ``images[i]`` resolves the *i*-th id of every tuple (arity >= 2).
    The common intersection is max-of-lows / min-of-highs over the
    tuple's rectangles; it is empty when a low exceeds its high.
    Kept tuples come back as columns, in the same order; ``pairs``
    that already are columns are masked as they stand.
    """
    if not all(math.isfinite(b) for im in images for b in im.bounds):
        return None
    columns = PairColumns.from_pairs(pairs, len(images))
    if not len(columns):
        return columns
    ids = columns.ids
    rows = images[0].rows_of(ids[:, 0])
    xlo, xhi = images[0].xlo[rows], images[0].xhi[rows]
    ylo, yhi = images[0].ylo[rows], images[0].yhi[rows]
    for i in range(1, len(images)):
        im = images[i]
        rows = im.rows_of(ids[:, i])
        np.maximum(xlo, im.xlo[rows], out=xlo)
        np.minimum(xhi, im.xhi[rows], out=xhi)
        np.maximum(ylo, im.ylo[rows], out=ylo)
        np.minimum(yhi, im.yhi[rows], out=yhi)
    keep = (
        (xlo <= xhi) & (ylo <= yhi)
        & window_mask(xlo, xhi, ylo, yhi, window)
    )
    return PairColumns(ids[keep])


def filter_strip(images: Sequence[ColumnImage], pairs: Sequence[tuple],
                 strip: Sequence[float]) -> PairColumns:
    """The pairs/tuples a shard owning ``strip`` keeps, as columns in
    the same order: those whose reference x — the largest low x of
    their rectangles — lies in the strip
    (:func:`~repro.core.kernels.np_sweep.strip_mask`; a windowed
    query's strip has the window's low x folded in).  ``images[i]``
    resolves the *i*-th id of every tuple."""
    columns = PairColumns.from_pairs(pairs, len(images))
    ref_x = np.full(len(columns), -math.inf)
    for i, im in enumerate(images):
        np.maximum(ref_x, im.xlo[im.rows_of(columns.ids[:, i])], out=ref_x)
    return PairColumns(columns.ids[strip_mask(ref_x, strip)])
