"""Grid-based spatial histograms for selectivity estimation.

Section 6.3 proposes deciding between the index-based and sort-based
paths with "a simple cost model", estimating the fraction of leaf pages
a join touches "using, e.g., the spatial histograms developed in [1]"
(Acharya, Poosala & Ramaswamy, SIGMOD'99).  This module implements the
grid flavour of those histograms: the universe is cut into a uniform
grid; each cell records how many rectangles have their center there and
the running average rectangle extent.  Two estimators are derived:

* :meth:`SpatialHistogram.estimate_join_pairs` — expected number of
  intersecting pairs against another histogram (per-cell density
  product, extended by the average-extent Minkowski term);
* :meth:`SpatialHistogram.leaf_fraction` — the fraction of this
  relation's *occupied* cells that fall inside a query window, a proxy
  for the fraction of index leaves a localized join would visit, which
  is exactly the quantity the paper's ~60% rule needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional

from repro.geom.rect import Rect

DEFAULT_GRID = 32


class SpatialHistogram:
    """Uniform-grid histogram of rectangle centers and extents."""

    def __init__(self, universe: Rect, grid: int = DEFAULT_GRID) -> None:
        if grid < 1:
            raise ValueError("grid must be at least 1")
        self.universe = universe
        self.grid = grid
        # A zero span, or one too thin for a cell to be wider than 0
        # (subnormal), is degenerate: one unit-wide cell column holds
        # everything.
        cell_w = (universe.xhi - universe.xlo) / grid
        cell_h = (universe.yhi - universe.ylo) / grid
        self.cell_w = cell_w if cell_w > 0 else 1.0
        self.cell_h = cell_h if cell_h > 0 else 1.0
        self.counts: List[int] = [0] * (grid * grid)
        self.sum_w: List[float] = [0.0] * (grid * grid)
        self.sum_h: List[float] = [0.0] * (grid * grid)
        self.total = 0
        # Cell edges for :meth:`leaf_fraction`, from the expressions the
        # per-cell test would evaluate (``lo + i * cell``, then
        # ``+ cell``), so a bisection makes only comparisons that test
        # makes.  Both sequences are non-decreasing in ``i``.
        self._x_lo = [universe.xlo + i * self.cell_w for i in range(grid)]
        self._x_hi = [lo + self.cell_w for lo in self._x_lo]
        self._y_lo = [universe.ylo + i * self.cell_h for i in range(grid)]
        self._y_hi = [lo + self.cell_h for lo in self._y_lo]
        #: Summed-area table of ``counts`` (``(grid + 1)^2`` integers),
        #: built by the first windowed lookup after an ``add``.
        self._area: Optional[List[int]] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, rects: Iterable[Rect], universe: Rect,
              grid: int = DEFAULT_GRID) -> "SpatialHistogram":
        h = cls(universe, grid)
        for r in rects:
            h.add(r)
        return h

    def add(self, r: Rect) -> None:
        cx = (r.xlo + r.xhi) * 0.5
        cy = (r.ylo + r.yhi) * 0.5
        idx = self._cell_index(cx, cy)
        self.counts[idx] += 1
        self.sum_w[idx] += r.xhi - r.xlo
        self.sum_h[idx] += r.yhi - r.ylo
        self.total += 1
        self._area = None

    # -- estimators -----------------------------------------------------------

    def estimate_join_pairs(self, other: "SpatialHistogram") -> float:
        """Expected intersecting pairs against ``other``.

        Requires both histograms on the same universe and grid (the
        planner builds them that way).  Per cell, the expected pairs are
        ``na * nb * P(overlap)`` with ``P`` the Minkowski-sum area of
        the average extents, clipped at 1 — the uniform-within-cell
        assumption of [1].
        """
        self._check_compatible(other)
        est = 0.0
        for i, na in enumerate(self.counts):
            nb = other.counts[i]
            if na == 0 or nb == 0:
                continue
            avg_wa = self.sum_w[i] / na
            avg_ha = self.sum_h[i] / na
            avg_wb = other.sum_w[i] / nb
            avg_hb = other.sum_h[i] / nb
            p_x = min(1.0, (avg_wa + avg_wb) / self.cell_w)
            p_y = min(1.0, (avg_ha + avg_hb) / self.cell_h)
            est += na * nb * p_x * p_y
        return est

    def leaf_fraction(self, window: Optional[Rect]) -> float:
        """Fraction of this relation's data (cell-weighted) inside ``window``.

        ``None`` means an unbounded window: fraction 1.  This stands in
        for "the fraction of leaf nodes involved in the join" of
        Section 6.3: leaves follow the data distribution, so the mass of
        occupied cells inside the window tracks the mass of leaves the
        pruned index traversal must visit.
        """
        if window is None:
            return 1.0
        if self.total == 0:
            return 0.0
        # A cell counts when ``cell_hi >= window.lo and cell_lo <=
        # window.hi`` on both axes.  The edges are monotone, so the
        # cells that pass are a row range times a column range, and
        # their (integer) mass is four reads of the summed-area table.
        r0 = bisect_left(self._y_hi, window.ylo)
        r1 = bisect_right(self._y_lo, window.yhi)
        c0 = bisect_left(self._x_hi, window.xlo)
        c1 = bisect_right(self._x_lo, window.xhi)
        if r0 >= r1 or c0 >= c1:
            return 0.0
        area = self._area or self._build_area()
        w = self.grid + 1
        inside = (area[r1 * w + c1] - area[r0 * w + c1]
                  - area[r1 * w + c0] + area[r0 * w + c0])
        return inside / self.total

    # -- plumbing ----------------------------------------------------------

    def occupied_cells(self) -> int:
        return sum(1 for c in self.counts if c)

    def _build_area(self) -> List[int]:
        """``area[r * (g + 1) + c]``: rectangles in rows < r, cols < c."""
        g = self.grid
        w = g + 1
        area = [0] * (w * w)
        for row in range(g):
            run = 0
            above = row * w
            for col in range(g):
                run += self.counts[row * g + col]
                area[above + w + col + 1] = area[above + col + 1] + run
        self._area = area
        return area

    def _cell_index(self, x: float, y: float) -> int:
        col = int((x - self.universe.xlo) / self.cell_w)
        row = int((y - self.universe.ylo) / self.cell_h)
        col = min(max(col, 0), self.grid - 1)
        row = min(max(row, 0), self.grid - 1)
        return row * self.grid + col

    def _check_compatible(self, other: "SpatialHistogram") -> None:
        if self.grid != other.grid or self.universe != other.universe:
            raise ValueError(
                "histograms must share universe and grid for estimation"
            )
