"""Axis-parallel rectangles (MBRs) and their predicates.

Every spatial object in the paper is represented in the filter step by its
minimal bounding rectangle.  Following the paper's storage format
(Section 5.3), a rectangle on disk occupies 20 bytes: four 4-byte corner
coordinates plus a 4-byte identifier.  In memory we use a ``NamedTuple``
of Python floats; data generators round all coordinates to float32 so
that the serialized (float32) and in-memory (float64) representations
describe exactly the same rectangle and all algorithms report identical
result sets regardless of whether the input came from a stream or an
R-tree.

Intervals are closed: two rectangles that merely touch intersect.  This
matches the convention of the plane-sweep literature the paper builds on
(Gueting & Schilling; Arge et al., VLDB'98).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

#: On-disk footprint of one MBR record (paper Section 5.3): 16 bytes of
#: corner coordinates + 4 bytes of object identifier.
RECT_BYTES = 20


class Rect(NamedTuple):
    """A minimal bounding rectangle with an object identifier.

    The coordinate order (``xlo, xhi, ylo, yhi``) groups the x-interval
    and the y-interval together because the sweep algorithms constantly
    test the two intervals independently: the sweep-line advances in y,
    and the interval-intersection test happens in x.
    """

    xlo: float
    xhi: float
    ylo: float
    yhi: float
    rid: int = 0

    def intersects(self, other: "Rect") -> bool:
        """Closed-interval intersection test against ``other``."""
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    def is_valid(self) -> bool:
        """True when both intervals are non-degenerate (lo <= hi)."""
        return self.xlo <= self.xhi and self.ylo <= self.yhi


def intersects(a: Rect, b: Rect) -> bool:
    """Closed-interval rectangle intersection."""
    return (
        a.xlo <= b.xhi and b.xlo <= a.xhi and a.ylo <= b.yhi and b.ylo <= a.yhi
    )


def intersects_x(a: Rect, b: Rect) -> bool:
    """Intersection of the x-projections only (the sweep's interval test)."""
    return a.xlo <= b.xhi and b.xlo <= a.xhi


def intersects_y(a: Rect, b: Rect) -> bool:
    """Intersection of the y-projections only."""
    return a.ylo <= b.yhi and b.ylo <= a.yhi


def intersection(a: Rect, b: Rect) -> Optional[Rect]:
    """The intersection rectangle of ``a`` and ``b``, or ``None``.

    The result carries ``rid=0``; callers that need provenance keep the
    input pair.  Used by the synchronized traversal (search-space
    restriction) and by multi-way joins, where the output of one join is
    the stream of intersection rectangles fed to the next.
    """
    xlo = a.xlo if a.xlo >= b.xlo else b.xlo
    xhi = a.xhi if a.xhi <= b.xhi else b.xhi
    ylo = a.ylo if a.ylo >= b.ylo else b.ylo
    yhi = a.yhi if a.yhi <= b.yhi else b.yhi
    if xlo > xhi or ylo > yhi:
        return None
    return Rect(xlo, xhi, ylo, yhi, 0)


def union_mbr(a: Rect, b: Rect) -> Rect:
    """Smallest rectangle enclosing both ``a`` and ``b`` (rid dropped)."""
    return Rect(
        a.xlo if a.xlo <= b.xlo else b.xlo,
        a.xhi if a.xhi >= b.xhi else b.xhi,
        a.ylo if a.ylo <= b.ylo else b.ylo,
        a.yhi if a.yhi >= b.yhi else b.yhi,
        0,
    )


def cells_per_unit(cells: float, span: float) -> float:
    """``cells / span``: how many grid cells one unit of an axis spans.

    A span that is not positive, or so thin (subnormal) that the
    quotient overflows to infinity, counts as zero: the axis maps every
    value to cell 0.  An infinite scale would turn the offset ``0`` of
    a value on the axis's low edge into ``0 * inf = NaN``.
    """
    if span > 0:
        scale = cells / span
        if scale != math.inf:
            return scale
    return 0.0


def mbr_of(rects: Iterable[Rect]) -> Rect:
    """MBR of a non-empty collection of rectangles.

    Raises ``ValueError`` on empty input: an "empty MBR" has no sensible
    coordinates and silently inventing one hides bugs in node packing.
    """
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("mbr_of() requires at least one rectangle")
    xlo, xhi, ylo, yhi = first.xlo, first.xhi, first.ylo, first.yhi
    for r in it:
        if r.xlo < xlo:
            xlo = r.xlo
        if r.xhi > xhi:
            xhi = r.xhi
        if r.ylo < ylo:
            ylo = r.ylo
        if r.yhi > yhi:
            yhi = r.yhi
    return Rect(xlo, xhi, ylo, yhi, 0)


def area(r: Rect) -> float:
    """Area of ``r``; degenerate rectangles have area 0."""
    w = r.xhi - r.xlo
    h = r.yhi - r.ylo
    if w < 0 or h < 0:
        return 0.0
    return w * h


def margin(r: Rect) -> float:
    """Half-perimeter of ``r`` (used by node-split quality metrics)."""
    return (r.xhi - r.xlo) + (r.yhi - r.ylo)


def enlargement(node_mbr: Rect, r: Rect) -> float:
    """Area increase of ``node_mbr`` if it were extended to cover ``r``.

    This is Guttman's ChooseLeaf criterion and also the bulk loader's
    "+20% area" admission test.
    """
    return area(union_mbr(node_mbr, r)) - area(node_mbr)


def reference_point(a: Rect, b: Rect) -> tuple:
    """Lower-left corner of the intersection of ``a`` and ``b``.

    PBSM replicates rectangles into every tile they overlap, so a pair
    may be discovered in several partitions.  The standard fix (used by
    our PBSM and by Striped-Sweep's multi-strip dedup) is to report the
    pair only where its *reference point* falls.  The caller must ensure
    ``a`` and ``b`` actually intersect.
    """
    return (
        a.xlo if a.xlo >= b.xlo else b.xlo,
        a.ylo if a.ylo >= b.ylo else b.ylo,
    )


def contains(outer: Rect, inner: Rect) -> bool:
    """True when ``outer`` fully contains ``inner`` (closed intervals)."""
    return (
        outer.xlo <= inner.xlo
        and inner.xhi <= outer.xhi
        and outer.ylo <= inner.ylo
        and inner.yhi <= outer.yhi
    )
