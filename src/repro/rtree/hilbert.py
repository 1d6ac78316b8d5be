"""Hilbert space-filling curve on a 2^order x 2^order integer grid.

Bulk loading sorts rectangle centers along the Hilbert curve (Kamel &
Faloutsos '93, reference [17] of the paper), which clusters spatially
close rectangles into the same leaf and — because our page store hands
out extents in allocation order — onto neighbouring disk pages.  That
layout is precisely what gives the synchronized traversal its
sequential-I/O advantage in Figure 2(d)-(f).

The iterative xy->d conversion below is the classic bit-interleaving
formulation (Hamilton's compact form); it is a bijection between grid
cells and curve positions, a property the tests verify exhaustively on
small orders and by sampling on large ones.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.geom.rect import cells_per_unit

#: Default curve order: a 65536 x 65536 grid, fine enough that distinct
#: TIGER coordinates rarely collide in a cell.
DEFAULT_ORDER = 16


def hilbert_xy_to_d(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Map grid cell ``(x, y)`` to its distance along the Hilbert curve.

    ``x`` and ``y`` must lie in ``[0, 2**order)``.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(
            f"({x}, {y}) outside the {side}x{side} Hilbert grid"
        )
    rx = ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_d(xfrac: float, yfrac: float, order: int = DEFAULT_ORDER) -> int:
    """Curve position of a point given in unit-square fractions.

    Fractions are clamped into [0, 1], so callers may pass raw
    ``(value - lo) / (hi - lo)`` without worrying about boundary
    rounding.
    """
    side = 1 << order
    x = int(xfrac * side)
    y = int(yfrac * side)
    if x < 0:
        x = 0
    elif x >= side:
        x = side - 1
    if y < 0:
        y = 0
    elif y >= side:
        y = side - 1
    return hilbert_xy_to_d(x, y, order)


def hilbert_d_to_xy(d: int, order: int = DEFAULT_ORDER) -> tuple:
    """Inverse mapping: curve position to grid cell (for tests)."""
    side = 1 << order
    if not (0 <= d < side * side):
        raise ValueError(f"curve position {d} out of range")
    t = d
    x = y = 0
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return x, y


def hilbert_keys(
    centers: Iterable[tuple], lo_x: float, lo_y: float,
    hi_x: float, hi_y: float, order: int = DEFAULT_ORDER,
) -> List[int]:
    """Curve keys for many points, normalized to the given bounding box.

    A degenerate box (zero width or height, or one too thin for its
    reciprocal to be finite) maps every point to the same axis
    coordinate, which is still a valid total order.
    """
    inv_x = cells_per_unit(1.0, hi_x - lo_x)
    inv_y = cells_per_unit(1.0, hi_y - lo_y)
    return [
        hilbert_d((cx - lo_x) * inv_x, (cy - lo_y) * inv_y, order)
        for cx, cy in centers
    ]
