"""An independent count of the pairs a query must return.

Plain numpy broadcasting over the raw coordinates — no sweep, no grid,
no code shared with the engine — under the engine's window rule: a
pair counts iff the two MBRs intersect (closed intervals) and, for a
windowed query, their common intersection meets the window.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Cells of the broadcast comparison matrix evaluated at a time.
CHUNK_CELLS = 4_000_000

Window = Optional[Tuple[float, float, float, float]]


def columns(rects: Sequence) -> np.ndarray:
    """``(n, 4)`` float array of xlo, xhi, ylo, yhi."""
    return np.array([(r.xlo, r.xhi, r.ylo, r.yhi) for r in rects],
                    dtype=np.float64).reshape(-1, 4)


def count_pairs(a: np.ndarray, b: np.ndarray,
                window: Window = None) -> int:
    """Pairs (one from ``a``, one from ``b``) the query must return."""
    if window is not None:
        wxlo, wxhi, wylo, wyhi = window
        # A pair whose intersection meets the window has both members
        # meeting it; the exact rule is applied to the survivors below.
        a, b = (
            r[(r[:, 0] <= wxhi) & (r[:, 1] >= wxlo)
              & (r[:, 2] <= wyhi) & (r[:, 3] >= wylo)]
            for r in (a, b)
        )
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 0:
        return 0
    total = 0
    step = max(1, CHUNK_CELLS // len(a))
    axlo, axhi, aylo, ayhi = (a[:, i][None, :] for i in range(4))
    for start in range(0, len(b), step):
        part = b[start:start + step]
        bxlo, bxhi, bylo, byhi = (part[:, i][:, None] for i in range(4))
        ixlo = np.maximum(axlo, bxlo)
        ixhi = np.minimum(axhi, bxhi)
        iylo = np.maximum(aylo, bylo)
        iyhi = np.minimum(ayhi, byhi)
        hit = (ixlo <= ixhi) & (iylo <= iyhi)
        if window is not None:
            hit &= ((ixlo <= wxhi) & (ixhi >= wxlo)
                    & (iylo <= wyhi) & (iyhi >= wylo))
        total += int(np.count_nonzero(hit))
    return total


class Oracle:
    """Expected pair counts for one dataset, computed once per window."""

    def __init__(self, roads: Sequence, hydro: Sequence) -> None:
        self._a = columns(roads)
        self._b = columns(hydro)
        self._known: Dict[Window, int] = {}

    def expected(self, window: Window) -> int:
        if window not in self._known:
            self._known[window] = count_pairs(self._a, self._b, window)
        return self._known[window]
