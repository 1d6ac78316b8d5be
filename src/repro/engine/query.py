"""Declarative spatial-join queries.

A :class:`Query` names what the caller wants — which catalog relations
to join, optionally restricted to a window, optionally refined with
exact geometry — and says nothing about how to compute it.  The
optimizer turns a query into a physical plan; the result cache keys on
the query's :meth:`cache_key`, which folds in the versions of the
referenced catalog entries so that re-registering a relation silently
orphans every stale cached result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.geom.rect import Rect

#: What ``Query.force`` accepts: the two plans the optimizer chooses
#: between — the index join (a row of
#: :data:`repro.core.planner.STRATEGIES`) and the partitioned plan (a
#: plan mode, not a row).  The table's other rows run through
#: :func:`repro.core.planner.unified_spatial_join`, not the engine.
FORCEABLE = ("pq-index", "pbsm-grid")


@dataclass(frozen=True)
class Query:
    """One spatial intersection-join request.

    Attributes
    ----------
    relations:
        Names of the catalog relations to join, in join order.  Two
        names make a pairwise join (planned with the cost model); three
        or more cascade through the multiway PQ join.  Naming the same
        relation twice is a **self-join**: it is planned through the
        partitioned PBSM/sweep path and each unordered pair is reported
        once, as ``(rid_a, rid_b)`` with ``rid_a < rid_b`` (identity
        pairs are excluded).  Multiway queries may not repeat a name.
    window:
        Optional region restricting the result to pairs whose MBR
        intersection meets the window — the paper's localized-join
        scenario ("Minnesota hydro x US roads", Section 6.3).  The
        window also feeds the optimizer's selectivity fractions, so a
        small window is what makes the index paths win.
    refine:
        Run the refinement step on the filter output: candidate pairs
        are checked with exact polyline geometry where the catalog has
        geometry registered (relations without geometry pass through).
    collect_pairs:
        Keep the id pairs in the result (required for windowed or
        refined queries, where the engine must post-filter).
    force:
        Optional plan override, one of :data:`FORCEABLE` — the two
        plans the optimizer prices (a self-join takes ``"pbsm-grid"``
        only); ``None`` lets the optimizer decide.
    """

    relations: Tuple[str, ...]
    window: Optional[Rect] = None
    refine: bool = False
    collect_pairs: bool = True
    force: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.relations) < 2:
            raise ValueError("a join query needs at least two relations")
        if (len(self.relations) > 2
                and len(set(self.relations)) != len(self.relations)):
            raise ValueError(
                "multiway self-joins are not supported (pairwise "
                "self-joins are)"
            )
        if self.refine and len(self.relations) > 2:
            raise ValueError(
                "refinement is only defined for pairwise queries"
            )
        if self.force is not None and len(self.relations) > 2:
            raise ValueError(
                "forced strategies apply to pairwise queries only "
                "(multiway joins always cascade PQ)"
            )
        if self.is_self_join and self.force not in (None, "pbsm-grid"):
            raise ValueError(
                f"self-joins execute via pbsm-grid only (force="
                f"{self.force!r} is not supported; accepted: pbsm-grid)"
            )
        if self.force is not None and self.force not in FORCEABLE:
            raise ValueError(
                f"unknown strategy {self.force!r}; accepted: "
                f"{', '.join(FORCEABLE)}"
            )
        if self.window is not None and any(
                math.isnan(v) for v in self.window[:4]):
            # The kernels model no NaN; an infinite window answers and
            # an inverted one compiles to the empty plan.
            raise ValueError(f"window has a NaN coordinate: {self.window}")
        if (self.window is not None or self.refine) and not self.collect_pairs:
            raise ValueError(
                "windowed/refined queries must collect pairs "
                "(the engine post-filters them)"
            )

    @property
    def is_multiway(self) -> bool:
        return len(self.relations) > 2

    @property
    def is_self_join(self) -> bool:
        return (len(self.relations) == 2
                and self.relations[0] == self.relations[1])

    def canonical(self) -> Tuple:
        """Hashable identity of the request itself (no catalog state)."""
        win = None
        if self.window is not None:
            # Drop the id; two windows covering the same region are the
            # same predicate.
            win = (self.window.xlo, self.window.xhi,
                   self.window.ylo, self.window.yhi)
        return (self.relations, win, self.refine, self.collect_pairs,
                self.force)

    def describe(self) -> str:
        parts = [" ⋈ ".join(self.relations)]
        if self.window is not None:
            parts.append(
                f"window=[{self.window.xlo:g},{self.window.xhi:g}]x"
                f"[{self.window.ylo:g},{self.window.yhi:g}]"
            )
        if self.refine:
            parts.append("refine=on")
        if self.force:
            parts.append(f"force={self.force}")
        return "  ".join(parts)
