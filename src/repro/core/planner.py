"""The unified join: PQ plus the cost-based strategy choice.

Section 6.3's conclusion: "PQ suffers in performance because it naively
chooses to use an index whenever one is available. ... Using such a
cost-based approach to choose between the index-based and non-index
based algorithms, PQ should have the best overall execution time in
most cases."  This module is that missing decision layer:

* :class:`Relation` describes one join input as a catalog would — the
  base stream, an optional index, the universe, and an optional
  histogram;
* :func:`choose_method` prices the candidate strategies with the
  :class:`~repro.core.cost_model.CostModel` (fractions from histograms)
  and picks the cheapest;
* :func:`unified_spatial_join` executes the choice: PQ over indexes
  (pruned to the other input's window), PQ mixed, or pure sort-based
  SSSJ, falling back gracefully when a representation is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.cost_model import CostModel, JoinCostEstimate
from repro.core.histogram import SpatialHistogram
from repro.core.join_result import JoinResult
from repro.core.pq_join import PQConfig, pq_join
from repro.core.sssj import SSSJConfig, sssj_join
from repro.geom.rect import Rect, intersection, union_mbr
from repro.rtree.rtree import RTree
from repro.sim.machines import MACHINE_3, MachineSpec
from repro.storage.disk import Disk
from repro.storage.stream import Stream


@dataclass
class Relation:
    """One join input as the catalog sees it."""

    name: str
    stream: Optional[Stream] = None
    tree: Optional[RTree] = None
    universe: Optional[Rect] = None
    histogram: Optional[SpatialHistogram] = None

    def __post_init__(self) -> None:
        if self.stream is None and self.tree is None:
            raise ValueError(
                f"relation {self.name!r} has neither a stream nor an index"
            )
        if self.universe is None and self.tree is not None:
            self.universe = self.tree.root_mbr()

    @property
    def data_bytes(self) -> int:
        if self.stream is not None:
            return self.stream.data_bytes
        from repro.geom.rect import RECT_BYTES

        return self.tree.num_objects * RECT_BYTES

    def fraction_in(self, window: Optional[Rect]) -> float:
        """Fraction of this relation participating in a join limited to
        ``window`` — histogram-based when available, MBR-area otherwise."""
        if window is None:
            return 1.0
        if self.histogram is not None:
            return self.histogram.leaf_fraction(window)
        if self.universe is None:
            return 1.0
        inter = intersection(self.universe, window)
        if inter is None:
            return 0.0
        from repro.geom.rect import area

        denom = area(self.universe)
        return min(1.0, area(inter) / denom) if denom > 0 else 1.0


def candidate_estimates(
    rel_a: Relation,
    rel_b: Relation,
    machine: MachineSpec,
    scale,
) -> List[Tuple[str, JoinCostEstimate]]:
    """Price every feasible strategy; returns [(strategy, estimate), ...].

    Strategies considered (feasibility depends on which representations
    exist): ``"pq-index"`` (both indexed, pruned traversal),
    ``"pq-mixed"`` (one indexed), ``"sssj"`` (sort both streams).
    Candidates appear in that fixed order, so callers taking the
    minimum resolve ties toward the index-based paths.
    """
    model = CostModel(machine, scale)
    window_a = rel_a.universe
    window_b = rel_b.universe
    candidates: List[Tuple[str, JoinCostEstimate]] = []
    if rel_a.tree is not None and rel_b.tree is not None:
        est = model.estimate_pq_indexed(
            rel_a.tree.page_count,
            rel_b.tree.page_count,
            fraction_a=rel_a.fraction_in(window_b),
            fraction_b=rel_b.fraction_in(window_a),
        )
        candidates.append(("pq-index", est))
    if rel_a.tree is not None and rel_b.stream is not None:
        est = model.estimate_pq_mixed(
            rel_a.tree.page_count,
            rel_a.fraction_in(window_b),
            rel_b.data_bytes,
        )
        candidates.append(("pq-mixed-a", est))
    if rel_b.tree is not None and rel_a.stream is not None:
        est = model.estimate_pq_mixed(
            rel_b.tree.page_count,
            rel_b.fraction_in(window_a),
            rel_a.data_bytes,
        )
        candidates.append(("pq-mixed-b", est))
    if rel_a.stream is not None and rel_b.stream is not None:
        est = model.estimate_sssj(rel_a.data_bytes, rel_b.data_bytes)
        candidates.append(("sssj", est))
    return candidates


def choose_method(
    rel_a: Relation,
    rel_b: Relation,
    machine: MachineSpec,
    scale,
) -> Tuple[str, JoinCostEstimate]:
    """Pick the cheapest feasible strategy; returns (strategy, estimate).

    Ties are broken by candidate order (``min`` is stable), which lists
    the index paths before ``sssj`` — when the model cannot separate
    two strategies, the one touching fewer raw bytes wins.
    """
    candidates = candidate_estimates(rel_a, rel_b, machine, scale)
    if not candidates:
        raise ValueError("no feasible join strategy for these relations")
    return min(candidates, key=lambda c: c[1].io_seconds)


def unified_spatial_join(
    rel_a: Relation,
    rel_b: Relation,
    disk: Disk,
    machine: MachineSpec = MACHINE_3,
    collect_pairs: bool = False,
    force: Optional[str] = None,
    kernel: str = "auto",
) -> JoinResult:
    """Join two relations, choosing the strategy with the cost model.

    ``force`` overrides the decision ("pq-index", "pq-mixed-a",
    "pq-mixed-b", "sssj") — the ablation benches use it.  The chosen
    strategy and its estimate land in the result's ``detail``.
    ``kernel`` is :func:`~repro.core.pq_join.pq_join`'s.
    """
    env = disk.env
    if force is None:
        strategy, estimate = choose_method(rel_a, rel_b, machine, env.scale)
    else:
        # Price the forced strategy with the real model so ablation
        # benches report estimates comparable with the planner's choice;
        # a strategy the relations cannot support stays unpriced (its
        # execution below fails anyway unless it is a known name).
        strategy = force
        priced = dict(
            candidate_estimates(rel_a, rel_b, machine, env.scale)
        )
        estimate = priced.get(
            force, JoinCostEstimate(force, float("nan"), "forced")
        )

    universe = None
    if rel_a.universe is not None and rel_b.universe is not None:
        universe = union_mbr(rel_a.universe, rel_b.universe)

    if strategy == "pq-index":
        result = pq_join(
            rel_a.tree, rel_b.tree, disk, universe=universe,
            config=PQConfig(prune=True), collect_pairs=collect_pairs,
            window_a=rel_a.universe, window_b=rel_b.universe,
            kernel=kernel,
        )
    elif strategy == "pq-mixed-a":
        result = pq_join(
            rel_a.tree, rel_b.stream, disk, universe=universe,
            config=PQConfig(prune=True), collect_pairs=collect_pairs,
            window_a=rel_a.universe, window_b=rel_b.universe,
            kernel=kernel,
        )
    elif strategy == "pq-mixed-b":
        result = pq_join(
            rel_a.stream, rel_b.tree, disk, universe=universe,
            config=PQConfig(prune=True), collect_pairs=collect_pairs,
            window_a=rel_a.universe, window_b=rel_b.universe,
            kernel=kernel,
        )
    elif strategy == "sssj":
        result = sssj_join(
            rel_a.stream, rel_b.stream, disk, universe=universe,
            collect_pairs=collect_pairs,
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    result.detail["strategy"] = strategy
    result.detail["estimated_io_seconds"] = estimate.io_seconds
    result.detail["machine"] = machine.name
    return result
