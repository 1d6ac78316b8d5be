"""The unified join: PQ plus the cost-based strategy choice.

Section 6.3's conclusion: "PQ suffers in performance because it naively
chooses to use an index whenever one is available. ... Using such a
cost-based approach to choose between the index-based and non-index
based algorithms, PQ should have the best overall execution time in
most cases."  This module is that missing decision layer:

* :class:`Relation` describes one join input as a catalog would — the
  base stream, an optional index, the universe, and an optional
  histogram;
* :data:`STRATEGIES` holds one :class:`JoinStrategy` row per pairwise
  strategy — the side it reads as an index, its cost-model price, its
  run — for this module and the engine's optimizer and executor alike;
* :func:`choose_method` prices the feasible rows (fractions from
  histograms) and picks the cheapest;
* :func:`unified_spatial_join` runs the chosen (or forced) row: PQ over
  indexes (pruned to the other input's window), PQ mixed, or pure
  sort-based SSSJ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cost_model import CostModel, JoinCostEstimate
from repro.core.histogram import SpatialHistogram
from repro.core.join_result import JoinResult
from repro.core.pq_join import PQConfig, pq_join
from repro.core.sssj import sssj_join
from repro.core.st_join import st_join
from repro.geom.rect import RECT_BYTES, Rect, area, intersection, union_mbr
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
        denom = area(self.universe)
        return min(1.0, area(inter) / denom) if denom > 0 else 1.0


@dataclass(frozen=True)
class JoinStrategy:
    """One pairwise join strategy: what it reads, costs and runs.

    ``indexed`` says which side (a, b) it reads as an R-tree; the other
    side is read as its base stream.  ``price(model, rel_a, rel_b)`` is
    the Section 6.3 estimate; ``run(in_a, in_b, rel_a, rel_b, disk,
    collect, kernel, pool)`` joins the inputs ``indexed`` picked
    (``pool``: the buffer pool ``st`` shares with an engine, or
    ``None`` for a fresh one).  A non-``planner`` row (``st``) is never
    chosen, only forced.
    """

    name: str
    indexed: Tuple[bool, bool]
    price: Callable[[CostModel, Relation, Relation], JoinCostEstimate]
    run: Callable[..., JoinResult]
    planner: bool = True

    def __post_init__(self) -> None:
        if not (callable(self.price) and callable(self.run)):
            raise TypeError(
                f"join strategy {self.name!r} needs a price and a run"
            )

    def inputs(self, rel_a: Relation, rel_b: Relation) -> tuple:
        """The representation of each side this strategy reads (``None``
        where the relation lacks it)."""
        return tuple(
            rel.tree if tree else rel.stream
            for rel, tree in zip((rel_a, rel_b), self.indexed)
        )

    def feasible(self, rel_a: Relation, rel_b: Relation) -> bool:
        return all(x is not None for x in self.inputs(rel_a, rel_b))

    def join(self, rel_a: Relation, rel_b: Relation, disk: Disk, *,
             collect_pairs: bool = False, kernel: str = "auto",
             pool=None) -> JoinResult:
        return self.run(*self.inputs(rel_a, rel_b), rel_a, rel_b, disk,
                        collect_pairs, kernel, pool)


def _run_pq(in_a, in_b, rel_a, rel_b, disk, collect, kernel, pool):
    # pq_join derives the sweep's universe from the two windows.
    return pq_join(in_a, in_b, disk, config=PQConfig(prune=True),
                   collect_pairs=collect, window_a=rel_a.universe,
                   window_b=rel_b.universe, kernel=kernel)


def _run_sssj(in_a, in_b, rel_a, rel_b, disk, collect, kernel, pool):
    universe = None
    if rel_a.universe is not None and rel_b.universe is not None:
        universe = union_mbr(rel_a.universe, rel_b.universe)
    return sssj_join(in_a, in_b, disk, universe=universe,
                     collect_pairs=collect)


def _run_st(in_a, in_b, rel_a, rel_b, disk, collect, kernel, pool):
    return st_join(in_a, in_b, collect_pairs=collect, pool=pool)


def _price_pq_mixed(model: CostModel, indexed: Relation,
                    streamed: Relation) -> JoinCostEstimate:
    return model.estimate_pq_mixed(
        indexed.tree.page_count, indexed.fraction_in(streamed.universe),
        streamed.data_bytes,
    )


#: The pairwise join strategies by name, in candidate order: callers
#: taking the minimum resolve ties toward the index paths listed first.
STRATEGIES: Dict[str, JoinStrategy] = {s.name: s for s in (
    JoinStrategy(
        "pq-index", (True, True),
        lambda model, a, b: model.estimate_pq_indexed(
            a.tree.page_count, b.tree.page_count,
            fraction_a=a.fraction_in(b.universe),
            fraction_b=b.fraction_in(a.universe),
        ),
        _run_pq,
    ),
    JoinStrategy("pq-mixed-a", (True, False), _price_pq_mixed, _run_pq),
    JoinStrategy(
        "pq-mixed-b", (False, True),
        lambda model, a, b: _price_pq_mixed(model, b, a), _run_pq,
    ),
    JoinStrategy(
        "sssj", (False, False),
        lambda model, a, b: model.estimate_sssj(a.data_bytes, b.data_bytes),
        _run_sssj,
    ),
    JoinStrategy(
        "st", (True, True),
        lambda model, a, b: model.estimate_st(
            a.tree.page_count, b.tree.page_count
        ),
        _run_st, planner=False,
    ),
)}


def candidate_estimates(
    rel_a: Relation,
    rel_b: Relation,
    machine: MachineSpec,
    scale,
) -> List[Tuple[str, JoinCostEstimate]]:
    """Price every feasible ``planner`` row of :data:`STRATEGIES`;
    returns [(strategy, estimate), ...] in table order.

    A row is feasible when each relation has the representation it
    reads there.
    """
    model = CostModel(machine, scale)
    return [
        (s.name, s.price(model, rel_a, rel_b))
        for s in STRATEGIES.values()
        if s.planner and s.feasible(rel_a, rel_b)
    ]


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
    return min(candidate_estimates(rel_a, rel_b, machine, scale),
               key=lambda c: c[1].io_seconds)


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

    ``force`` names the :data:`STRATEGIES` row to run instead — the
    ablation benches use it; an unknown name, or a row these relations
    lack a representation for, raises ``ValueError`` before any I/O.
    The strategy and its estimate land in the result's ``detail``.
    ``kernel`` is :func:`~repro.core.pq_join.pq_join`'s.
    """
    if force is None:
        name, estimate = choose_method(rel_a, rel_b, machine, disk.env.scale)
        strategy = STRATEGIES[name]
    else:
        strategy = STRATEGIES.get(force)
        if strategy is None or not strategy.feasible(rel_a, rel_b):
            feasible = [s.name for s in STRATEGIES.values()
                        if s.feasible(rel_a, rel_b)]
            raise ValueError(f"strategy {force!r} cannot join these "
                             f"relations; feasible: {', '.join(feasible)}")
        estimate = strategy.price(CostModel(machine, disk.env.scale),
                                  rel_a, rel_b)
    result = strategy.join(rel_a, rel_b, disk, collect_pairs=collect_pairs,
                           kernel=kernel)
    result.detail.update(strategy=strategy.name,
                         estimated_io_seconds=estimate.io_seconds,
                         machine=machine.name)
    return result
