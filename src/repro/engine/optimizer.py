"""Query -> physical plan, with the paper's cost model in the middle.

The optimizer is the engine-level generalization of
:func:`repro.core.planner.choose_method`: it folds the query window
into the selectivity fractions, prices the candidates on the engine's
machine, and emits an explainable :class:`PhysicalPlan`.  An unforced
pairwise plan has two candidates, at every worker count:

* ``"pq-index"`` — the :data:`repro.core.planner.STRATEGIES` row that
  joins the two R-trees, when both exist;
* ``"pbsm-grid"`` — a plan mode, not a row: PBSM-style tile
  partitioning fanned out over the executor's worker pool (inline on
  the coordinator when the pool is serial), priced as the single
  sequential partition pass it costs (tiles stay in memory).

The other rows (``pq-mixed-*``, ``sssj``, ``st``) stay forceable as
ablations and are priced by their own row when forced.

A plan is priced once, here — a forced strategy from its candidate
entry, else from its row — and the executor reports that estimate.

Plans are priced against the engine's shared
:class:`~repro.engine.resources.ResourceBudget`: the ``pbsm-grid``
candidate's tile footprint is compared with the bytes the budget can
actually grant, and any overflow is priced as spill I/O (one write plus
one re-read of the spilled bytes, writes at the paper's 1.5x factor) —
so a plan that fits in memory is preferred over one that spills, and
``explain()`` shows the memory verdict.  Every plan also carries its
*minimum grant* — the floor below which the strategy cannot run even
with maximal spilling — which the engine's admission control checks
against the budget before executing.

``explain()`` renders the full decision — candidates, fractions,
memory verdict, chosen strategy — so a regression in plan choice is a
string diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.cost_model import WRITE_FACTOR, CostModel, JoinCostEstimate
from repro.core.histogram import SpatialHistogram
from repro.core.planner import STRATEGIES
from repro.engine.cache import ArtifactCache
from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.query import Query
from repro.engine.resources import ResourceBudget
from repro.geom.rect import RECT_BYTES, Rect, intersection, union_mbr
from repro.sim.machines import MachineSpec
from repro.sim.scale import ScaleConfig

#: Tile partitions handed to each worker (over-partitioning smooths the
#: load when tiles are skewed, the classic morsel trick).
PARTITIONS_PER_WORKER = 4

#: Irreducible per-input working set: one sweep-ready chunk of this
#: many rectangles (matching the external sort's smallest viable run).
#: A query's minimum grant is this times its input count; admission
#: control refuses queries whose minimum exceeds the whole budget.
MIN_GRANT_RECTS = 64


def min_grant_bytes(n_inputs: int) -> int:
    """The smallest budget grant under which a join can still run."""
    return n_inputs * MIN_GRANT_RECTS * RECT_BYTES


def effective_region(universe: Optional[Rect],
                     window: Optional[Rect]) -> Optional[Rect]:
    """The region a windowed query can actually touch, or ``None``.

    The optimizer uses this to clip each relation's universe to the
    query window (an empty clip compiles to the empty plan); the
    sharded scatter layer uses the *same* predicate to prune shards
    whose strip a window cannot reach, so both layers agree on what
    "the window misses this region" means.
    """
    if window is None:
        return universe
    if universe is None:
        return None
    return intersection(universe, window)


@dataclass
class PlanActuals:
    """What one execution of a plan actually cost (EXPLAIN ANALYZE).

    Filled by ``SpatialQueryEngine.execute(..., analyze=True)`` from
    the same environment deltas the engine feeds its metrics, so plan
    actuals and :class:`~repro.engine.metrics.EngineMetrics` deltas
    agree bit for bit on serial pools (and up to worker scheduling
    nondeterminism nowhere — op accounting is pool-kind-invariant).
    """

    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cpu_ops: int = 0
    sim_io_seconds: float = 0.0
    sim_cpu_seconds: float = 0.0
    sim_wall_seconds: float = 0.0
    wall_seconds: float = 0.0
    pairs: int = 0
    spilled_rects: int = 0


@dataclass
class PhysicalPlan:
    """An executable, explainable join plan."""

    query: Query
    mode: str  # "pairwise" | "partitioned" | "multiway" | "empty"
    strategy: str
    estimate: JoinCostEstimate
    candidates: List[Tuple[str, JoinCostEstimate]] = field(
        default_factory=list
    )
    workers: int = 1
    partitions: int = 1
    #: Effective per-relation regions after clipping to the window.
    regions: List[Optional[Rect]] = field(default_factory=list)
    fractions: List[float] = field(default_factory=list)
    machine: str = ""
    notes: List[str] = field(default_factory=list)
    #: Memory governance: the engine budget the plan was priced under,
    #: the estimated in-memory tile footprint (partitioned mode), the
    #: bytes expected to spill, and the floor below which the plan
    #: cannot run at all (checked by admission control).
    memory_bytes: int = 0
    tile_bytes: int = 0
    spill_bytes: int = 0
    min_grant_bytes: int = 0
    #: Measured execution costs, set only by EXPLAIN ANALYZE
    #: (``engine.execute(query, analyze=True)``).
    actuals: Optional[PlanActuals] = None

    def explain(self) -> str:
        lines = [
            f"Query   : {self.query.describe()}",
            f"Machine : {self.machine}",
            f"Mode    : {self.mode}"
            + (f"  ({self.workers} workers, {self.partitions} partitions)"
               if self.mode == "partitioned" else ""),
        ]
        if self.memory_bytes:
            if self.mode == "partitioned":
                verdict = (
                    "fits in budget" if self.spill_bytes == 0
                    else f"spills ~{self.spill_bytes:,} B to disk"
                )
                lines.append(
                    f"Memory  : budget {self.memory_bytes:,} B, "
                    f"tiles ~{self.tile_bytes:,} B -> {verdict}"
                )
            else:
                lines.append(
                    f"Memory  : budget {self.memory_bytes:,} B, "
                    f"min grant {self.min_grant_bytes:,} B"
                )
        if self.fractions:
            fr = ", ".join(
                f"{n}={f:.0%}"
                for n, f in zip(self.query.relations, self.fractions)
            )
            lines.append(f"Participation fractions: {fr}")
        if self.candidates:
            lines.append("Candidates:")
            width = max(len(name) for name, _ in self.candidates)
            for name, est in self.candidates:
                marker = "->" if name == self.strategy else "  "
                lines.append(
                    f"  {marker} {name.ljust(width)}  "
                    f"{est.io_seconds:.4f}s I/O  ({est.detail})"
                )
        lines.append(
            f"Chosen  : {self.strategy} "
            f"(estimated {self.estimate.io_seconds:.4f}s I/O)"
        )
        if self.actuals is not None:
            a = self.actuals
            est = self.estimate.io_seconds
            lines.append(
                f"Actual  : {a.sim_io_seconds:.4f}s I/O "
                f"({a.sim_io_seconds - est:+.4f}s vs estimate), "
                f"{a.sim_cpu_seconds:.4f}s CPU, "
                f"{a.sim_wall_seconds:.4f}s simulated wall"
            )
            lines.append(
                f"Actual  : {a.pages_read:,} pages read, "
                f"{a.pages_written:,} written, {a.cpu_ops:,} cpu ops, "
                f"{a.pairs:,} pairs"
                + (f", {a.spilled_rects:,} rects spilled"
                   if a.spilled_rects else "")
            )
        for note in self.notes:
            lines.append(f"Note    : {note}")
        return "\n".join(lines)


class Optimizer:
    """Compile :class:`Query` objects against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        machine: MachineSpec,
        scale: ScaleConfig,
        workers: int = 1,
        budget: Optional[ResourceBudget] = None,
        artifacts: Optional[ArtifactCache] = None,
    ) -> None:
        self.catalog = catalog
        self.machine = machine
        self.scale = scale
        self.workers = max(1, workers)
        self.budget = budget
        # The engine's artifact cache: the cost model asks it whether a
        # pbsm-grid plan's distributed tiles are warm (priced free: the
        # warm pool starts sweeping immediately).  The executor
        # resolves the same identity through the same object, so what
        # is priced here is what runs.
        self.artifacts = (
            artifacts if artifacts is not None
            else ArtifactCache(max_bytes=0)
        )
        #: (name, version, universe) -> histogram rebuilt on a common
        #: universe for multiway pricing (see
        #: :meth:`_histograms_on_common_universe`).
        self._rebuilt_histograms: dict = {}

    # -- public ----------------------------------------------------------

    def compile(self, query: Query) -> PhysicalPlan:
        entries = [self.catalog.get(n) for n in query.relations]
        regions = [effective_region(e.universe, query.window)
                   for e in entries]
        if any(r is None for r in regions):
            return PhysicalPlan(
                query=query, mode="empty", strategy="empty",
                estimate=JoinCostEstimate(0.0, "window misses data"),
                regions=regions, machine=self.machine.name,
                notes=["query window does not intersect every relation"],
                memory_bytes=self._budget_total(),
            )
        if query.is_multiway:
            return self._compile_multiway(query, entries, regions)
        if query.is_self_join:
            return self._compile_self_join(query, entries, regions)
        return self._compile_pairwise(query, entries, regions)

    # -- internals -------------------------------------------------------

    def _budget_total(self) -> int:
        return self.budget.total_bytes if self.budget is not None else 0

    def _tiles_warm(
        self, entries: List[CatalogEntry],
        regions: List[Optional[Rect]], query: Query,
    ) -> bool:
        """Whether this plan's distributed tiles are cached.  A
        disabled cache holds nothing, and the identity is not even
        built."""
        return self.artifacts.enabled and self.artifacts.locate(
            self.artifacts.distribution(
                entries, query.is_self_join,
                union_mbr(regions[0], regions[1]),
                self.workers * PARTITIONS_PER_WORKER, query.window,
            )
        )

    def _pbsm_estimate(
        self, model: CostModel, scan_bytes: int, label: str,
        cached: bool = False,
    ) -> Tuple[JoinCostEstimate, int]:
        """Price the partitioned path, including any spill overflow.

        The tile footprint is approximated by the partition-pass bytes
        (boundary replication adds a few percent on real data); the
        bytes the budget cannot grant are priced as one spill write at
        the paper's 1.5x write factor plus one re-read.  Returns the
        estimate and the expected spilled bytes.

        ``cached`` tiles replace the whole scan + distribute + spill
        phase with a cache lookup (no I/O at all — the persistent pool
        starts sweeping cached tiles immediately).
        """
        if cached:
            return JoinCostEstimate(
                0.0, f"{label}, distributed tiles cached (artifact layer)",
            ), 0
        secs = model.sequential_read_seconds(scan_bytes)
        spill = 0
        if self.budget is not None:
            spill = max(0, scan_bytes - self.budget.available_bytes)
        if spill:
            secs += (1.0 + WRITE_FACTOR) * model.sequential_read_seconds(
                spill
            )
            detail = (
                f"{label}, spills ~{spill} of {scan_bytes} tile bytes"
            )
        else:
            detail = f"{label}, tiles fit the memory budget"
        return JoinCostEstimate(secs, detail), spill

    def _compile_pairwise(
        self,
        query: Query,
        entries: List[CatalogEntry],
        regions: List[Optional[Rect]],
    ) -> PhysicalPlan:
        rel_a = entries[0].relation(universe=regions[0])
        rel_b = entries[1].relation(universe=regions[1])
        model = CostModel(self.machine, self.scale)
        tile_bytes = rel_a.data_bytes + rel_b.data_bytes
        tiles_cached = self._tiles_warm(entries, regions, query)
        pbsm, spill_bytes = self._pbsm_estimate(
            model, tile_bytes,
            f"1 partition pass over {tile_bytes} bytes"
            + (f" x{self.workers} workers" if self.workers > 1 else ""),
            cached=tiles_cached,
        )
        # The index join first: min() keeps it on a tie.
        candidates: List[Tuple[str, JoinCostEstimate]] = []
        index_row = STRATEGIES["pq-index"]
        if index_row.feasible(rel_a, rel_b):
            candidates.append(
                ("pq-index", index_row.price(model, rel_a, rel_b))
            )
        candidates.append(("pbsm-grid", pbsm))
        notes: List[str] = []
        if tiles_cached:
            notes.append(
                "distributed tiles cached by a previous run — the "
                "partition pass is free"
            )

        fractions = [
            rel_a.fraction_in(regions[1]),
            rel_b.fraction_in(regions[0]),
        ]
        if query.force is not None:
            # Query admits only forceable names; a row not offered
            # here is priced by its row.
            strategy = query.force
            estimate = dict(candidates).get(strategy)
            if estimate is None:
                estimate = STRATEGIES[strategy].price(model, rel_a, rel_b)
            notes.append("strategy forced by query")
        else:
            strategy, estimate = min(
                candidates, key=lambda c: c[1].io_seconds
            )
        mode = "partitioned" if strategy == "pbsm-grid" else "pairwise"
        return PhysicalPlan(
            query=query,
            mode=mode,
            strategy=strategy,
            estimate=estimate,
            candidates=candidates,
            workers=self.workers if mode == "partitioned" else 1,
            partitions=(
                self.workers * PARTITIONS_PER_WORKER
                if mode == "partitioned" else 1
            ),
            regions=regions,
            fractions=fractions,
            machine=self.machine.name,
            notes=notes,
            memory_bytes=self._budget_total(),
            tile_bytes=tile_bytes if mode == "partitioned" else 0,
            spill_bytes=spill_bytes if mode == "partitioned" else 0,
            min_grant_bytes=min_grant_bytes(2),
        )

    def _compile_self_join(
        self,
        query: Query,
        entries: List[CatalogEntry],
        regions: List[Optional[Rect]],
    ) -> PhysicalPlan:
        """Self-joins always take the partitioned PBSM/sweep path.

        The single input is distributed once into tile partitions and
        each partition is swept against itself; the executor keeps one
        representative per unordered pair (``rid_a < rid_b``), the
        "dedupe the symmetric pair once" rule.  The index and
        sort-based pairwise paths are not defined for identical inputs
        here, so :class:`Query` refuses any other forced strategy.
        """
        entry = entries[0]
        model = CostModel(self.machine, self.scale)
        tile_bytes = entry.stream.data_bytes
        estimate, spill_bytes = self._pbsm_estimate(
            model, tile_bytes,
            f"self-join: 1 partition pass over {tile_bytes} bytes",
            cached=self._tiles_warm(entries, regions, query),
        )
        return PhysicalPlan(
            query=query,
            mode="partitioned",
            strategy="pbsm-grid",
            estimate=estimate,
            candidates=[("pbsm-grid", estimate)],
            workers=self.workers,
            partitions=self.workers * PARTITIONS_PER_WORKER,
            regions=regions,
            fractions=[1.0, 1.0],
            machine=self.machine.name,
            notes=["self-join: symmetric pairs deduplicated at the sink"],
            memory_bytes=self._budget_total(),
            tile_bytes=tile_bytes,
            spill_bytes=spill_bytes,
            min_grant_bytes=min_grant_bytes(2),
        )

    def _compile_multiway(
        self,
        query: Query,
        entries: List[CatalogEntry],
        regions: List[Optional[Rect]],
    ) -> PhysicalPlan:
        """Price the PQ cascade with the pairwise model, step by step.

        The first step pays the full sort-based cost for both inputs.
        Every later step joins an already-sorted intermediate (Section
        4: cascade outputs arrive sorted and are never re-sorted)
        against the next input, so it pays the next input's sort path
        plus one sequential pass over the intermediate.  Intermediate
        cardinalities come from
        :meth:`SpatialHistogram.estimate_join_pairs`; an intermediate
        tuple is carried forward as if it were its component from the
        later relation, so the chain multiplies by
        ``pairs(k, k+1) / |R_k|`` at each step.
        """
        model = CostModel(self.machine, self.scale)
        hists = self._histograms_on_common_universe(entries)
        sizes = [len(e) for e in entries]
        bytes_of = [n * RECT_BYTES for n in sizes]

        total_io = model.estimate_sssj(bytes_of[0], bytes_of[1]).io_seconds
        card = hists[0].estimate_join_pairs(hists[1])
        cardinalities = [card]
        for k in range(2, len(entries)):
            inter_bytes = int(card) * RECT_BYTES
            total_io += model.estimate_sssj(0, bytes_of[k]).io_seconds
            total_io += model.sequential_read_seconds(inter_bytes)
            card *= hists[k - 1].estimate_join_pairs(hists[k]) / max(
                1, sizes[k - 1]
            )
            cardinalities.append(card)
        estimate = JoinCostEstimate(
            total_io,
            f"cascaded pairwise cost over {len(entries)} inputs, "
            f"histogram intermediates ~"
            + " -> ".join(f"{c:.0f}" for c in cardinalities),
        )
        return PhysicalPlan(
            query=query,
            mode="multiway",
            strategy="pq-multiway",
            estimate=estimate,
            regions=regions,
            machine=self.machine.name,
            notes=[
                "multiway joins cascade PQ; intermediate results stay "
                "sorted and are never re-sorted (Section 4)",
                "intermediate cardinalities estimated from spatial "
                "histograms",
            ],
            memory_bytes=self._budget_total(),
            min_grant_bytes=min_grant_bytes(len(entries)),
        )

    def _histograms_on_common_universe(
        self, entries: List[CatalogEntry],
    ) -> List[SpatialHistogram]:
        """Per-entry histograms sharing one universe and grid.

        ``estimate_join_pairs`` requires compatible histograms.  When
        all entries already share a universe their cached catalog
        histograms are reused; otherwise fresh ones are built on the
        union MBR and memoized per (name, version, universe), so
        recompiling the same multiway query is a dict lookup, not an
        O(rects) rebuild.
        """
        universes = {e.universe for e in entries}
        if len(universes) == 1:
            return [e.histogram for e in entries]
        common = entries[0].universe
        for e in entries[1:]:
            common = union_mbr(common, e.universe)
        grid = self.catalog.histogram_grid
        hists = []
        for e in entries:
            key = (e.name, e.version, common)
            hist = self._rebuilt_histograms.get(key)
            if hist is None:
                hist = SpatialHistogram.build(e.rects, common, grid=grid)
                self._rebuilt_histograms[key] = hist
            hists.append(hist)
        return hists
