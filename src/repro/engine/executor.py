"""Physical plan execution, including partitioned parallel joins.

Direct plans delegate to the algorithms the repo already trusts
(:func:`unified_spatial_join`, :func:`st_join`, :func:`multiway_join`);
the resolved kernel goes down with them, so a ``pq-index`` plan on a
numpy engine runs :mod:`repro.core.kernels.np_index` and hands back
:class:`~repro.core.columnar.PairColumns` — ``pq-mixed-*``, ``st``,
``sssj``, multiway and :func:`_refine_pairs` still build tuple lists.
The engine-only path is **partitioned execution**: both inputs are
scanned once, cut into PBSM-style tiles (reusing PBSM's tile grid and
reference-point arithmetic), and the per-partition sweeps are fanned
out over the engine's persistent :class:`~repro.engine.pool.WorkerPool`
— process-based by default, so the sweeps run on separate interpreters
instead of serializing on the GIL.  Duplicate pairs — a pair is
replicated into every partition its rectangles straddle — are
eliminated exactly as in PBSM: a pair is reported only by the partition
owning the tile of its reference point, so the merge is pure
concatenation.

The hot path is built around these cooperating mechanisms:

* **Persistent pool** — the pool outlives queries; the plan's
  ``workers`` count is a scheduling hint for the simulated critical
  path, not a pool size.  A broken process pool degrades to threads
  without losing a query.
* **Columnar shipping** — tiles cross the process boundary as
  :class:`~repro.core.columnar.ColumnarTile` flat arrays, not lists of
  ``Rect`` NamedTuples; the numpy kernel sweeps the columns in place,
  the python kernel decodes each tile once and sweeps over locals.
  Spilled partitions materialize into the same format
  (:meth:`SpillablePartition.materialize_columnar`).
* **Columnar distribute** — under the numpy kernel the cold path
  places tiles from the catalog entry's column image
  (:func:`_distribute_columnar`, :mod:`repro.core.kernels.np_distribute`)
  and post-filters windows the same way.  That holds past the tile
  grant too: the overflow is spilled as image rows, one run per base
  block with the flushes it triggers replayed in copy order across
  the spill streams (:func:`_spill_run`), written as column blocks
  and re-read as column blocks, so a partitioned plan under spill
  builds no ``Rect`` either.  The per-rectangle python loops
  (:func:`_distribute` with ``SpillablePartition.spill``,
  :func:`_filter_window`) are the no-numpy path and the reference,
  bit-identical in tiles, ops and simulated I/O — the order of the
  disk's ``allocate`` / write / read calls included.
* **Columnar pairs** — under the numpy kernel the pairs a tile owns
  come back as :class:`~repro.core.columnar.PairColumns` (one int64
  array, pickled as a buffer), per-tile results are concatenated as
  arrays and the window post-filter masks the array; no id tuple is
  built unless the caller iterates the result.  The python kernel
  returns lists through the same code, the reference.
* **Zero-callback sweep** — a task is one call into the sweep kernel,
  never a ``PairSink`` per pair.  Under the numpy kernel that is one
  :func:`~repro.core.kernels.np_sweep.sweep_tiles` call per *task*,
  however many tiles the task holds: PBSM's tiles are independent
  sweeps, so a group of *k* runs as one segmented pass — sort, alive
  ranges, x-filter, reference-point ownership against each pair's own
  partition, self-join dedup and the op replay — and a solo tile is
  its ``k = 1`` case.  The python kernel
  (:func:`~repro.core.sweep.forward_sweep_pairs_batched`, then one
  tight ownership/dedup loop over the batch, tile after tile) is the
  reference, and the fallback for a group the vectorized kernel
  declines; pairs, their order, counts, ops and dups are bit-identical
  tile by tile.
* **Artifact layer** — reusable execution intermediates are retained
  (budget-charged, LRU by bytes) in the engine's
  :class:`~repro.engine.cache.ArtifactCache`: distributed tile sets
  (a warm repeated query skips the scan + distribute + spill phases
  entirely) and *sorted runs* (a warm ``sssj`` plan skips both
  external sorts and sweeps straight out of memory).  With an
  :class:`~repro.engine.artifacts.ArtifactStore` attached, both kinds
  also persist to a spill-directory sidecar keyed by relation content
  fingerprints, so a restarted engine restores its warm state lazily
  on first touch — the restore is priced as one sequential read of
  the artifact's logical bytes on the simulated disk.
* **Tile dispatch** — where a tile sweeps and how it travels is
  policy, decided from what the executor observes against the
  measured constants below (``MIN_SHIP_RECTS`` …): a tile big enough
  to pay for a pool round-trip ships on its own; smaller tiles
  coalesce into multi-tile groups, one task and one kernel call each,
  so a skewed grid with thousands of tiny tiles costs a handful of
  round-trips; a trailing group too small to pay runs on the
  coordinator, still as one task.  Groups form by one rule whether
  they ship or not, so a serial pool runs the same tasks a process
  pool would ship.  On a process pool with working shared memory a
  big enough task ships its tiles as shared-memory refs (zero-copy
  when a cached tile is re-shipped), otherwise as pickled columns.
  A repeat of a plan
  whose whole sweep *measured* cheaper than a round-trip keeps every
  group on the coordinator.  Op accounting is placement-independent,
  so all of this moves wall clock only; a batch is one scheduling
  unit on the simulated critical path, as it is on the real pool.

Worker tasks touch no shared simulation state: each sweeps its own
tiles and counts its own ops, and the merged op total is charged to
the environment once.  Alongside the total the executor
computes the *critical path* (the busiest worker's ops under a greedy
longest-processing-time assignment), from which the engine derives the
simulated parallel wall time.

Partitioned execution runs under the engine's shared
:class:`~repro.engine.resources.ResourceBudget`: the executor acquires
a grant for its tiles (category ``"tiles"``) — evicting cached
artifacts first if the budget is short — and a partition that outgrows
the shared allowance overflows into a disk-backed
:class:`~repro.core.pbsm.SpillablePartition` stream, re-read before its
sweep, with the spill traffic priced by the same simulated-disk ledger
as every other I/O.  Coordinator-side materialization streams: each
partition is handed to the pool the moment it materializes, so workers
sweep early partitions while the coordinator re-reads later ones.
Self-joins ride the same path: the single input is distributed once,
each partition is swept against itself, and the symmetric/identity
pairs are deduplicated in the batch filter (only ``rid_a < rid_b``
survives).

Window and refinement predicates are applied as post-filters on the
collected pairs, using the catalog's id -> rectangle / geometry maps.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.columnar import ColumnarTile, PairColumns, SortedRunView
from repro.core.join_result import JoinResult
from repro.core.kernels import resolve_kernel
from repro.core.multiway import multiway_join
from repro.core.pbsm import (
    SpillablePartition,
    TileAllowance,
    TileGrid,
)
from repro.core.planner import unified_spatial_join
from repro.core.sssj import sssj_join
from repro.core.st_join import st_join
from repro.core.sweep import forward_sweep_pairs_batched
from repro.engine.artifacts import (
    ArtifactStore,
    charge_restore,
    partition_token,
    sorted_run_token,
)
from repro.engine.cache import (
    PARTITION_KIND,
    SORTED_RUN_KIND,
    ArtifactCache,
    artifact_key,
    grid_tiles,
    sorted_run_key,
)
from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.optimizer import PhysicalPlan
from repro.engine.pool import (
    CancelToken,
    DeadlineExceeded,
    PoolClient,
    ShmTileRef,
    WorkerPool,
    resolve_shm_tile,
)
from repro.engine.resources import ResourceBudget
from repro.engine.trace import EnvMeter, Span, span_meter
from repro.geom.rect import RECT_BYTES, Rect, intersection, union_mbr
from repro.geom.refine import polylines_intersect
from repro.sim.machines import MachineSpec
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.sort import sort_stream_by_ylo

#: Tile grid resolution for partitioned plans.  Coarser than PBSM's
#: 128x128 because partitions here number workers x 4, not hundreds.
DEFAULT_TILES_PER_SIDE = 32

# -- dispatch policy ---------------------------------------------------
#
# Where a tile sweeps and how it crosses the process boundary follows
# from what the executor observes — tile size, pool kind, whether
# shared memory works, the plan's measured sweep cost — held against
# the constants below.  They are policy, not configuration: each names
# the ``benchmarks/e2e`` measurement that put it there (``python3
# benchmarks/e2e/run.py --traced`` prints the probes and the per-layer
# metrics; the numbers quoted are in ``benchmarks/e2e/README.md``).

#: A tile of at least this many rectangles (both sides) ships as a pool
#: task of its own; smaller ones coalesce into groups, and a trailing
#: group still under it runs inline.  ``pool.probe.roundtrip_us_pickle``
#: against ``..._inline`` (``BENCH_e2e.json`` record 3; in brackets
#: record 4, taken on a host half again as slow): a round-trip adds
#: 0.5–0.6 ms (1.1–1.7) to the inline kernel call at 512 and at 8 192
#: rectangles — two to three times the whole call at 512 (0.2 ms;
#: 0.6), a fifth to a quarter of it at 8 192 (2.9 ms; 4.2).  A second
#: core pays that back from about a millisecond of sweep, and at the
#: 0.4 µs a rectangle those probes read that is about this many
#: rectangles.
MIN_SHIP_RECTS = 2048

#: Logical payload (records x ``RECT_BYTES``) at which a batch of small
#: tiles ships as one pool task: about 3 300 rectangles, one and a half
#: solo tasks' worth, so a batch amortizes its round-trip as a solo
#: tile does.  ``pool.tiles_per_task`` > 1 beside ``0 <
#: pool.inline_tile_share < 1`` on ``sharded_skew`` is batching and the
#: inline remainder both engaging at this size.
TILE_BATCH_BYTES = 64 * 1024

#: Shipped tasks at least this large (logical bytes) travel as
#: shared-memory refs when the pool is process-based and shared memory
#: works; smaller ones pickle.  Since segments are recycled instead of
#: created and unlinked per task, a fresh pack ties pickling at 512
#: rectangles and beats it above (``pool.probe.roundtrip_us_shm``
#: against ``..._pickle``, medians of five probe runs: -4 % at n256,
#: -8 % at n4096, -7 % at n65536; it used to lose by 1-13 %), and
#: re-shipping cached tiles by reference
#: (``pool.shm_refs_reused_per_query``) comes on top; the floor only
#: keeps sub-page payloads from costing a segment.
SHM_MIN_BYTES = 16 * 1024

#: A repeat plan whose *measured* sweep came in at or under this many
#: simulated ops keeps every group on the coordinator.  ``cold_scan``'s
#: windows average 100 K ops and their inline group is one 1.5–1.8 ms
#: kernel call (``executor.phase.sweep_ms_p50``), so a plan at the
#: threshold is about a millisecond of kernel time; a round-trip costs
#: 0.5 ms or more on top of the sweep it moves (``pool.probe.
#: roundtrip_us_pickle_n256`` against ``..._inline_n256``), so shipping
#: a plan this cheap buys nothing.  Simulated accounting is
#: placement-independent, so this is a wall-clock policy, not a
#: semantic one; first executions have no measurement and ship.
INLINE_PLAN_OPS = 64 * 1024

#: Plans whose measured sweep cost the executor remembers (LRU by last
#: execution).  Keys contain the query window, so never-repeating
#: windowed traffic would otherwise grow the memo for the life of the
#: server; a plan evicted here merely ships once more.
PLAN_MEMO_ENTRIES = 1024


class Executor:
    """Runs :class:`PhysicalPlan` objects against the catalog."""

    def __init__(
        self,
        disk: Disk,
        machine: MachineSpec,
        pool: Optional[BufferPool] = None,
        tiles_per_side: int = DEFAULT_TILES_PER_SIDE,
        budget: Optional[ResourceBudget] = None,
        worker_pool: Optional[Union[WorkerPool, PoolClient]] = None,
        artifacts: Optional[ArtifactCache] = None,
        store: Optional[ArtifactStore] = None,
        kernel: str = "auto",
    ) -> None:
        self.disk = disk
        self.machine = machine
        self.pool = pool
        self.tiles_per_side = tiles_per_side
        self.budget = budget
        # A private serial pool keeps direct (engine-less) construction
        # working; the engine passes a client on its long-lived pool
        # (possibly shared with other engines — the executor only ever
        # sees the client/pool submission surface).
        self.worker_pool = worker_pool or WorkerPool(1, kind="serial")
        self.artifacts = artifacts
        self.store = store
        # Resolved once, here; workers obey the name in each payload.
        self.kernel = resolve_kernel(kernel)
        # Measured sweep cost of each partitioned plan (total simulated
        # ops, keyed by artifact key), written after every execution;
        # the PLAN_MEMO_ENTRIES most recently executed plans are kept.
        self._plan_ops: OrderedDict[tuple, int] = OrderedDict()
        if self.kernel == "numpy":
            # Import the vectorized kernel on the coordinator now so
            # fork-started pool workers inherit the loaded module
            # instead of each importing it on their first task.
            _np_sweep()

    # -- public ----------------------------------------------------------

    def execute(self, plan: PhysicalPlan, catalog: Catalog,
                trace: Optional[Span] = None,
                cancel: Optional[Callable[[], None]] = None) -> JoinResult:
        """Run one plan.  ``trace``, when given, is the parent span the
        executor hangs its phase spans under (zero overhead when None —
        every trace call site is guarded).  ``cancel``, when given, is
        checked at gather checkpoints on the partitioned path; a
        :class:`~repro.engine.pool.CancelToken` additionally ships
        inside every pool payload so workers observe cancellation at
        tile boundaries."""
        query = plan.query
        env = self.disk.env
        entries = [catalog.get(n) for n in query.relations]
        if plan.mode == "empty":
            result = JoinResult(
                algorithm="empty", n_pairs=0,
                pairs=[] if query.collect_pairs else None,
                detail={"strategy": "empty"},
            )
        elif plan.mode == "multiway":
            with span_meter(env, self.machine, trace, "join",
                            strategy="multiway"):
                result = self._execute_multiway(plan, entries)
        elif plan.mode == "partitioned":
            result = self._execute_partitioned(plan, entries, trace,
                                               cancel)
        else:
            reads_before = env.page_reads
            with span_meter(env, self.machine, trace, "join",
                            strategy=plan.strategy) as jspan:
                result = self._execute_pairwise(plan, entries)
                if jspan is not None:
                    # What the join worked on, as ``distribute`` reports
                    # for its path: which kernel ran (``numpy`` only if
                    # it did not decline) and how much each side fed it
                    # — a stream side feeds the whole relation.
                    detail = result.detail
                    jspan.attrs.update({
                        "kernel": detail.get("kernel", "python"),
                        "pages_read": env.page_reads - reads_before,
                        "rects_a": detail.get("rects_a", len(entries[0])),
                        "rects_b": detail.get("rects_b", len(entries[1])),
                        "pairs": result.n_pairs,
                    })

        if query.window is not None and result.pairs is not None:
            with span_meter(env, self.machine, trace,
                            "window-filter") as wspan:
                result = _filter_window(result, entries, query.window,
                                        self.kernel)
                if wspan is not None:
                    wspan.attrs["filtered"] = result.detail[
                        "window_filtered"
                    ]
        if query.refine and result.pairs is not None:
            with span_meter(env, self.machine, trace,
                            "refine") as rspan:
                result = _refine_pairs(result, entries)
                if rspan is not None:
                    rspan.attrs["refined_out"] = result.detail[
                        "refined_out"
                    ]
        result.detail.setdefault("strategy", plan.strategy)
        return result

    # -- direct paths ----------------------------------------------------

    def _execute_pairwise(self, plan: PhysicalPlan,
                          entries: List[CatalogEntry]) -> JoinResult:
        query = plan.query
        if plan.strategy == "sssj" and self._artifacts_enabled():
            return self._execute_sssj(plan, entries)
        if plan.strategy == "st":
            result = st_join(
                entries[0].tree, entries[1].tree,
                collect_pairs=query.collect_pairs, pool=self.pool,
            )
            result.detail["strategy"] = "st"
            result.detail["estimated_io_seconds"] = plan.estimate.io_seconds
            return result
        # Materialize only the representations the chosen strategy
        # touches: a plan that priced the stream paths (auto_index off,
        # or sssj simply winning) must not trigger lazy index builds.
        rel_a = entries[0].relation(
            universe=plan.regions[0],
            with_tree=plan.strategy in ("pq-index", "pq-mixed-a"),
        )
        rel_b = entries[1].relation(
            universe=plan.regions[1],
            with_tree=plan.strategy in ("pq-index", "pq-mixed-b"),
        )
        return unified_spatial_join(
            rel_a, rel_b, self.disk, self.machine,
            collect_pairs=query.collect_pairs, force=plan.strategy,
            kernel=self.kernel,
        )

    # -- sorted-run artifact path ----------------------------------------

    def _artifacts_enabled(self) -> bool:
        return self.artifacts is not None and self.artifacts.max_bytes != 0

    def _execute_sssj(self, plan: PhysicalPlan,
                      entries: List[CatalogEntry]) -> JoinResult:
        """SSSJ with sorted-run artifact reuse.

        Each side's sorted view is resolved independently: a memory
        hit sweeps straight out of the cached columnar run (no sort,
        no I/O at all for that side), a disk hit restores the run from
        the artifact sidecar (priced as one sequential read of its
        logical bytes), and a miss runs the external sort as usual —
        capturing the sorted output as it passes through memory and
        retaining it as a fresh artifact for the next query.
        """
        query = plan.query
        rel_a = entries[0].relation(universe=plan.regions[0],
                                    with_tree=False)
        rel_b = entries[1].relation(universe=plan.regions[1],
                                    with_tree=False)
        universe = union_mbr(rel_a.universe, rel_b.universe)

        runs = []
        owned = []
        hits = restores = restore_bytes = 0
        for idx, entry in enumerate(entries):
            view, source = self._sorted_run_for(entry)
            if view is not None:
                if source == "memory":
                    hits += 1
                else:
                    restores += 1
                    restore_bytes += view.data_bytes
                runs.append(view)
                continue
            captured: List[Rect] = []
            sorted_stream = sort_stream_by_ylo(
                entry.stream, self.disk, name=f"sssj.{'ab'[idx]}",
                on_record=captured.append,
            )
            self._retain_sorted_run(entry, captured)
            runs.append(sorted_stream)
            owned.append(sorted_stream)
        try:
            result = sssj_join(
                entries[0].stream, entries[1].stream, self.disk,
                universe=universe, collect_pairs=query.collect_pairs,
                sorted_a=runs[0], sorted_b=runs[1],
            )
        finally:
            for s in owned:
                s.free()
        result.detail["strategy"] = "sssj"
        result.detail["estimated_io_seconds"] = plan.estimate.io_seconds
        result.detail["machine"] = self.machine.name
        result.detail["sorted_run_hits"] = hits
        result.detail["artifact_restores"] = restores
        result.detail["artifact_restore_bytes"] = restore_bytes
        return result

    def _sorted_run_for(self, entry: CatalogEntry):
        """Resolve one relation's warm sorted view.

        Returns ``(view, "memory" | "disk")`` or ``(None, None)``.
        Exactly one cache hit/miss event fires per side; a disk
        restore counts as a miss plus a ``disk_restore``.
        """
        key = sorted_run_key(entry.name, entry.version)
        tile = self.artifacts.get(key, kind=SORTED_RUN_KIND)
        if tile is not None:
            return SortedRunView(tile, name=f"{entry.name}.sorted"), "memory"
        if self.store is None:
            return None, None
        loaded = self.store.load(self._sorted_run_token(entry))
        if loaded is None:
            return None, None
        _kind, tile, logical = loaded
        charge_restore(self.disk, logical)
        self.artifacts.note_restore(logical)
        # Best effort: a full budget serves the restored run to this
        # query without retaining it.
        self.artifacts.put(key, tile, kind=SORTED_RUN_KIND)
        return SortedRunView(tile, name=f"{entry.name}.sorted"), "disk"

    def _retain_sorted_run(self, entry: CatalogEntry,
                           captured: List[Rect]) -> None:
        """Cache (and persist) one freshly sorted relation."""
        if not captured:
            return
        tile = ColumnarTile.from_rects(captured)
        self.artifacts.put(sorted_run_key(entry.name, entry.version),
                           tile, kind=SORTED_RUN_KIND)
        if self.store is not None:
            self.store.save(self._sorted_run_token(entry),
                            SORTED_RUN_KIND, tile, [entry.name])

    def _sorted_run_token(self, entry: CatalogEntry) -> str:
        return sorted_run_token(entry.name, entry.fingerprint)

    def _execute_multiway(self, plan: PhysicalPlan,
                          entries: List[CatalogEntry]) -> JoinResult:
        inputs = [
            e.tree if e.has_tree else e.stream for e in entries
        ]
        return multiway_join(
            inputs, self.disk,
            collect_tuples=plan.query.collect_pairs,
        )

    # -- partitioned parallel path ---------------------------------------

    def _execute_partitioned(
        self, plan: PhysicalPlan, entries: List[CatalogEntry],
        trace: Optional[Span] = None,
        cancel: Optional[Callable[[], None]] = None,
    ) -> JoinResult:
        env = self.disk.env
        query = plan.query
        self_join = query.is_self_join
        universe = union_mbr(plan.regions[0], plan.regions[1])
        n_parts = max(1, plan.partitions)
        grid = TileGrid(universe, grid_tiles(self.tiles_per_side, n_parts),
                        n_parts)
        grid_spec = (universe.xlo, universe.xhi, universe.ylo,
                     universe.yhi, grid.t, n_parts)
        collect = query.collect_pairs

        versions = tuple(
            (e.name, e.version)
            for e in (entries[:1] if self_join else entries)
        )
        akey = artifact_key(versions, universe, self.tiles_per_side,
                            n_parts, query.window)
        cached = None
        fullkey: Optional[tuple] = None
        task_window: Optional[Rect] = None
        restore_bytes = 0
        # The distribute span covers the artifact probe (a disk restore
        # is distribute work) through scan/partition/spill/submission.
        # Entered manually rather than as a ``with`` block so the
        # existing control flow keeps its shape; on an execution error
        # the whole trace is discarded with the query, so the meter
        # needs no unwind protection.
        dmeter = None
        if trace is not None:
            dmeter = EnvMeter(env, self.machine,
                              trace.child("distribute"))
            dmeter.__enter__()
        if self.artifacts is not None:
            # Candidate keys, best first: the exact (possibly windowed)
            # distribution, then — for windowed queries — the *full*
            # distribution of the same relations, which can be swept
            # whole and post-filtered with identical results (the
            # distribute-phase window filter is only a pruning step;
            # window semantics are enforced by ``_filter_window``,
            # which windowed queries always run).  Each candidate is
            # probed in memory first, then in the artifact sidecar.
            candidates = [(akey, universe, None)]
            if query.window is not None:
                full_universe = union_mbr(
                    entries[0].universe, entries[-1].universe
                )
                fullkey = artifact_key(versions, full_universe,
                                       self.tiles_per_side, n_parts,
                                       None)
                candidates.append((
                    fullkey, full_universe, query.window,
                ))
            hit = None
            for key_try, uni, win in candidates:
                if self.artifacts.has(key_try):
                    # Exactly one hit/miss event per query: the probes
                    # use has(), which bumps no counters.
                    hit = (self.artifacts.get(key_try), uni, win)
                    break
            if hit is None:
                # Count the miss, then try the disk sidecar lazily.
                self.artifacts.get(akey)
                if self.store is not None and self._artifacts_enabled():
                    for key_try, uni, win in candidates:
                        token = self._partition_token(
                            entries, self_join, uni, n_parts, key_try[-1]
                        )
                        loaded = self.store.load(token)
                        if loaded is None:
                            continue
                        _kind, tasks, logical = loaded
                        charge_restore(self.disk, logical)
                        self.artifacts.note_restore(logical)
                        restore_bytes = logical
                        self.artifacts.put(key_try, tasks)
                        hit = (tasks, uni, win)
                        break
            if hit is not None:
                cached, hit_universe, task_window = hit
                if hit_universe is not universe:
                    # Full-distribution reuse: sweep the full grid and
                    # let workers prune each tile to the window first.
                    universe = hit_universe
                    grid = TileGrid(
                        universe,
                        grid_tiles(self.tiles_per_side, n_parts),
                        n_parts,
                    )
                    grid_spec = (universe.xlo, universe.xhi,
                                 universe.ylo, universe.yhi,
                                 grid.t, n_parts)

        # Cost-aware routing: if this exact plan ran before and its
        # whole sweep measured at or under the inline threshold, every
        # tile stays on the coordinator — a single pool round-trip
        # costs more wall clock than the sweep itself.  A windowed
        # plan with no measurement of its own inherits the *worst*
        # sweep ever observed over the same full distribution (a
        # windowed sweep is a subset of the full one, so the max is an
        # upper bound): on a dataset whose heaviest plan is cheap,
        # new windows inline from their first execution; one dense
        # cluster anywhere keeps the estimate conservative and every
        # unmeasured window ships, exactly as before the memo.
        prior_ops = self._plan_ops.get(akey)
        if prior_ops is None and fullkey is not None:
            prior_ops = self._plan_ops.get(fullkey)
        inline_all = prior_ops is not None and prior_ops <= INLINE_PLAN_OPS
        # Only a CancelToken travels inside payloads (it pickles;
        # arbitrary cancel callables do not) — workers then observe
        # cancellation at tile boundaries.  Any callable still gates
        # the gather loop below.
        token = cancel if isinstance(cancel, CancelToken) else None
        shipper = _TaskShipper(self.worker_pool,
                               traced=trace is not None,
                               inline_all=inline_all, cancel=token)
        grant = None
        spilled_rects = spill_partitions = 0
        # Which distribute ran (None: tiles came from the artifact
        # layer) and how many tile copies it placed, replication
        # included.
        distribute_attrs: Dict[str, object] = {"kernel": None, "copies": 0}
        parts_to_free: List[SpillablePartition] = []
        try:
            if cached is not None:
                grant = self._submit_cached(
                    cached, grid_spec, self_join, collect, n_parts,
                    task_window, shipper,
                )
            else:
                (grant, spilled_rects, spill_partitions, parts_to_free,
                 distribute_attrs) = self._distribute_and_submit(
                    plan, entries, grid, grid_spec, self_join, collect,
                    n_parts, akey, shipper,
                )
            submitted = shipper.submitted
            sweep_span = gmeter = None
            if dmeter is not None:
                dmeter.__exit__()
                dmeter.span.attrs.update({
                    "partitions": n_parts,
                    "artifact_hit": cached is not None,
                    "restore_bytes": restore_bytes,
                    "spilled_rects": spilled_rects,
                    **distribute_attrs,
                })
                # Created before gather so the children land in phase
                # order; populated below, once the task dicts are back.
                sweep_span = trace.child("sweep")
                gmeter = EnvMeter(env, self.machine,
                                  trace.child("gather"))
                gmeter.__enter__()
            outcomes = self._gather(submitted, cancel)
        finally:
            for p in parts_to_free:
                p.free()
            if grant is not None:
                grant.release()
            # Every shipped task has been gathered (or abandoned):
            # drop the inflight pins so idle segments can be reclaimed.
            # Pinned cached-artifact tiles keep their segments alive
            # for the next query's zero-copy re-ship.
            shipper.release_shm()
        task_dicts: Optional[List[dict]] = None
        if shipper.traced:
            task_dicts = [outcome[1] for outcome in outcomes]
            outcomes = [outcome[0] for outcome in outcomes]

        parts: List[Sequence] = []
        n_pairs = 0
        total_ops = 0
        duplicates = 0
        inline_ops = 0
        shipped_ops: List[int] = []
        for (fut, shipped, _size, _tiles), outcome in zip(
            submitted, outcomes
        ):
            count, part_pairs, task_ops, dups = outcome
            n_pairs += count
            total_ops += task_ops
            duplicates += dups
            if shipped:
                shipped_ops.append(task_ops)
            else:
                inline_ops += task_ops
            if collect:
                parts.append(part_pairs)
        pairs = _merge_pairs(parts, self.kernel) if collect else None
        if gmeter is not None:
            # Close before charging the sweep ops: the merged op total
            # belongs to the sweep span, not the gather drain.
            gmeter.__exit__()
        env.charge("sweep", total_ops)
        self._note_plan_ops(akey, total_ops)
        if fullkey is not None:
            # Written second, so the bound a new window inherits is
            # never the entry its own write evicts.
            self._note_plan_ops(
                fullkey, max(self._plan_ops.get(fullkey, 0), total_ops)
            )

        # The simulated critical path: shipped tasks (solo tiles and
        # whole batches — a batch is one scheduling unit, as on the
        # real pool) spread over the plan's workers via greedy LPT;
        # inline tasks are serial on the coordinator, which sweeps
        # them while the workers run — the slower of the two lanes
        # bounds the parallel phase.
        critical = max(
            inline_ops, _critical_path_ops(shipped_ops, plan.workers)
        )
        saved_seconds = (
            (total_ops - critical) * self.machine.cpu.seconds_per_op
        )
        if sweep_span is not None:
            # Worker-side spans, recorded inside the pool tasks and
            # shipped back with the results, grafted under one sweep
            # span.  The span's simulated CPU is the *parallel-phase*
            # duration (critical path x seconds/op); its wall is the
            # aggregate worker busy time (tasks overlap — elapsed
            # coordinator time is on the gather span).
            spo = self.machine.cpu.seconds_per_op
            for (_f, shipped, _size, _tiles), tdict in zip(
                submitted, task_dicts
            ):
                tspan = Span.from_task(tdict, spo)
                tspan.attrs["shipped"] = shipped
                sweep_span.adopt(tspan)
            sweep_span.cpu_ops = total_ops
            sweep_span.sim_cpu_seconds = critical * spo
            sweep_span.wall_seconds = sum(
                c.wall_seconds for c in sweep_span.children
            )
            sweep_span.attrs.update({
                "ops_total": total_ops,
                "ops_critical": critical,
                "workers": plan.workers,
                "tasks": len(submitted),
                "kernel": self.kernel,
                "shm_tasks": shipper.shm_tasks,
            })
        task_sizes = [size for _, _, size, _ in submitted]
        return JoinResult(
            algorithm="PBSM-grid",
            n_pairs=n_pairs,
            pairs=pairs,
            max_memory_bytes=max(
                (s * RECT_BYTES for s in task_sizes), default=0
            ),
            detail={
                "strategy": "pbsm-grid",
                "estimated_io_seconds": plan.estimate.io_seconds,
                "workers": plan.workers,
                "partitions": n_parts,
                "active_partitions": sum(
                    tiles for _, _, _, tiles in submitted
                ),
                "tiles_per_side": grid.t,
                "sweep_ops_total": total_ops,
                "sweep_ops_critical": critical,
                "parallel_cpu_seconds_saved": saved_seconds,
                "duplicates_eliminated": duplicates,
                "self_join": self_join,
                "tile_grant_bytes": grant.bytes if grant else 0,
                "spilled_rects": spilled_rects,
                "spilled_bytes": spilled_rects * RECT_BYTES,
                "spill_partitions": spill_partitions,
                "artifact_hit": cached is not None,
                "artifact_restores": 1 if restore_bytes else 0,
                "artifact_restore_bytes": restore_bytes,
                "pool_kind": self.worker_pool.kind,
                "kernel": self.kernel,
                "tasks_shipped": sum(
                    1 for _, shipped, _, _ in submitted if shipped
                ),
                "tile_batches": shipper.batches,
                "batched_tiles": shipper.batched_tiles,
                "shm_tasks": shipper.shm_tasks,
                "inlined_by_cost": inline_all,
            },
        )

    # -- partitioned internals -------------------------------------------

    def _note_plan_ops(self, key: tuple, ops: int) -> None:
        """Remember a plan's measured sweep cost, most recent last."""
        memo = self._plan_ops
        memo[key] = ops
        memo.move_to_end(key)
        while len(memo) > PLAN_MEMO_ENTRIES:
            memo.popitem(last=False)

    def _partition_token(self, entries: List[CatalogEntry],
                         self_join: bool, universe: Rect,
                         n_parts: int, window: Optional[Rect]) -> str:
        """The sidecar identity of one distribution (content-keyed)."""
        fps = tuple(
            (e.name, e.fingerprint)
            for e in (entries[:1] if self_join else entries)
        )
        return partition_token(
            fps, universe, grid_tiles(self.tiles_per_side, n_parts),
            n_parts, window,
        )

    def _gather(self, submitted: List[tuple],
                cancel: Optional[Callable[[], None]] = None
                ) -> List[tuple]:
        outcomes = []
        for fut, shipped, _size, _tiles in submitted:
            if cancel is not None:
                try:
                    cancel()
                except DeadlineExceeded:
                    self._reclaim_cancelled(submitted[len(outcomes):], 0)
                    raise
            try:
                outcomes.append(fut.result())
            except DeadlineExceeded:
                # A worker (or inline sweep) observed the shipped token
                # at a tile boundary: that task *was* reclaimed
                # mid-flight, so it counts alongside the unstarted tail.
                self._reclaim_cancelled(
                    submitted[len(outcomes) + 1:], 1
                )
                raise
            except BrokenExecutor:
                if not shipped:
                    # Inline task-body exceptions propagate with their
                    # real origin (there is no pool to recover here).
                    raise
                # The pool died under this task (sandboxed fork,
                # killed worker).  Recompute inline and demote the
                # pool so the remaining queries keep flowing.  Task-body
                # exceptions are not caught: they propagate with their
                # real origin.
                outcomes.append(
                    self.worker_pool.recover(
                        fut._repro_fn, fut._repro_payload
                    )
                )
        return outcomes

    def _reclaim_cancelled(self, remaining: List[tuple],
                           observed: int) -> None:
        """A deadline fired mid-gather: reclaim the unfinished tail.

        Shipped futures not yet picked up by a worker are cancelled
        outright; tasks already running observe the in-payload token at
        their next tile boundary (solo tasks past their entry check run
        to completion — abandoning them reclaims no CPU, so they are
        not counted).  ``observed`` is 1 when the triggering task's own
        sweep raised :class:`DeadlineExceeded` — cancelled mid-flight,
        counted too.  Inline futures already ran at submit time;
        nothing to reclaim there.
        """
        reclaimed = observed
        for fut, shipped, _size, _tiles in remaining:
            if not shipped:
                continue
            cancel_fut = getattr(fut, "cancel", None)
            if cancel_fut is not None and cancel_fut():
                reclaimed += 1
        self.worker_pool.note_cancelled(reclaimed)

    def _submit_cached(
        self, cached: List[tuple], grid_spec: tuple,
        self_join: bool, collect: bool, n_parts: int,
        window: Optional[Rect], shipper: "_TaskShipper",
    ) -> Optional[object]:
        """Warm path: the distribute phase is skipped entirely.

        Cached columnar tiles go straight to the pool; the only budget
        interaction is a ``"tiles"`` grant for the decoded working set
        the sweeps hold resident (the encoded artifact stays charged
        under ``"artifacts"``).  ``window`` is set when a windowed
        query reuses the full distribution: workers prune each tile to
        the window before sweeping.
        """
        grant = None
        if self.budget is not None:
            decoded = sum(
                (len(a) + len(a if b is None else b)) * RECT_BYTES
                for _, a, b in cached
            )
            grant = self.budget.acquire(
                "tiles", decoded, minimum=n_parts * RECT_BYTES
            )
        for part_id, tile_a, tile_b in cached:
            size = len(tile_a) + len(tile_a if tile_b is None else tile_b)
            payload = (part_id, grid_spec, tile_a, tile_b, self_join,
                       collect, window, self.kernel)
            shipper.add(payload, size)
        shipper.flush()
        return grant

    def _distribute_and_submit(
        self, plan: PhysicalPlan, entries: List[CatalogEntry],
        grid: TileGrid, grid_spec: tuple, self_join: bool,
        collect: bool, n_parts: int, akey: tuple,
        shipper: "_TaskShipper",
    ):
        """Cold path: scan, distribute, then stream tasks to the pool.

        Partitions are materialized on this thread (spill re-reads hit
        the shared simulated disk, whose counters are not thread-safe)
        and each task is submitted the moment its tiles are ready, so
        worker sweeps overlap the materialization of later partitions.
        Spill-charge accounting is identical to the pre-streaming
        executor: distribute ops, spill writes and spill re-reads are
        each charged once, at the same aggregation points.
        """
        env = self.disk.env
        query = plan.query

        # One grant for all in-memory tiles, drawn down first come
        # first served by every partition (a per-partition split would
        # spill hot partitions while cold ones waste their share).
        # Requested at the scan size and extended on demand while the
        # budget has free bytes (boundary replication makes the true
        # footprint unknowable up front), so tiles spill only when the
        # budget is genuinely exhausted — and cached artifacts are
        # evicted first: execution memory outranks cached artifacts.
        grant = allowance = None
        if self.budget is not None:
            want = sum(
                e.stream.data_bytes
                for e in (entries[:1] if self_join else entries)
            )
            if self.artifacts is not None:
                self.artifacts.make_room(want)
            grant = self.budget.acquire(
                "tiles", want, minimum=n_parts * RECT_BYTES
            )
            allowance = TileAllowance(grant.bytes, grant=grant)

        parts_a = [
            SpillablePartition(self.disk, f"tiles.a{i}",
                               allowance=allowance)
            for i in range(n_parts)
        ]
        parts_b = parts_a
        parts_to_free = list(parts_a)
        sides = [(entries[0], parts_a)]
        if not self_join:
            parts_b = [
                SpillablePartition(self.disk, f"tiles.b{i}",
                                   allowance=allowance)
                for i in range(n_parts)
            ]
            parts_to_free.extend(parts_b)
            sides.append((entries[1], parts_b))
        try:
            ops = scanned = 0
            distribute_kernel = self.kernel
            for entry, parts in sides:
                side_ops = None
                if distribute_kernel == "numpy":
                    side_ops = _distribute_columnar(
                        entry, parts, grid, query.window, allowance
                    )
                if side_ops is None:
                    distribute_kernel = "python"
                    side_ops = _distribute(entry.stream, parts, grid,
                                           query.window)
                ops += side_ops
                scanned += len(entry.stream)
            env.charge("partition", ops)

            all_parts = (
                parts_a if self_join else parts_a + parts_b
            )
            spilled_rects = sum(p.spilled_rects for p in all_parts)
            spill_partitions = sum(1 for p in all_parts if p.spilled)
            # The write side of the spill, one op per record; the
            # streams charged the block I/O as they flushed.
            env.charge("spill", spilled_rects)

            # Only partitions that actually join are re-read, and their
            # spilled bytes are charged back to the grant: the sweep
            # phase holds them resident again, and the high-water mark
            # must say so rather than pretend the spill kept it flat.
            # A self-join partition is materialized once and swept
            # against itself — re-reading its spill stream twice would
            # double-charge the one-write-one-reread model the
            # optimizer priced.
            ship = self.worker_pool.kind == "process"
            will_cache = self._artifacts_enabled()
            cache_tasks: List[tuple] = []
            reread_rects = 0
            for i in range(n_parts):
                if not (len(parts_a[i]) and len(parts_b[i])):
                    continue
                active = (
                    (parts_a[i],) if self_join
                    else (parts_a[i], parts_b[i])
                )
                reread_rects += sum(p.spilled_rects for p in active)
                size = len(parts_a[i]) + len(parts_b[i])
                if ship or any(p.packed is not None for p in active):
                    # Columnar from the start: the same flat tiles
                    # serve the pickle boundary, the batch queue and
                    # the artifact cache (even a small tile may cross
                    # the process boundary, as part of a batch).
                    side_a = parts_a[i].materialize_columnar()
                    side_b = (
                        None if self_join
                        else parts_b[i].materialize_columnar()
                    )
                else:
                    side_a = parts_a[i].materialize()
                    side_b = None if self_join else parts_b[i].materialize()
                # Cold tiles are already window-filtered by distribute,
                # so the task carries no window of its own.
                payload = (i, grid_spec, side_a, side_b, self_join,
                           collect, None, self.kernel)
                shipper.add(payload, size)
                if will_cache:
                    cache_tasks.append((i, side_a, side_b))
            shipper.flush()
            env.charge("spill", reread_rects)
            if grant is not None:
                grant.charge(reread_rects * RECT_BYTES)
        except BaseException:
            for p in parts_to_free:
                p.free()
            if grant is not None:
                grant.release()
            raise

        # Retain the distribution for warm repeats — memory-resident
        # runs only (a spilled distribution exists precisely because
        # the budget could not hold it).  Encodes any list-form tiles
        # to columnar; put() takes bytes from the budget's free pool
        # and evicts LRU artifacts, never live grants.  With a sidecar
        # store attached, the same columnar tasks persist to disk —
        # content-keyed, so a restarted engine can restore them.
        if will_cache and spilled_rects == 0 and cache_tasks:
            encoded = [
                (
                    i,
                    a if isinstance(a, ColumnarTile)
                    else ColumnarTile.from_rects(a),
                    b if b is None or isinstance(b, ColumnarTile)
                    else ColumnarTile.from_rects(b),
                )
                for i, a, b in cache_tasks
            ]
            self.artifacts.put(akey, encoded)
            if self.store is not None:
                query = plan.query
                self.store.save(
                    self._partition_token(
                        entries, self_join,
                        Rect(grid_spec[0], grid_spec[1], grid_spec[2],
                             grid_spec[3], 0),
                        n_parts, query.window,
                    ),
                    PARTITION_KIND, encoded,
                    [e.name for e in
                     (entries[:1] if self_join else entries)],
                )
        # One op per scanned rectangle, one per copy placed.
        return (grant, spilled_rects, spill_partitions, parts_to_free,
                {"kernel": distribute_kernel, "copies": ops - scanned})


# -- helpers -----------------------------------------------------------------


class _TaskShipper:
    """Groups tiles into tasks and routes each: ship it or run it here.

    One shipper lives for one partitioned query.  Grouping is one rule
    wherever the task ends up: a tile of at least ``MIN_SHIP_RECTS``
    is a task of its own, dispatched the moment it arrives (streaming
    submission is preserved — workers sweep early tiles while the
    coordinator materializes later ones); smaller tiles accumulate,
    and when their logical payload reaches ``TILE_BATCH_BYTES`` the
    group goes out as **one** task (:func:`sweep_tile_batch_task` —
    under the numpy kernel one kernel call).  Routing: a solo tile and
    a full group ship; the trailing group ships only if it is
    collectively worth a round-trip (``>= MIN_SHIP_RECTS`` rectangles)
    and otherwise runs on the coordinator, still as one task.  On a
    serial pool, and with ``inline_all`` — the executor has measured
    this exact plan before and found the whole sweep cheaper than a
    pool round-trip — nothing ships: the same groups all run here, so
    the task list and the trace have one shape on every pool kind.

    ``submitted`` collects ``(future, shipped, size, tiles)`` in
    submission order; payloads and task functions ride along on the
    future for broken-pool recovery.

    With ``traced=True`` every task runs through
    :func:`sweep_task_traced`, which returns ``(outcome, span dict)``
    instead of the bare outcome — the worker-side half of the trace
    tree, shipped back across the process boundary with the result.
    Untraced queries dispatch the bare functions: the
    zero-cost-when-off contract.

    On a process pool with working shared memory, a shipped task whose
    logical payload reaches ``SHM_MIN_BYTES`` has its
    :class:`ColumnarTile` sides swapped for :class:`ShmTileRef`
    handles before pickling — the columns cross the process boundary
    through a shared segment (memcpy on first publish, zero-copy on
    every re-ship of a cached tile) and the worker maps them in place.
    Packing is best-effort: any failure leaves the tile in the payload
    and pickling proceeds as before.
    """

    def __init__(self, pool: Union[WorkerPool, PoolClient],
                 traced: bool = False,
                 inline_all: bool = False,
                 cancel: Optional[CancelToken] = None) -> None:
        self.pool = pool
        self.traced = traced
        #: Per-query cancel token appended to every task payload
        #: (element 8), so workers check it before each kernel call.
        self.cancel = cancel
        self.submitted: List[tuple] = []
        self._pending: List[tuple] = []
        self._pending_size = 0
        self.batches = 0
        self.batched_tiles = 0
        self.shm_tasks = 0
        self._use_shm = pool.kind == "process" and pool.shm.enabled
        self._inline_only = pool.kind == "serial" or inline_all

    def add(self, payload: tuple, size: int) -> None:
        if self.cancel is not None:
            payload = payload + (self.cancel,)
        if size >= MIN_SHIP_RECTS:
            self._dispatch((payload,), size, ship=True)
            return
        self._pending.append(payload)
        self._pending_size += size
        if self._pending_size * RECT_BYTES >= TILE_BATCH_BYTES:
            self._flush_pending(ship=True)

    def flush(self) -> None:
        """Dispatch the trailing group (ship it only if it pays)."""
        self._flush_pending(ship=self._pending_size >= MIN_SHIP_RECTS)

    # -- internals -------------------------------------------------------

    def _task(self, fn, payload) -> tuple:
        """What goes to the pool: the bare call or its traced wrapper."""
        if self.traced:
            return sweep_task_traced, (fn, payload)
        return fn, payload

    def _flush_pending(self, ship: bool) -> None:
        if self._pending:
            self._dispatch(tuple(self._pending), self._pending_size, ship)
            self._pending = []
            self._pending_size = 0

    def _dispatch(self, payloads: tuple, size: int, ship: bool) -> None:
        """One group, one task — shipped if it pays and may, else run
        here and now; a group of one is a solo tile task."""
        tiles = len(payloads)
        if tiles == 1:
            fn, payload = sweep_tile_task, payloads[0]
        else:
            fn, payload = sweep_tile_batch_task, payloads
        if ship and not self._inline_only:
            if tiles > 1:
                self.batches += 1
                self.batched_tiles += tiles
            self._ship(fn, payload, size, tiles)
            return
        fn, payload = self._task(fn, payload)
        self.submitted.append((
            self.pool.run_inline(fn, payload, units=tiles),
            False, size, tiles,
        ))

    def _ship(self, fn, payload, size: int, tiles: int) -> None:
        shm_names = ()
        if self._use_shm and size * RECT_BYTES >= SHM_MIN_BYTES:
            payload, shm_names = self._shm_payload(payload, tiles > 1)
        if shm_names:
            # Inflight must be registered BEFORE submit: the broken-pool
            # submit fallback resets the shm manager and then runs the
            # task inline immediately — without the inflight pin the
            # reset would close the very segments the payload points at.
            self.pool.shm.add_inflight(shm_names)
            self.shm_tasks += 1
        fn, payload = self._task(fn, payload)
        fut = self.pool.submit(fn, payload, units=tiles)
        fut._repro_payload = payload
        fut._repro_fn = fn
        fut._repro_shm = shm_names
        self.submitted.append((fut, True, size, tiles))

    def _shm_payload(self, payload, batch: bool):
        """Swap the payload's tile sides for shared-memory refs.

        Returns ``(payload, segment names)``; the original payload and
        ``()`` when nothing was packable (list-form sides, or the
        segment allocation failed — pickling is always correct).
        """
        payloads = payload if batch else (payload,)
        tiles: List[ColumnarTile] = []
        slots: List[Tuple[int, int]] = []
        for pi, p in enumerate(payloads):
            for si in (2, 3):
                side = p[si]
                if isinstance(side, ColumnarTile) and len(side):
                    tiles.append(side)
                    slots.append((pi, si))
        if not tiles:
            return payload, ()
        refs = self.pool.shm.refs_for(tiles)
        if refs is None:
            return payload, ()
        out = [list(p) for p in payloads]
        names = set()
        for (pi, si), ref in zip(slots, refs):
            out[pi][si] = ref
            names.add(ref.segment)
        packed = tuple(tuple(p) for p in out)
        return (packed if batch else packed[0]), frozenset(names)

    def release_shm(self) -> None:
        """Drop the inflight pins of every shipped task (post-gather).

        After a clean gather every future is done and its segments may
        be recycled; a task a deadline left unfinished may still read
        its segments, so those are given up for good.
        """
        manager = self.pool.shm
        for fut, shipped, _size, _tiles in self.submitted:
            if shipped:
                names = getattr(fut, "_repro_shm", ())
                if names:
                    manager.task_done(names, abandoned=not fut.done())


class _OpCounter:
    """Minimal env stand-in for worker-local sweeps: counts CPU ops."""

    def __init__(self) -> None:
        self.cpu_ops = 0

    def charge(self, category: str, ops: int) -> None:
        if ops > 0:
            self.cpu_ops += ops


#: What a tile task returns: ``(owned pair count, owned pairs or None,
#: cpu ops, duplicates suppressed)``.  The pairs are a list of tuples
#: from the python body and :class:`PairColumns` from the numpy kernel.
TaskOutcome = Tuple[int, Optional[Sequence[Tuple[int, int]]], int, int]

_np_sweep_mod = False  # False = not probed yet; None = unavailable


def _np_sweep():
    """The vectorized kernel module, or None (memoized per process)."""
    global _np_sweep_mod
    if _np_sweep_mod is False:
        try:
            from repro.core.kernels import np_sweep as mod

            _np_sweep_mod = mod
        except ImportError:
            _np_sweep_mod = None
    return _np_sweep_mod


def _sweep_group(payloads: tuple) -> Optional[TaskOutcome]:
    """The tiles of ``payloads`` through one vectorized kernel call.

    All payloads belong to one query, so the first one speaks for the
    grid, the self-join and collect flags, the window, the kernel and
    the cancel token — which is checked once, before the call: a group
    is the unit a deadline can stop.  ``None`` hands the tiles to the
    python body: the payloads name the python kernel, this process
    cannot import numpy, or the kernel declined the input (then for
    the whole group; the caller retries tile by tile).
    """
    first = payloads[0]
    if len(first) <= 7 or first[7] != "numpy":
        return None
    mod = _np_sweep()
    if mod is None:
        return None
    _check_cancel(first)
    _, grid_spec, _, _, self_join, collect, window = first[:7]
    out = mod.sweep_tiles(
        [(p[0], _resolved(p[2]), _resolved(p[3])) for p in payloads],
        self_join, grid_spec, window, collect,
    )
    if out is None:
        return None
    counts, pairs, ops, dups = out
    return (sum(counts), pairs, sum(ops), sum(dups))


def _check_cancel(payload: tuple) -> None:
    """Raise :class:`DeadlineExceeded` if the payload carries the
    query's cancel token (its optional ninth element) and it fired."""
    if len(payload) > 8 and payload[8] is not None:
        payload[8]()


def _resolved(side):
    """A tile side with a :class:`ShmTileRef` handle mapped to the
    zero-copy view over the coordinator's shared segment."""
    return resolve_shm_tile(side) if isinstance(side, ShmTileRef) else side


def sweep_tile_task(payload: tuple) -> TaskOutcome:
    """Sweep one partition tile; runs on a pool worker or inline.

    The payload is self-contained and picklable: tiles arrive as
    :class:`ColumnarTile` columns, :class:`ShmTileRef` handles to them,
    or ready ``Rect`` lists (inline/thread dispatch); ``side_b is
    None`` marks a self-join, whose single side sweeps against itself.
    The payload's optional eighth element names the sweep kernel
    (``"python"`` when absent — old payloads stay valid); the optional
    ninth is the query's :class:`~repro.engine.pool.CancelToken`,
    checked before the sweep so a deadline-doomed task stops at the
    tile boundary instead of finishing a pointless sweep.

    Under the numpy kernel a solo tile is a group of one
    (:func:`_sweep_group`): the whole task runs vectorized.  The body
    below is the python kernel and the reference — ``kernel="python"``
    engines, workers without numpy, and any tile the vectorized kernel
    declines land here, with bit-identical results.  It decodes the
    tile, runs the zero-callback batched sweep (which sorts), then
    applies reference-point ownership and self-join dedup in one tight
    loop over the batch, so no Python callback fires per candidate
    pair.  For self-joins the sweep emits every pair in both
    orientations plus each rectangle against itself, and the filter
    keeps exactly the ``rid_a < rid_b`` representative.

    Returns ``(owned pair count, owned pairs or None, cpu ops,
    duplicates suppressed by the reference-point test and self-join
    dedup)`` — op counts bit-identical to the per-pair-callback path.
    """
    out = _sweep_group((payload,))
    if out is not None:
        return out
    part_id, grid_spec, side_a, side_b, self_join, collect, window = (
        payload[:7]
    )
    _check_cancel(payload)
    side_a = _resolved(side_a)
    if isinstance(side_a, ColumnarTile):
        side_a = side_a.decode()
    if side_b is None:
        side_b = side_a
    else:
        side_b = _resolved(side_b)
        if isinstance(side_b, ColumnarTile):
            side_b = side_b.decode()
    if window is not None:
        # Windowed reuse of a full distribution: prune to the window
        # exactly as the distribute phase would have.
        side_a = [r for r in side_a if r.intersects(window)]
        side_b = (
            side_a if self_join
            else [r for r in side_b if r.intersects(window)]
        )

    local = _OpCounter()
    batch, _stats = forward_sweep_pairs_batched(side_a, side_b, local)

    grid = TileGrid(
        Rect(grid_spec[0], grid_spec[1], grid_spec[2], grid_spec[3], 0),
        grid_spec[4], grid_spec[5],
    )
    part_of = grid.partition_of_point
    owned: List[Tuple[int, int]] = []
    append = owned.append
    dups = 0
    for ra, rb in batch:
        if self_join and not ra.rid < rb.rid:
            dups += 1
            continue
        x = ra.xlo if ra.xlo >= rb.xlo else rb.xlo
        y = ra.ylo if ra.ylo >= rb.ylo else rb.ylo
        if part_of(x, y) == part_id:
            append((ra.rid, rb.rid))
        else:
            dups += 1
    return (len(owned), owned if collect else None, local.cpu_ops, dups)


def sweep_tile_batch_task(payloads: tuple) -> TaskOutcome:
    """Sweep a group of small tiles as one task, shipped or inline.

    The group crosses the process boundary once (one pickle, one
    scheduling round-trip) and, under the numpy kernel, is swept by
    one kernel call (:func:`_sweep_group`) that returns the *merged*
    outcome in the same ``(count, pairs, ops, dups)`` shape a
    single-tile task produces.  The cancel token is checked once per
    group, before that call.  Each tile is an independent partition,
    so the pair set, its order (tile after tile) and the op accounting
    are bit-identical to per-tile dispatch — which is also the
    fallback: under the python kernel, or when the vectorized kernel
    declines the group, the tiles run back to back through
    :func:`sweep_tile_task` (one cancel check per tile) and their
    results are concatenated (:func:`_merge_pairs`).
    """
    if not payloads:
        return (0, None, 0, 0)
    out = _sweep_group(payloads)
    if out is not None:
        return out
    count = 0
    ops = 0
    dups = 0
    parts: List[Sequence] = []
    for payload in payloads:
        c, pairs, o, d = sweep_tile_task(payload)
        count += c
        ops += o
        dups += d
        if pairs is not None:
            parts.append(pairs)
    # payload[5] is the collect flag, payload[7] the kernel; all tiles
    # of one query share both.  A worker that cannot import numpy swept
    # every tile with the python body and merges the same way.
    merged = None
    if payloads[0][5]:
        kernel = payloads[0][7] if len(payloads[0]) > 7 else "python"
        if _np_sweep() is None:
            kernel = "python"
        merged = _merge_pairs(parts, kernel)
    return (count, merged, ops, dups)


def _merge_pairs(parts: List[Sequence], kernel: str) -> Sequence:
    """Per-tile pair sets back to back, in order.

    Under the numpy kernel one array concatenation — a tile the python
    body swept arrives as a list and is converted on the way in; the
    python kernel extends a list.
    """
    if kernel == "numpy":
        return PairColumns.concat(parts)
    merged: List[Tuple[int, int]] = []
    for part in parts:
        merged.extend(part)
    return merged


def sweep_task_traced(task: tuple) -> Tuple[tuple, dict]:
    """Either sweep entry point plus a worker-side span dict.

    ``task`` is ``(fn, payload)`` with ``fn`` one of
    :func:`sweep_tile_task` / :func:`sweep_tile_batch_task`.  The dict
    is plain picklable data — built inside the pool worker, shipped
    back attached to the outcome, and converted to a
    :class:`~repro.engine.trace.Span` on the coordinator
    (:meth:`Span.from_task`), which also prices the ops on the
    engine's machine.  One span per *task* (the scheduling unit), not
    per tile: a batch crossed the boundary once and swept back to
    back, and ``tiles`` records the amortization.  The wrapped outcome
    is bit-identical to the untraced task's.
    """
    fn, payload = task
    batch = fn is sweep_tile_batch_task
    t0 = time.perf_counter()
    outcome = fn(payload)
    return outcome, {
        "name": "sweep-task",
        "part": None if batch else payload[0],
        "tiles": len(payload) if batch else 1,
        "wall_seconds": time.perf_counter() - t0,
        "cpu_ops": outcome[2],
        "pairs": outcome[0],
        "dups": outcome[3],
        "pid": os.getpid(),
    }


def _distribute(stream, parts: List[SpillablePartition], grid: TileGrid,
                window: Optional[Rect]) -> int:
    """Scan a base stream into tile partitions (spillable).

    The scan charges one sequential read pass on the shared disk (the
    partition pass the optimizer priced); partitions hold tiles in
    memory up to their allowance and overflow to disk streams beyond
    it.  Returns abstract partitioning ops.

    The path of engines without numpy, and the reference
    :func:`_distribute_columnar` is tested against.
    """
    ops = 0
    for r in stream.scan():
        if window is not None and not r.intersects(window):
            ops += 1
            continue
        targets = grid.partitions_of(r)
        ops += 1 + len(targets)
        for t in targets:
            parts[t].append(r)
    return ops


def _distribute_columnar(entry: CatalogEntry,
                         parts: List[SpillablePartition], grid: TileGrid,
                         window: Optional[Rect],
                         allowance: Optional[TileAllowance],
                         ) -> Optional[int]:
    """:func:`_distribute` from the entry's column image.

    The numpy kernel decides where every copy goes; this step places
    them.  The allowance is drawn in bulk, the copies it covers are
    packed per partition straight from the image, and the rest are
    spilled as image rows while the base stream's blocks are read —
    each block once, with the spill writes of the copies it holds
    between the same two reads as in the python loop
    (:func:`_spill_run`) — so tiles, op charges, grant size and the
    simulated disk's ledger all match :func:`_distribute`, and no
    ``Rect`` is built on the way.  Returns ``None``, having touched
    nothing, when the kernel declines the input.
    """
    from repro.core.kernels import np_distribute

    image = entry.columns
    dist = np_distribute.distribute(image, grid, window)
    if dist is None:
        return None
    copies = len(dist.rows)
    resident = (
        copies if allowance is None else allowance.take_many(copies)
    )
    for part, tile in zip(parts, dist.tiles(image, resident, len(parts))):
        part.packed = tile
    # The overflow, in copy order: ascending image row, so a base
    # block's copies are one run of it.
    rows = dist.rows[resident:]
    targets = dist.parts[resident:]
    done = scanned = 0
    for block in entry.stream.scan_blocks():
        scanned += len(block)
        run_end = int(rows.searchsorted(scanned))
        if run_end > done:
            _spill_run(parts, image, rows[done:run_end],
                       targets[done:run_end])
            done = run_end
    return dist.ops


def _spill_run(parts: List[SpillablePartition], image, rows,
               targets) -> None:
    """Spill one run of copies: ``rows[i]`` of ``image`` to
    ``parts[targets[i]]``, as one ``spill`` per copy in that order
    would.

    A spill stream touches the simulated disk only when a copy fills
    its block, and ``Disk.allocate`` hands out offsets in call order
    while the machine observers price seeks from the offset sequence —
    so across streams the order of those flushes *is* the ledger.  The
    run is cut per stream (a stable group-by keeps copy order inside
    each), every stream is fed up to and including each copy that
    fills it in the run-wide order of those copies, and the
    remainders, which flush nothing, go last.
    """
    order = targets.argsort(kind="stable")
    grouped = targets[order]
    cuts = (grouped[1:] != grouped[:-1]).nonzero()[0] + 1
    bounds = [0, *cuts.tolist(), len(order)]
    fills = []
    tails = []
    for lo, hi in zip(bounds, bounds[1:]):
        part = parts[grouped[lo]]
        at = order[lo:hi]
        fed = 0
        for upto in part.spill_fills(hi - lo):
            fills.append((at[upto - 1], part, rows[at[fed:upto]]))
            fed = upto
        if fed < hi - lo:
            tails.append((part, rows[at[fed:]]))
    fills.sort(key=itemgetter(0))
    for _, part, chunk in fills:
        part.spill_rows(image, chunk)
    for part, chunk in tails:
        part.spill_rows(image, chunk)


def _critical_path_ops(part_ops: List[int], workers: int) -> int:
    """Busiest worker's ops under greedy LPT assignment of partitions."""
    if not part_ops:
        return 0
    loads = [0] * max(1, workers)
    for w in sorted(part_ops, reverse=True):
        loads[loads.index(min(loads))] += w
    return max(loads)


def _filter_window(result: JoinResult, entries: List[CatalogEntry],
                   window: Rect, kernel: str = "python") -> JoinResult:
    """Keep pairs/tuples whose common MBR intersection meets the window.

    ``kernel="numpy"`` tests all pairs at once against the entries'
    column images and keeps them as columns (a partitioned or
    ``pq-index`` plan hands columns in; the list of a ``pq-mixed-*``,
    ``st``, ``sssj`` or multiway plan is converted once); the python
    loop is the fallback and the reference.
    """
    kept = None
    if kernel == "numpy":
        from repro.core.kernels import np_distribute

        kept = np_distribute.filter_window(
            [e.columns for e in entries], result.pairs, window
        )
    if kept is None:
        kept = []
        for ids in result.pairs:
            rects = [entries[i].by_id[rid] for i, rid in enumerate(ids)]
            acc: Optional[Rect] = rects[0]
            for r in rects[1:]:
                acc = intersection(acc, r)
                if acc is None:
                    break
            if acc is not None and acc.intersects(window):
                kept.append(ids)
    result.detail["window_filtered"] = result.n_pairs - len(kept)
    result.pairs = kept
    result.n_pairs = len(kept)
    return result


def _refine_pairs(result: JoinResult,
                  entries: List[CatalogEntry]) -> JoinResult:
    """Exact-geometry refinement where both sides registered geometry."""
    geom_a = entries[0].geometries
    geom_b = entries[1].geometries
    if geom_a is None and geom_b is None:
        result.detail["refined_out"] = 0
        return result
    kept = []
    for ida, idb in result.pairs:
        ga = geom_a.get(ida) if geom_a else None
        gb = geom_b.get(idb) if geom_b else None
        if ga is not None and gb is not None:
            if polylines_intersect(ga, gb):
                kept.append((ida, idb))
        else:
            # No exact geometry on one side: the MBR filter verdict
            # stands (refinement can only confirm what it can see).
            kept.append((ida, idb))
    result.detail["refined_out"] = result.n_pairs - len(kept)
    result.pairs = kept
    result.n_pairs = len(kept)
    return result
