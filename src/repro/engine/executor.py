"""Physical plan execution, including partitioned parallel joins.

A pairwise plan runs its strategy's row of
:data:`repro.core.planner.STRATEGIES` and reports the estimate the plan
carries; a multiway plan runs :func:`multiway_join` over the streams
it was priced on.  The resolved kernel goes down with them, so a
``pq-index`` plan on a numpy engine runs
:mod:`repro.core.kernels.np_index` and hands back
:class:`~repro.core.columnar.PairColumns` — ``pq-mixed-*``, ``st``,
``sssj``, multiway and :func:`_refine_pairs` still build tuple lists.
An ``sssj`` plan resolves each side's sorted run through the artifact
layer first (:meth:`Executor._execute_sssj`).  Window and refinement
predicates are post-filters on the collected pairs
(:func:`_filter_window`, :func:`_refine_pairs`).

The engine-only path is **partitioned execution**
(:meth:`Executor._execute_partitioned`): both inputs are cut into
PBSM-style tiles (PBSM's tile grid and reference-point arithmetic: a
pair is reported only by the partition owning the tile of its
reference point, so the merge is pure concatenation) and the
per-partition sweeps fan out over the engine's persistent
:class:`~repro.engine.pool.WorkerPool`.  It is a pipeline of five
stages, each a method that opens the span it is measured by, handing
one :class:`_PartitionedRun` along; whatever the query comes to hold —
tile grant, spill streams, shm pins — sits on one ``ExitStack`` and
goes back once, whichever stage raises:

1. **Plan** (:meth:`~Executor._plan_partitioned`).  The tiles'
   identity comes from the artifact layer
   (:meth:`ArtifactCache.distribution
   <repro.engine.cache.ArtifactCache.distribution>` — the optimizer
   priced the plan from the same object, so neither side derives a
   key); routing comes from the plan memo: a repeat whose whole
   sweep *measured* at or under ``INLINE_PLAN_OPS`` keeps every group
   on the coordinator.
2. **Produce** (:meth:`~Executor._produce_tiles`, the ``distribute``
   span).  One :meth:`~repro.engine.cache.ArtifactCache.fetch` decides
   where the tiles come from — cached, or (a miss) distributed cold —
   and on which grid they are swept: a windowed plan may reuse the
   full distribution, which is then pruned to the window here, once,
   on the coordinator (:func:`_prune_window`: one mask a side over the
   cached column image), so tasks carry only surviving rows.
3. **Grant and ship.**  The query's one ``"tiles"`` grant
   (:meth:`~Executor._acquire_tiles`) is sized by what stage 2 found:
   the decoded working set of the cached tiles that survive the prune
   (:meth:`~Executor._ship_cached`), or the scan size — cached
   artifacts evicted first, extended on demand, overflowing into
   disk-backed :class:`~repro.core.pbsm.SpillablePartition` streams —
   of a cold distribute (:meth:`~Executor._distribute_and_ship`:
   :meth:`~Executor._scan_into_partitions`, then
   :meth:`~Executor._materialize_and_ship`, then
   :meth:`ArtifactCache.retain
   <repro.engine.cache.ArtifactCache.retain>` for an unspilled
   distribution, kept as one column image a side whose tiles are
   views).  Under the numpy kernel tiles are placed from the
   catalog entry's column image (:func:`_distribute_columnar`) and
   the overflow spilled as image rows (:func:`_spill_run`) — no
   ``Rect`` is built; the per-rectangle
   :func:`~repro.core.pbsm.distribute` is the
   no-numpy path and the reference, identical down to the order of
   the disk's ``allocate`` / write / read calls.  Each tile goes to
   the :class:`_TaskShipper` the moment it is ready, so workers sweep
   early partitions while the coordinator re-reads later ones.
4. **Gather** (:meth:`~Executor._gather`, the ``gather`` span).
   Outcomes in submission order, the ``cancel`` checkpoint before
   each; a broken pool is recovered inline, a deadline reclaims the
   unfinished tail.  Then the release, then one merge of the per-task
   pair sets (arrays under the numpy kernel).
5. **Account** (:meth:`~Executor._account`).  The merged op total is
   charged once; the *critical path* — shipped tasks spread over the
   plan's workers by greedy LPT against the coordinator's inline lane
   — gives the simulated parallel wall time; the plan memo, the
   ``sweep`` span and the :class:`JoinResult` are written.

**Tile dispatch** (:class:`_TaskShipper`) is policy, decided from what
the executor observes against the measured constants below: a tile of
``MIN_SHIP_RECTS`` ships on its own; smaller tiles coalesce into groups
of ``TILE_BATCH_BYTES``, one task and one kernel call each; a trailing
group too small to pay runs on the coordinator, still as one task —
one grouping rule whether a group ships or not, so a serial pool runs
the same tasks a process pool would ship.  On a process pool with
working shared memory a task of ``SHM_MIN_BYTES`` ships its tiles as
shared-memory refs (zero-copy when a cached tile is re-shipped),
otherwise as pickled :class:`~repro.core.columnar.ColumnarTile`
columns.  Op accounting is placement-independent, so all of this moves
wall clock only.

**Tasks** (:func:`sweep_tile_task`, :func:`sweep_tile_batch_task`) touch
no shared simulation state: each sweeps its own tiles and counts its
own ops.  Under the numpy kernel a task is one
:func:`~repro.core.kernels.np_sweep.sweep_tiles` call however many
tiles it holds (:func:`_sweep_group`) and its pairs come back as
:class:`~repro.core.columnar.PairColumns`; the python body
(:func:`~repro.core.sweep.forward_sweep_pairs_batched`, then one tight
ownership/dedup loop) is the reference and the fallback for a group the
kernel declines — pairs, order, counts, ops and dups bit-identical tile
by tile.  Self-joins ride the same path: the single input is
distributed once, each partition swept against itself, and only
``rid_a < rid_b`` survives.  Both functions are resolved as globals of
this module at dispatch time (the end-to-end bench rebinds them).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor
from contextlib import ExitStack
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.columnar import (
    ColumnarTile,
    DistributionImage,
    PairColumns,
    SortedRunView,
)
from repro.core.join_result import JoinResult
from repro.core.kernels import resolve_kernel
from repro.core.multiway import multiway_join
from repro.core.pbsm import (
    SpillablePartition,
    TileAllowance,
    TileGrid,
    distribute,
)
from repro.core.planner import STRATEGIES
from repro.core.sssj import sssj_join
from repro.core.sweep import forward_sweep_pairs_batched
from repro.engine.cache import ArtifactCache, ArtifactIdentity, Candidate
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
from repro.engine.trace import Span, span_meter
from repro.geom.rect import RECT_BYTES, Rect, intersection, union_mbr
from repro.geom.refine import polylines_intersect
from repro.sim.machines import MachineSpec
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.sort import sort_stream_by_ylo

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
#: group still under it runs inline.  What a round trip adds to the
#: inline kernel call is ``pool.probe.roundtrip_us_pickle`` minus
#: ``..._inline``: over the pool's pipes, 0.45 ms at 512 rectangles and
#: 0.74 ms at 8 192 (medians of five probe runs; ``BENCH_e2e.json``
#: record 16 read 0.66 and 1.15), against an inline call of 0.6 and
#: 4.4 ms on the same host.  The constant was sized when a trip added
#: 0.5-0.6 ms and the call at 512 took 0.2 ms (record 3): a second core
#: pays a trip back from about a millisecond of sweep, and at the
#: 0.4 µs a rectangle those probes read that is about this many
#: rectangles.  The kernel has since got cheaper (no per-event replay
#: loop, no stable sorts: about 0.7x the time on a tile of 3 000
#: rectangles or more), so that millisecond now takes more rectangles;
#: re-deriving the constant from the probes is ROADMAP.md item 2(c).
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
#: created and unlinked per task, a fresh pack beats pickling at every
#: probed size (``pool.probe.roundtrip_us_shm`` against
#: ``..._pickle``, the median of five probe runs' ratios: -13 % at
#: n256, -4 % at n4096, -10 % at n65536), and re-shipping cached tiles
#: by reference (``pool.shm_refs_reused_per_query``) comes on top; the
#: floor only keeps sub-page payloads from costing a segment.
SHM_MIN_BYTES = 16 * 1024

#: A repeat plan whose *measured* sweep came in at or under this many
#: simulated ops keeps every group on the coordinator.  ``cold_scan``'s
#: windows average 100 K ops and their inline group is one 1.5–1.8 ms
#: kernel call (``executor.phase.sweep_ms_p50``), so a plan at the
#: threshold is about a millisecond of kernel time; a round trip costs
#: about half a millisecond on top of the sweep it moves (``pool.probe.
#: roundtrip_us_pickle_n256`` against ``..._inline_n256``: 0.45 ms, the
#: median of five probe runs over the pool's pipes), so shipping a plan
#: this cheap buys nothing.  Simulated accounting is
#: placement-independent, so this is a wall-clock policy, not a
#: semantic one; first executions have no measurement and ship.  Those
#: kernel times predate the vectorized op replay, which made a group's
#: call cheaper (0.8-0.9x below 3 000 rectangles); re-deriving the
#: threshold from the probes is ROADMAP.md item 2(c).
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
        budget: Optional[ResourceBudget] = None,
        worker_pool: Optional[Union[WorkerPool, PoolClient]] = None,
        artifacts: Optional[ArtifactCache] = None,
        kernel: str = "auto",
    ) -> None:
        self.disk = disk
        self.machine = machine
        self.pool = pool
        self.budget = budget
        # A private serial pool keeps direct (engine-less) construction
        # working; the engine passes a client on its long-lived pool
        # (possibly shared with other engines — the executor only ever
        # sees the client/pool submission surface).
        self.worker_pool = worker_pool or WorkerPool(1, kind="serial")
        # The engine's artifact cache; without one, a disabled cache:
        # every lookup is a miss.
        self.artifacts = (
            artifacts if artifacts is not None
            else ArtifactCache(max_bytes=0)
        )
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
        if plan.strategy == "sssj" and self.artifacts.enabled:
            return self._execute_sssj(plan, entries)
        rel_a, rel_b = (e.relation(universe=region)
                        for e, region in zip(entries, plan.regions))
        result = STRATEGIES[plan.strategy].join(
            rel_a, rel_b, self.disk, collect_pairs=plan.query.collect_pairs,
            kernel=self.kernel, pool=self.pool,
        )
        return self._stamp(result, plan)

    def _stamp(self, result: JoinResult, plan: PhysicalPlan) -> JoinResult:
        """Report the strategy that ran and the estimate it was planned by."""
        result.detail.update(strategy=plan.strategy,
                             estimated_io_seconds=plan.estimate.io_seconds,
                             machine=self.machine.name)
        return result

    # -- sorted-run artifact path ----------------------------------------

    def _execute_sssj(self, plan: PhysicalPlan,
                      entries: List[CatalogEntry]) -> JoinResult:
        """SSSJ with sorted-run artifact reuse.

        Each side's sorted view is resolved independently through the
        artifact cache (one hit-or-miss event a side): a hit sweeps
        straight out of the cached columnar run (no sort, no I/O at
        all for that side), and a miss runs the external sort as
        usual — capturing the sorted output as it passes through
        memory and retaining it as a fresh artifact for the next query.
        """
        query = plan.query
        universe = union_mbr(plan.regions[0], plan.regions[1])

        runs = []
        owned = []
        hits = 0
        for idx, entry in enumerate(entries):
            ident = self.artifacts.sorted_run(entry)
            hit = self.artifacts.fetch(ident)
            if hit is not None:
                hits += 1
                runs.append(
                    SortedRunView(hit.value, name=f"{entry.name}.sorted")
                )
                continue
            captured: List[Rect] = []
            sorted_stream = sort_stream_by_ylo(
                entry.stream, self.disk, name=f"sssj.{'ab'[idx]}",
                on_record=captured.append,
            )
            if captured:
                self.artifacts.retain(
                    ident, ColumnarTile.from_rects(captured)
                )
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
        self._stamp(result, plan).detail["sorted_run_hits"] = hits
        return result

    def _execute_multiway(self, plan: PhysicalPlan,
                          entries: List[CatalogEntry]) -> JoinResult:
        # The streams the plan priced (a sort cascade), whatever else
        # the catalog happens to have built.
        return multiway_join(
            [e.stream for e in entries], self.disk,
            collect_tuples=plan.query.collect_pairs,
        )

    # -- partitioned parallel path ---------------------------------------

    def _execute_partitioned(
        self, plan: PhysicalPlan, entries: List[CatalogEntry],
        trace: Optional[Span] = None,
        cancel: Optional[Callable[[], None]] = None,
    ) -> JoinResult:
        """The partitioned pipeline: plan, produce + ship, gather,
        account — one stage a method, each span opened by the stage
        it measures."""
        env, machine = self.disk.env, self.machine
        run = self._plan_partitioned(plan, entries, trace, cancel)
        shipper = run.shipper
        # What the query comes to hold goes back here, once and newest
        # first, whichever stage raises: spill streams, the tile grant,
        # and last the in-flight pins of the shipped tasks (every one
        # gathered or abandoned by then; pinned cached-artifact tiles
        # keep their segments for the next query's zero-copy re-ship).
        with ExitStack() as held:
            held.callback(shipper.release_shm)
            # The span runs from the artifact lookup through
            # scan/partition/spill/submission.
            with span_meter(env, machine, trace, "distribute") as dspan:
                self._produce_tiles(run, held)
            sweep_span = None
            if dspan is not None:
                dspan.attrs.update({
                    "partitions": run.n_parts,
                    "artifact_hit": run.artifact_hit,
                    "spilled_rects": run.spilled_rects,
                    **run.distribute_attrs,
                })
                # Created before gather so the children land in phase
                # order; filled by the account stage.
                sweep_span = trace.child("sweep")
            with span_meter(env, machine, trace, "gather"):
                outcomes = self._gather(shipper.submitted, cancel)
                held.close()
                task_dicts: Optional[List[dict]] = None
                if shipper.traced:
                    task_dicts = [outcome[1] for outcome in outcomes]
                    outcomes = [outcome[0] for outcome in outcomes]
                pairs = (
                    _merge_pairs([o[1] for o in outcomes], self.kernel)
                    if run.collect else None
                )
        # The gather span is closed: the merged op total the account
        # stage charges belongs to the sweep span, not the drain.
        return self._account(run, outcomes, task_dicts, pairs, sweep_span)

    def _plan_partitioned(
        self, plan: PhysicalPlan, entries: List[CatalogEntry],
        trace: Optional[Span],
        cancel: Optional[Callable[[], None]],
    ) -> "_PartitionedRun":
        """Stage 1: the tiles' identity, and where their sweeps run."""
        query = plan.query
        n_parts = max(1, plan.partitions)
        ident = self.artifacts.distribution(
            entries, query.is_self_join,
            union_mbr(plan.regions[0], plan.regions[1]),
            n_parts, query.window,
        )
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
        prior_ops = None
        for cand in ident.candidates:
            prior_ops = self._plan_ops.get(cand.key)
            if prior_ops is not None:
                break
        inline_all = prior_ops is not None and prior_ops <= INLINE_PLAN_OPS
        # Only a CancelToken travels inside payloads (it pickles;
        # arbitrary cancel callables do not) — workers then observe
        # cancellation at tile boundaries.  Any callable still gates
        # the gather loop.
        token = cancel if isinstance(cancel, CancelToken) else None
        shipper = _TaskShipper(self.worker_pool,
                               traced=trace is not None,
                               inline_all=inline_all, cancel=token)
        return _PartitionedRun(plan, entries, ident, n_parts, shipper,
                               inline_all, self.kernel)

    def _produce_tiles(self, run: "_PartitionedRun",
                       held: ExitStack) -> None:
        """Stage 2: tiles from the artifact cache, else from a cold
        distribute; either way shipped as they become ready."""
        hit = self.artifacts.fetch(run.ident)
        if hit is None:
            self._distribute_and_ship(run, held)
            return
        run.artifact_hit = True
        run.sweep_on(hit.candidate)
        self._ship_cached(run, hit.value, hit.candidate.prune, held)

    def _acquire_tiles(self, run: "_PartitionedRun", want: int,
                       minimum: int, held: ExitStack):
        """Stage 3 opens with the query's one ``"tiles"`` grant (None
        without a budget), handed back with everything else it holds."""
        if self.budget is None:
            return None
        run.grant = held.enter_context(self.budget.acquire(
            "tiles", want, minimum=minimum
        ))
        return run.grant

    def _ship_cached(self, run: "_PartitionedRun",
                     cached: DistributionImage, window: Optional[Rect],
                     held: ExitStack) -> None:
        """Warm path: the distribute phase is skipped entirely.

        Cached tiles go straight to the shipper; the only budget
        interaction is a ``"tiles"`` grant for the decoded working set
        the sweeps hold resident (the encoded artifact stays charged
        under ``"artifacts"``).  A windowed query that reuses the full
        distribution (``window``: the candidate's ``prune``) first cuts
        it down here, once, to the rectangles that meet the window
        (:func:`_prune_window`: one mask a side over the column image),
        so the grant, the grouping and the routing all follow what
        survives, and only that is shipped.  An unwindowed hit ships
        the cached tiles themselves, which a process pool re-ships
        from shared memory by reference.
        """
        tasks = (
            cached if window is None
            else _prune_window(cached, window, self.kernel)
        )
        sizes = [len(a) + len(a if b is None else b) for _, a, b in tasks]
        want = sum(sizes) * RECT_BYTES
        # Never more than the sweeps hold: a window that keeps less
        # than a rectangle a partition is not an overcommit.
        self._acquire_tiles(run, want,
                            min(want, run.n_parts * RECT_BYTES), held)
        for (part_id, tile_a, tile_b), size in zip(tasks, sizes):
            run.ship(part_id, tile_a, tile_b, size)
        run.shipper.flush()

    def _distribute_and_ship(self, run: "_PartitionedRun",
                             held: ExitStack) -> None:
        """Cold path: scan, distribute, then stream tasks to the pool.

        One grant for all in-memory tiles, drawn down first come first
        served by every partition (a per-partition split would spill
        hot partitions while cold ones waste their share).  Requested
        at the scan size and extended on demand while the budget has
        free bytes (boundary replication makes the true footprint
        unknowable up front), so tiles spill only when the budget is
        genuinely exhausted — and cached artifacts are evicted first:
        execution memory outranks cached artifacts.
        """
        want = sum(e.stream.data_bytes for e in run.inputs)
        allowance = None
        if self.budget is not None:
            self.artifacts.make_room(want)
            grant = self._acquire_tiles(run, want,
                                        run.n_parts * RECT_BYTES, held)
            allowance = TileAllowance(grant.bytes, grant=grant)
        parts_a, parts_b = self._scan_into_partitions(run, allowance, held)
        tiles = self._materialize_and_ship(run, parts_a, parts_b)
        # Retain the distribution for warm repeats — memory-resident
        # runs only (a spilled distribution exists precisely because
        # the budget could not hold it) — as one column image a side.
        # put() takes bytes from the budget's free pool and evicts LRU
        # artifacts, never live grants.
        if tiles and run.spilled_rects == 0:
            self.artifacts.retain(run.ident, DistributionImage(
                (
                    i,
                    a if isinstance(a, ColumnarTile)
                    else ColumnarTile.from_rects(a),
                    b if b is None or isinstance(b, ColumnarTile)
                    else ColumnarTile.from_rects(b),
                )
                for i, a, b in tiles
            ))

    def _scan_into_partitions(self, run: "_PartitionedRun", allowance,
                              held: ExitStack):
        """Each input scanned once into its spillable tile partitions
        (a self-join's single input serves both sides); distribute ops
        and the write side of the spill are charged here, once."""
        env = self.disk.env
        sides = []
        for entry, side in zip(run.inputs, "ab"):
            parts = [
                SpillablePartition(self.disk, f"tiles.{side}{i}",
                                   allowance=allowance)
                for i in range(run.n_parts)
            ]
            held.callback(_free_partitions, parts)
            sides.append((entry, parts))
        ops = scanned = 0
        distribute_kernel = self.kernel
        for entry, parts in sides:
            side_ops = None
            if distribute_kernel == "numpy":
                side_ops = _distribute_columnar(
                    entry, parts, run.grid, run.query.window, allowance
                )
            if side_ops is None:
                distribute_kernel = "python"
                side_ops = distribute(entry.stream, parts, run.grid,
                                      run.query.window)
            ops += side_ops
            scanned += len(entry.stream)
        env.charge("partition", ops)
        # One op per scanned rectangle, one per copy placed.
        run.distribute_attrs = {"kernel": distribute_kernel,
                                "copies": ops - scanned}
        all_parts = [p for _, parts in sides for p in parts]
        run.spilled_rects = sum(p.spilled_rects for p in all_parts)
        run.spill_partitions = sum(1 for p in all_parts if p.spilled)
        # The write side of the spill, one op per record; the streams
        # charged the block I/O as they flushed.
        env.charge("spill", run.spilled_rects)
        return sides[0][1], sides[-1][1]

    def _materialize_and_ship(self, run: "_PartitionedRun",
                              parts_a: List[SpillablePartition],
                              parts_b: List[SpillablePartition],
                              ) -> List[tuple]:
        """Every partition that joins, materialized and handed to the
        shipper the moment it is ready, so worker sweeps overlap the
        materialization of later partitions.  Returns the tiles worth
        retaining (none when the artifact cache is off).

        Partitions materialize on this thread: spill re-reads hit the
        shared simulated disk, whose counters are not thread-safe.
        Only partitions that actually join are re-read, and their
        spilled bytes are charged back to the grant: the sweep phase
        holds them resident again, and the high-water mark must say so
        rather than pretend the spill kept it flat.  A self-join
        partition is materialized once and swept against itself —
        re-reading its spill stream twice would double-charge the
        one-write-one-reread model the optimizer priced.
        """
        self_join = run.self_join
        ship = self.worker_pool.kind == "process"
        will_cache = self.artifacts.enabled
        tiles: List[tuple] = []
        reread_rects = 0
        for i in range(run.n_parts):
            if not (len(parts_a[i]) and len(parts_b[i])):
                continue
            active = (
                (parts_a[i],) if self_join else (parts_a[i], parts_b[i])
            )
            reread_rects += sum(p.spilled_rects for p in active)
            size = len(parts_a[i]) + len(parts_b[i])
            if ship or any(p.packed is not None for p in active):
                # Columnar from the start: the same flat tiles serve
                # the pickle boundary, the batch queue and the artifact
                # cache (even a small tile may cross the process
                # boundary, as part of a batch).
                side_a = parts_a[i].materialize_columnar()
                side_b = (
                    None if self_join
                    else parts_b[i].materialize_columnar()
                )
            else:
                side_a = parts_a[i].materialize()
                side_b = None if self_join else parts_b[i].materialize()
            run.ship(i, side_a, side_b, size)
            if will_cache:
                tiles.append((i, side_a, side_b))
        run.shipper.flush()
        self.disk.env.charge("spill", reread_rects)
        if run.grant is not None:
            run.grant.charge(reread_rects * RECT_BYTES)
        return tiles

    def _gather(self, submitted: List[tuple],
                cancel: Optional[Callable[[], None]] = None
                ) -> List[tuple]:
        """Stage 4: every task's outcome, in submission order."""
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

    def _account(self, run: "_PartitionedRun",
                 outcomes: List["TaskOutcome"],
                 task_dicts: Optional[List[dict]], pairs,
                 sweep_span: Optional[Span]) -> JoinResult:
        """Stage 5: ops charged once, the simulated critical path, the
        plan memo, the ``sweep`` span and the result record."""
        plan, shipper = run.plan, run.shipper
        submitted = shipper.submitted
        n_pairs = total_ops = duplicates = inline_ops = 0
        shipped_ops: List[int] = []
        for (_fut, shipped, _size, _tiles), outcome in zip(
            submitted, outcomes
        ):
            count, _pairs, task_ops, dups = outcome
            n_pairs += count
            total_ops += task_ops
            duplicates += dups
            if shipped:
                shipped_ops.append(task_ops)
            else:
                inline_ops += task_ops
        self.disk.env.charge("sweep", total_ops)
        exact, *full = run.ident.candidates
        self._note_plan_ops(exact.key, total_ops)
        for cand in full:
            # Written second, so the bound a new window inherits is
            # never the entry its own write evicts.
            self._note_plan_ops(
                cand.key, max(self._plan_ops.get(cand.key, 0), total_ops)
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
        spo = self.machine.cpu.seconds_per_op
        if sweep_span is not None:
            # The span's simulated CPU is the *parallel-phase* duration
            # (critical path x seconds/op); its wall is the aggregate
            # worker busy time (tasks overlap — elapsed coordinator
            # time is on the gather span).
            _adopt_task_spans(sweep_span, submitted, task_dicts, spo)
            sweep_span.cpu_ops = total_ops
            sweep_span.sim_cpu_seconds = critical * spo
            sweep_span.attrs.update({
                "ops_total": total_ops,
                "ops_critical": critical,
                "workers": plan.workers,
                "tasks": len(submitted),
                "kernel": self.kernel,
                "shm_tasks": shipper.shm_tasks,
            })
        return JoinResult(
            algorithm="PBSM-grid",
            n_pairs=n_pairs,
            pairs=pairs,
            max_memory_bytes=max(
                (size * RECT_BYTES for _, _, size, _ in submitted),
                default=0,
            ),
            detail={
                "strategy": "pbsm-grid",
                "estimated_io_seconds": plan.estimate.io_seconds,
                "workers": plan.workers,
                "partitions": run.n_parts,
                "active_partitions": sum(
                    tiles for _, _, _, tiles in submitted
                ),
                "tiles_per_side": run.ident.tiles,
                "sweep_ops_total": total_ops,
                "sweep_ops_critical": critical,
                "parallel_cpu_seconds_saved": (total_ops - critical) * spo,
                "duplicates_eliminated": duplicates,
                "self_join": run.self_join,
                "tile_grant_bytes": run.grant.bytes if run.grant else 0,
                "spilled_rects": run.spilled_rects,
                "spilled_bytes": run.spilled_rects * RECT_BYTES,
                "spill_partitions": run.spill_partitions,
                "artifact_hit": run.artifact_hit,
                "pool_kind": self.worker_pool.kind,
                "kernel": self.kernel,
                "tasks_shipped": sum(
                    1 for _, shipped, _, _ in submitted if shipped
                ),
                "tile_batches": shipper.batches,
                "batched_tiles": shipper.batched_tiles,
                "shm_tasks": shipper.shm_tasks,
                "inlined_by_cost": run.inline_all,
            },
        )

    def _note_plan_ops(self, key: tuple, ops: int) -> None:
        """Remember a plan's measured sweep cost, most recent last."""
        memo = self._plan_ops
        memo[key] = ops
        memo.move_to_end(key)
        while len(memo) > PLAN_MEMO_ENTRIES:
            memo.popitem(last=False)


# -- helpers -----------------------------------------------------------------


class _PartitionedRun:
    """What the stages of one partitioned query hand each other."""

    def __init__(self, plan: PhysicalPlan, entries: List[CatalogEntry],
                 ident: ArtifactIdentity, n_parts: int,
                 shipper: "_TaskShipper", inline_all: bool,
                 kernel: str) -> None:
        self.plan = plan
        self.query = plan.query
        self.self_join = plan.query.is_self_join
        self.collect = plan.query.collect_pairs
        #: The relations distributed: a self-join's one input serves
        #: both sides.
        self.inputs = entries[:1] if self.self_join else entries
        self.kernel = kernel
        self.ident = ident
        self.n_parts = n_parts
        self.shipper = shipper
        self.inline_all = inline_all
        # Filled by the produce stage.
        self.grant = None
        self.artifact_hit = False
        self.spilled_rects = self.spill_partitions = 0
        # Which distribute ran (None: tiles came from the artifact
        # layer) and how many tile copies it placed, replication
        # included.
        self.distribute_attrs: Dict[str, object] = {
            "kernel": None, "copies": 0,
        }
        self.sweep_on(ident.candidates[0])

    def sweep_on(self, cand: Candidate) -> None:
        """Cut and sweep on ``cand``'s grid: the plan's own, or — a
        windowed plan reusing the full distribution — the full one,
        whose tiles the produce stage prunes to the window before any
        is shipped (:meth:`Executor._ship_cached`)."""
        uni = cand.universe
        self.grid = TileGrid(uni, self.ident.tiles, self.n_parts)
        self.grid_spec = (uni.xlo, uni.xhi, uni.ylo, uni.yhi,
                          self.ident.tiles, self.n_parts)

    def ship(self, part_id: int, side_a, side_b, size: int) -> None:
        """One tile to the shipper, as a self-contained payload (slot
        6 is always ``None``: tiles arrive pruned)."""
        self.shipper.add(
            (part_id, self.grid_spec, side_a, side_b, self.self_join,
             self.collect, None, self.kernel),
            size,
        )


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
    grid, the self-join and collect flags, the kernel and the cancel
    token — which is checked once, before the call: a group is the
    unit a deadline can stop.  ``None`` hands the tiles to the python
    body: the payloads name the python kernel, this process cannot
    import numpy, or the kernel declined the input (then for the whole
    group; the caller retries tile by tile).  Every task entry point
    passes here first, so this is where a payload that still carries
    a window (slot 6) is refused: tiles are pruned before they ship.
    """
    if any(p[6] is not None for p in payloads):
        raise ValueError(
            "tile payloads carry no window (slot 6 must be None): "
            "a windowed query's tiles are pruned before they ship"
        )
    first = payloads[0]
    if len(first) <= 7 or first[7] != "numpy":
        return None
    mod = _np_sweep()
    if mod is None:
        return None
    _check_cancel(first)
    _, grid_spec, _, _, self_join, collect = first[:6]
    out = mod.sweep_tiles(
        [(p[0], _resolved(p[2]), _resolved(p[3])) for p in payloads],
        self_join, grid_spec, collect,
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
    The seventh element is always ``None`` (a windowed query's tiles
    were pruned before they shipped; anything else raises
    ``ValueError``).  The payload's optional eighth element names the
    sweep kernel
    (``"python"`` when absent — old payloads stay valid); the optional
    ninth is the query's :class:`~repro.engine.pool.CancelToken`,
    checked before the sweep so a deadline-doomed task stops at the
    tile boundary instead of finishing a pointless sweep.

    Under the numpy kernel a solo tile is a group of one
    (:func:`_sweep_group`): the whole task runs vectorized.  The body
    below is the python kernel and the reference — ``kernel="python"``
    engines, workers without numpy, and any tile the vectorized kernel
    declines land here, with bit-identical results.  It decodes the
    tile, runs the forward sweep that collects its pairs in a list
    (which sorts), then applies reference-point ownership and
    self-join dedup in one tight loop over that list, so no Python
    callback fires per candidate pair.  For self-joins the sweep emits
    every pair in both orientations plus each rectangle against
    itself, and the filter keeps exactly the ``rid_a < rid_b``
    representative.

    Returns ``(owned pair count, owned pairs or None, cpu ops,
    duplicates suppressed by the reference-point test and self-join
    dedup)`` — op counts bit-identical to the per-pair-callback path.
    """
    out = _sweep_group((payload,))
    if out is not None:
        return out
    part_id, grid_spec, side_a, side_b, self_join, collect = payload[:6]
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


def _free_partitions(parts: List[SpillablePartition]) -> None:
    for part in parts:
        part.free()


def _adopt_task_spans(sweep_span: Span, submitted: List[tuple],
                      task_dicts: List[dict], seconds_per_op: float,
                      ) -> None:
    """Graft the worker-side spans — recorded inside the pool tasks
    and shipped back with the results — under the one sweep span,
    each with the rectangles its tiles held (both sides, as the
    shipper sized the task), so a trace tells a big task from a slow
    one."""
    for (_f, shipped, size, _tiles), tdict in zip(submitted, task_dicts):
        tspan = Span.from_task(tdict, seconds_per_op)
        tspan.attrs["shipped"] = shipped
        tspan.attrs["rects"] = size
        sweep_span.adopt(tspan)
    sweep_span.wall_seconds = sum(
        c.wall_seconds for c in sweep_span.children
    )


def _distribute_columnar(entry: CatalogEntry,
                         parts: List[SpillablePartition], grid: TileGrid,
                         window: Optional[Rect],
                         allowance: Optional[TileAllowance],
                         ) -> Optional[int]:
    """:func:`~repro.core.pbsm.distribute` from the entry's column
    image.

    The numpy kernel decides where every copy goes; this step places
    them.  The allowance is drawn in bulk, the copies it covers are
    packed per partition straight from the image, and the rest are
    spilled as image rows while the base stream's blocks are read —
    each block once, with the spill writes of the copies it holds
    between the same two reads as in the python loop
    (:func:`_spill_run`) — so tiles, op charges, grant size and the
    simulated disk's ledger all match the python distribute, and no
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


def _prune_window(cached: DistributionImage, window: Rect,
                  kernel: str = "python") -> List[tuple]:
    """A cached distribution's tasks cut down to ``window``.

    Every tile side keeps its rectangles that meet the window, in
    order.  A task left empty on both sides is dropped (its sweep
    would charge nothing); one empty on a single side is kept, because
    sweeping the other side still charges its sort and inserts.
    ``kernel="numpy"`` masks each side's column image in one pass and
    cuts the survivors, still grouped, into per-partition views
    (:func:`~repro.core.kernels.np_distribute.prune_image`); the python
    body, one ``intersects`` test a decoded rectangle, is the
    reference.
    """
    if kernel == "numpy":
        from repro.core.kernels import np_distribute

        sides = [np_distribute.prune_image(image, window).tiles
                 for image in cached.images]
    else:
        sides = [
            [[r for r in tile.decode() if r.intersects(window)]
             for tile in image.tiles]
            for image in cached.images
        ]
    return [
        (part, a, b) for part, a, b in cached.cut(sides)
        if len(a) or (b is not None and len(b))
    ]


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
