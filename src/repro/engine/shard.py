"""Scatter/gather serving over a sharded catalog.

One :class:`~repro.engine.engine.SpatialQueryEngine` owns one catalog,
one budget and one simulated disk — the single-box deployment.
:class:`ShardedEngine` is the next tier: each registered relation is
partitioned across N engine shards by **spatial region**, every shard
runs the full catalog → optimizer → executor stack over its slice, and
one shared :class:`~repro.engine.pool.WorkerPool` serves all of their
partitioned sweeps (each engine holds a counting
:class:`~repro.engine.pool.PoolClient`, so per-shard dispatch stays
attributable; the sharded engine created the pool, so it alone stops
it).

**Sharding rule.**  The first registered relation fixes N-1 vertical
cut lines, placed so the relation's spatial histogram mass splits
evenly (the same histogram the optimizer already trusts for
selectivity).  Shard k owns the half-open strip ``[cut k-1, cut k)``
(the outer strips extend to ±infinity, so later relations can never
fall outside every shard); a rectangle is registered with **every**
shard whose closed strip it touches.  This boundary replication is
what makes scatter/gather exact without a dedup:

* every pair a shard reports is genuine — both rectangles are real,
  the shard's engine checked the real intersection/window/refinement
  predicates — so the gathered union never over-reports;
* every genuine result pair has a reference point, PBSM's
  duplicate-elimination point: x is the largest low x of its
  rectangles (for a windowed query, clipped up to the window's low
  x), a corner of the common intersection (of ``intersection ∩
  window``).  That x lies in exactly one half-open strip, and the
  shard owning it holds *every* rectangle of the pair via
  replication (each has ``xlo <= x <= xhi``), so that shard finds the
  pair; ``plan_shards`` never prunes it, because the window reaches
  its strip at x.  The argument extends verbatim to multiway tuples,
  whose results have a common N-way intersection.

So each shard keeps only the results whose reference x lies in its
own strip (the engine's ``executor.strip``, set when the first
``register`` fixes the cuts) and the shards' answers are disjoint:
:func:`gather_pairs` concatenates them in shard order, and a count-only
gather is a sum.  A pair straddling a cut is still *found* by up to
two shards; what the strip test dropped is counted per shard and
summed into ``cross_shard_duplicates``.  The test runs where the
reference point is already computed — in the window filter, or in the
tile kernels next to PBSM's own partition test — and only the other
answers (an unwindowed ``pq-index`` or multiway plan, or a refined
one) take a post-filter that looks their ids up again.

**Scatter planning.**  A query touches only the shards that (a) hold
data for every referenced relation and (b) — for windowed queries —
own a strip the window intersects, decided with the optimizer's own
:func:`~repro.engine.optimizer.effective_region` predicate so the
scatter layer and the per-shard planner agree on window semantics.
Pruned shards cost nothing, which is the localized-query win sharding
exists for.

**Isolation.**  Each shard keeps its own
:class:`~repro.engine.resources.ResourceBudget` slice (an explicit
``memory_bytes`` is divided evenly; the default gives every shard the
scaled paper budget), its own :class:`~repro.engine.cache.ArtifactCache`
(version-bump invalidation stays per-shard — re-registering a relation
invalidates every shard holding it, but never a *sibling engine's*
unrelated artifacts) and its own metrics.  The deployment is read
through one path, :meth:`ShardedEngine.metrics_snapshot`, which merges
every replica engine's snapshot with
:func:`~repro.engine.metrics.merge_snapshots` and lays the scatter's
own :class:`~repro.engine.metrics.EngineMetrics` serving keys over it
(one logical query is one serve, however many shards it scattered to).

**Serving.**  ``execute`` is a pipeline of four stages: *lookup* (the
top-level result cache), *scatter* (participating shards run
concurrently, each with replica failover), *gather* (the disjoint
answers concatenated into one result) and *account* (the serving
ledger, the LPT critical path, the trace and the cache fill).
Concurrent callers share the coordinator state under one short lock;
each replica engine serializes its own sub-queries, so two queries
overlap wherever they land on different replicas.

**Availability.**  ``replicas=R`` backs every strip with R identical
engines (same slice, same budget — replicas model separate boxes) on
the one shared pool.  Replicas are availability, not read scaling:
scatter tries a shard's healthy replicas in fixed index order, so the
primary serves everything while it is up (one warm artifact cache, one
reproducible replica sequence).  A replica whose sub-query raises is
marked unhealthy, the failure is recorded (counters + a ``failover``
trace span) and the sub-query retried with exponential backoff on the
next candidate — the logical query only fails when *every* replica of
a participating shard does.  Unhealthy replicas are re-probed every
``PROBE_EVERY``-th selection and recover after consecutive successes.
Semantic errors (:class:`~repro.engine.resources.AdmissionError`,
unknown relations) are deterministic across replicas and re-raise
immediately — failing over would just repeat them R times.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.columnar import PairColumns
from repro.core.histogram import DEFAULT_GRID, SpatialHistogram
from repro.core.join_result import JoinResult
from repro.engine.catalog import GeometryMap, check_rects
from repro.engine.engine import (
    EngineResult,
    SpatialQueryEngine,
    _copy_result,
    _ServeShell,
    cacheable,
    flatten_result_cache_keys,
)
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.metrics import (
    SERVING_KEYS,
    EngineMetrics,
    merge_snapshots,
)
from repro.engine.optimizer import effective_region
from repro.engine.pool import DeadlineExceeded, WorkerPool
from repro.engine.query import Query
from repro.engine.resources import AdmissionError
from repro.engine.trace import SPAN_METRIC_FIELDS, Span
from repro.geom.rect import Rect, mbr_of
from repro.sim.machines import MACHINE_3, MachineSpec
from repro.sim.scale import DEFAULT_SCALE, ScaleConfig


def balanced_cuts(rects: Sequence[Rect], universe: Rect, shards: int,
                  grid: int) -> List[float]:
    """N-1 vertical cut lines splitting histogram mass evenly.

    Built from the same grid histogram the optimizer uses for
    selectivity: column masses (rectangle centers per column) are
    accumulated left to right and a cut dropped each time another
    1/N of the total mass has passed.  Degenerate data (all mass in
    one column) collapses cuts together, which just leaves the excess
    shards empty — correct, merely idle.
    """
    hist = SpatialHistogram.build(rects, universe, grid=grid)
    col_mass = [
        sum(hist.counts[row * grid + col] for row in range(grid))
        for col in range(grid)
    ]
    total = sum(col_mass)
    cuts: List[float] = []
    acc = 0
    col = 0
    for k in range(1, shards):
        target = total * k / shards
        while col < grid and acc < target:
            acc += col_mass[col]
            col += 1
        cuts.append(universe.xlo + col * hist.cell_w)
    return cuts


#: Every this-many replica selections for a shard with unhealthy
#: replicas, the sick ones are tried *first* — the recovery probe that
#: lets a healed replica earn its health score back.
PROBE_EVERY = 8

#: Health scores below this are "unhealthy": skipped by normal
#: selection, visited only by recovery probes (or when nothing
#: healthier is left).
HEALTH_FLOOR = 0.5

#: Base of the exponential backoff slept between failover attempts
#: (doubling per attempt), and its cap.
RETRY_BACKOFF_SECONDS = 0.01
MAX_BACKOFF_SECONDS = 0.25

#: Most coordinator threads one scatter fan-out will use; the real
#: bound is min(participating shards, this, pool workers are shared
#: anyway so more buys nothing).
MAX_SCATTER_THREADS = 8


def lpt_makespan(walls: Sequence[float], lanes: int) -> float:
    """Makespan of ``walls`` LPT-scheduled onto ``lanes`` lanes.

    The scatter critical path: participating shards run *concurrently*
    on one shared worker pool, so the simulated cost of a scattered
    query is not the sum of its shard walls but the makespan of the
    best greedy (longest-processing-time-first) placement onto the
    pool's parallel lanes.  One lane degenerates to the sum; at least
    as many lanes as shards degenerates to the max.
    """
    if not walls:
        return 0.0
    lanes = max(1, int(lanes))
    if lanes == 1:
        return float(sum(walls))
    loads = [0.0] * min(lanes, len(walls))
    for w in sorted(walls, reverse=True):
        # loads[0] is the least-loaded lane (min-heap invariant).
        heapq.heapreplace(loads, loads[0] + float(w))
    return max(loads)


def gather_pairs(results: Sequence[JoinResult], arity: int,
                 collect: bool):
    """Shard sub-results merged: ``(columns or None, how many)``.

    Each shard kept only the results it owns, so the sub-results are
    disjoint: the count is their sum, and a collected gather is their
    tuples back to back, in the order of ``results`` (shard order) and
    each shard's own order inside, as one
    :class:`~repro.core.columnar.PairColumns` — ``None`` for a
    count-only query, whose shards collected nothing.  Collected
    sub-results may mix lists (a multiway or refined answer, an empty
    plan's) and columns; the lists convert on the way in.
    """
    n_pairs = sum(r.n_pairs for r in results)
    if not collect:
        return None, n_pairs
    return PairColumns.concat([r.pairs for r in results], arity), n_pairs


class _ShardOutcome(NamedTuple):
    """One participating shard's sub-query as the scatter returns it:
    the replica that served it, after how many attempts, and the
    failed attempts as plain events (turned into ``failover`` spans in
    shard order once every shard is back, so the trace shape stays
    deterministic while shards run concurrently)."""

    shard: int
    out: EngineResult
    replica: int
    attempts: int
    failures: List[Dict[str, object]]


class ShardedEngine(_ServeShell):
    """N engine shards, one shared worker pool, exact scatter/gather.

    ``execute`` takes concurrent callers: the coordinator state they
    share (replica health, the serving ledger, the result cache and the
    relation versions its keys carry) is guarded by one lock never held
    across a shard's execution, and every replica engine serializes its
    own sub-queries.
    """

    _TRACE_ENGINE = "sharded"

    def __init__(
        self,
        shards: int = 2,
        scale: ScaleConfig = DEFAULT_SCALE,
        machine: MachineSpec = MACHINE_3,
        workers: int = 1,
        cache_capacity: int = 64,
        memory_bytes: Optional[int] = None,
        pool_kind: str = "process",
        artifact_cache_bytes: Optional[int] = None,
        trace: bool = False,
        replicas: int = 1,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.shards = max(1, shards)
        self.replicas = max(1, replicas)
        self.scale = scale
        self.machine = machine
        self.faults = faults
        #: One pool for every shard and replica, stopped by
        #: :meth:`close`; each engine below holds a counting client.
        self.pool = WorkerPool(max(1, workers), kind=pool_kind,
                               faults=faults)
        # Shard engines run with no result cache (verbatim repeats hit
        # the scatter-level one before any shard is touched, so theirs
        # would store the same answers twice) but their own artifact
        # caches (those serve *overlapping* queries).  They trace —
        # their span trees become shard subtrees of the scatter trace —
        # but keep no slow logs: slowness is a scatter-level property.
        replica = dict(
            scale=scale, machine=machine, workers=workers,
            cache_capacity=0, artifact_cache_bytes=artifact_cache_bytes,
            memory_bytes=(None if memory_bytes is None
                          else max(1, memory_bytes // self.shards)),
            worker_pool=self.pool, trace=trace,
            slow_log_capacity=0,
        )
        self._replica_engines: List[List[SpatialQueryEngine]] = [
            [SpatialQueryEngine(**replica) for _ in range(self.replicas)]
            for _ in range(self.shards)
        ]
        #: Back-compat view: shard k's *primary* replica, the engine
        #: pre-replica callers indexed as ``engines[k]``.
        self.engines = [group[0] for group in self._replica_engines]
        #: Health score per (shard, replica) in [0, 1]: 1.0 healthy,
        #: zeroed on failure, earned back in 0.5 steps by successful
        #: probes (below HEALTH_FLOOR a replica is only probed).
        self._health: List[List[float]] = [
            [1.0] * self.replicas for _ in range(self.shards)
        ]
        self._probe_tick = [0] * self.shards
        #: Guards what concurrent scatters share (replica health, the
        #: ledger and counters below, the result cache); never held
        #: across a shard engine's execution.
        self._lock = threading.Lock()
        #: Scatter threads, created on the first multi-shard query.
        self._scatter_threads = min(self.shards, MAX_SCATTER_THREADS)
        self._scatter_pool: Optional[ThreadPoolExecutor] = None
        self._cuts: Optional[List[float]] = None
        self._versions: Dict[str, int] = {}
        self._next_version = 1
        self._present: Dict[str, List[bool]] = {}
        self._universes: Dict[str, Rect] = {}
        #: The serving ledger: one logical query is one serve, one
        #: latency sample and one LPT critical path, and failovers
        #: happen only here; shard engines keep the physical counters.
        self._metrics = EngineMetrics()
        #: Pairs the shards left to their owners, shards the scatter
        #: skipped, and unhealthy replicas that earned their health back
        #: via probes.
        self.duplicates_eliminated = 0
        self.shards_pruned_total = 0
        self.replica_recoveries = 0
        #: Per-relation boundary-replica counts (extra copies beyond
        #: one per rectangle); re-registration replaces an entry and
        #: drop removes it, so the gauge tracks the *current* catalog.
        self._replica_counts: Dict[str, int] = {}
        self._init_serve_shell(cache_capacity, trace)

    @property
    def boundary_replicas(self) -> int:
        """Extra rectangle copies currently held due to replication."""
        return sum(self._replica_counts.values())

    @property
    def all_engines(self) -> List[SpatialQueryEngine]:
        """Every engine — all replicas of all shards."""
        return [e for group in self._replica_engines for e in group]

    @property
    def unhealthy_replicas(self) -> int:
        return sum(
            1 for row in self._health for h in row if h < HEALTH_FLOOR
        )

    def replica_health(self) -> List[List[float]]:
        """Health scores, ``[shard][replica]`` (copies; a gauge)."""
        return [list(row) for row in self._health]

    # -- sharding geometry ------------------------------------------------

    def strip_of(self, shard: int) -> Tuple[float, float]:
        """Shard ``shard``'s x-interval (outer strips are unbounded)."""
        if not 0 <= shard < self.shards:
            raise IndexError(
                f"shard {shard} out of range for {self.shards} shards"
            )
        if self._cuts is None and self.shards > 1:
            raise RuntimeError(
                "shard strips are fixed by the first register(); "
                "no relation is registered yet"
            )
        cuts = self._cuts or []
        lo = cuts[shard - 1] if shard > 0 else float("-inf")
        hi = cuts[shard] if shard < len(cuts) else float("inf")
        return lo, hi

    def _strip_rect(self, shard: int) -> Rect:
        lo, hi = self.strip_of(shard)
        return Rect(lo, hi, float("-inf"), float("inf"), shard)

    # -- catalog management -----------------------------------------------

    def register(
        self,
        name: str,
        rects: Sequence[Rect],
        universe: Optional[Rect] = None,
        geometries: Optional[GeometryMap] = None,
    ) -> None:
        """(Re-)register a relation, replicated across strip boundaries.

        The first registration fixes the cut lines from this
        relation's histogram; later relations are sliced along the
        same cuts so every relation's shard k covers the same strip
        (joins must align).  Shards whose slice is empty simply do not
        hold the relation and are pruned from its queries.  What
        :func:`~repro.engine.catalog.check_rects` refuses changes nothing:
        not the cuts, not a shard.
        """
        rect_list = list(rects)
        if not rect_list:
            raise ValueError(f"relation {name!r} has no rectangles")
        check_rects(name, rect_list, universe)
        uni = universe if universe is not None else mbr_of(rect_list)
        if self._cuts is None:
            self._cuts = balanced_cuts(
                rect_list, uni, self.shards, DEFAULT_GRID
            )
            if self.shards > 1:
                # From now on each shard keeps only what it owns.
                for k, group in enumerate(self._replica_engines):
                    for engine in group:
                        engine.executor.strip = self.strip_of(k)
        was_present = self._present.get(name, [False] * self.shards)
        present = [False] * self.shards
        replicas = -len(rect_list)
        for k, group in enumerate(self._replica_engines):
            lo, hi = self.strip_of(k)
            subset = [r for r in rect_list if r.xhi >= lo and r.xlo <= hi]
            # Boundary-replica accounting counts strips, not engine
            # replicas: R copies of one strip are availability, not
            # extra boundary replication.
            replicas += len(subset)
            if subset:
                sub_geoms = (
                    {r.rid: geometries[r.rid] for r in subset
                     if r.rid in geometries}
                    if geometries is not None else None
                )
                for engine in group:
                    engine.register(name, subset, universe=uni,
                                    geometries=sub_geoms)
                present[k] = True
            elif was_present[k]:
                for engine in group:
                    engine.drop(name)
        self._replica_counts[name] = replicas
        self._present[name] = present
        self._universes[name] = uni
        with self._lock:
            self._versions[name] = self._next_version
            self._next_version += 1
            self.cache.invalidate_relation(name)

    def drop(self, name: str) -> None:
        self._check_known(name)
        for k, group in enumerate(self._replica_engines):
            if self._present[name][k]:
                for engine in group:
                    engine.drop(name)
        del self._present[name]
        del self._universes[name]
        del self._replica_counts[name]
        with self._lock:
            del self._versions[name]
            self.cache.invalidate_relation(name)

    def universe_of(self, name: str) -> Rect:
        self._check_known(name)
        return self._universes[name]

    def names(self) -> List[str]:
        return sorted(self._versions)

    def prepare(self, *names: str) -> None:
        """Force-build every replica's streams/indexes/histograms now."""
        names = names or tuple(self.names())
        for name in names:
            self._check_known(name)
        # One call per engine: it builds what depends on every index
        # (the leaf columns) once all of them are written.
        for k, group in enumerate(self._replica_engines):
            present = [n for n in names if self._present[n][k]]
            if present:
                for engine in group:
                    engine.prepare(*present)

    def _check_known(self, name: str) -> None:
        if name not in self._versions:
            known = ", ".join(self.names()) or "<empty catalog>"
            raise KeyError(
                f"unknown relation {name!r}; registered: {known}"
            )

    # -- scatter planning -------------------------------------------------

    def plan_shards(self, query: Query) -> Tuple[List[int], List[int]]:
        """(participating, pruned) shard ids for one query.

        A shard participates only when it holds data for every
        referenced relation and, for windowed queries, when the window
        reaches its strip.  Pruning is sound because every result
        pair/tuple is also reported by the shard owning its reference
        point, which is never pruned (the reference point lies in the
        window's effective region and inside every referenced
        rectangle).
        """
        rels = set(query.relations)
        for name in rels:
            self._check_known(name)
        participating: List[int] = []
        pruned: List[int] = []
        for k in range(self.shards):
            if not all(self._present[n][k] for n in rels):
                pruned.append(k)
                continue
            if query.window is not None and effective_region(
                self._strip_rect(k), query.window
            ) is None:
                pruned.append(k)
                continue
            participating.append(k)
        return participating, pruned

    # -- replica selection / failover -------------------------------------

    def _replica_order(self, k: int) -> List[int]:
        """Candidate replicas for shard ``k``, best try first.

        Healthy replicas in fixed index order — the primary serves
        while it is up, so one replica's caches stay warm and a serial
        replay always picks the same sequence.  Unhealthy replicas are
        appended as a last resort — a query is never failed while an
        untried replica remains — and every ``PROBE_EVERY``-th
        selection they are tried *first*, which is how a healed replica
        gets traffic to earn its score back.  Called under
        ``self._lock``.
        """
        health = self._health[k]
        healthy = [r for r in range(self.replicas)
                   if health[r] >= HEALTH_FLOOR]
        sick = [r for r in range(self.replicas)
                if health[r] < HEALTH_FLOOR]
        if not sick:
            return healthy
        self._probe_tick[k] += 1
        if self._probe_tick[k] % PROBE_EVERY == 0:
            return sick + healthy
        return healthy + sick

    def _mark_failure(self, k: int, r: int) -> None:
        with self._lock:
            self._health[k][r] = 0.0
            self._metrics.replica_failures += 1

    def _mark_success(self, k: int, r: int) -> None:
        with self._lock:
            before = self._health[k][r]
            self._health[k][r] = min(1.0, before + HEALTH_FLOOR)
            if before < HEALTH_FLOOR <= self._health[k][r]:
                self.replica_recoveries += 1

    def _execute_on_shard(self, k: int, sub: Query, analyze: bool,
                          cancel: Optional[Callable[[], None]] = None,
                          ) -> _ShardOutcome:
        """One shard's sub-query with replica failover.

        Semantic errors — admission rejections, unknown relations —
        are deterministic across replicas and re-raise immediately, as
        does deadline cancellation (a cancelled query must not burn
        every replica chasing a result nobody is waiting for);
        anything else marks the replica unhealthy, records the
        degradation and retries the next candidate after an
        exponential backoff.  Only when every replica has failed does
        the query see an error.
        """
        with self._lock:
            order = self._replica_order(k)
        failures: List[Dict[str, object]] = []
        last_exc: Optional[BaseException] = None
        for attempt, r in enumerate(order):
            engine = self._replica_engines[k][r]
            if attempt > 0:
                with self._lock:
                    self._metrics.retries += 1
                time.sleep(min(
                    MAX_BACKOFF_SECONDS,
                    RETRY_BACKOFF_SECONDS * (2 ** (attempt - 1)),
                ))
            try:
                if self.faults is not None:
                    rule = self.faults.fire(
                        "shard.execute", shard=k, replica=r,
                    )
                    if rule is not None:
                        if rule.kind == "slow":
                            time.sleep(rule.delay_seconds)
                        else:
                            raise InjectedFault(
                                f"injected replica failure "
                                f"(shard {k} replica {r})"
                            )
                out = engine.execute(sub, analyze=analyze, cancel=cancel)
            except (AdmissionError, KeyError, DeadlineExceeded):
                raise
            except Exception as exc:
                last_exc = exc
                self._mark_failure(k, r)
                failures.append({
                    "shard": k, "replica": r,
                    "error": type(exc).__name__, "attempt": attempt,
                })
                continue
            self._mark_success(k, r)
            return _ShardOutcome(k, out, r, attempt + 1, failures)
        assert last_exc is not None
        raise last_exc

    # -- serving ----------------------------------------------------------

    @property
    def scatter_lanes(self) -> int:
        """Parallel lanes the sim critical path is scheduled onto.

        The shards share one worker pool, so a scatter can overlap at
        most ``min(coordinator scatter threads, pool workers)``
        sub-queries' worth of simulated hardware.  One lane makes
        :func:`lpt_makespan` degenerate to the old sum — a one-worker
        deployment really does serve shards back to back.
        """
        return max(1, min(self._scatter_threads, self.pool.workers))

    def _scatter_executor(self) -> Optional[ThreadPoolExecutor]:
        if self._scatter_threads <= 1:
            return None
        with self._lock:
            if self._scatter_pool is None:
                self._scatter_pool = ThreadPoolExecutor(
                    max_workers=self._scatter_threads,
                    thread_name_prefix="scatter",
                )
            return self._scatter_pool

    def execute(self, query: Query, analyze: bool = False,
                cancel: Optional[Callable[[], None]] = None,
                ) -> EngineResult:
        """Serve one logical query: lookup -> scatter -> gather -> account.

        ``cancel`` is a cooperative cancellation checkpoint — called on
        entry, before each shard dispatch and at gather, and forwarded
        into every replica engine, whose partitioned executor re-checks
        it per gathered pool task (a
        :class:`~repro.engine.pool.CancelToken` additionally rides
        inside worker payloads for tile-boundary checks); raising from
        it (e.g. :class:`~repro.engine.serve.DeadlineExceeded`)
        abandons the query without corrupting any shared state.
        """
        t_start = time.perf_counter()
        if cancel is not None:
            cancel()
        with self._lock:
            key, hit = self._lookup_locked(query, t_start, count_miss=True)
        if hit is not None:
            return hit
        trace = self._query_span(query)
        participating, pruned = self.plan_shards(query)
        scatter = None
        if trace is not None:
            lookup = trace.child("lookup", hit=False)
            lookup.wall_seconds = time.perf_counter() - t_start
            scatter = trace.child("scatter", shards=list(participating),
                                  pruned=list(pruned))
        t_scatter = time.perf_counter()
        outcomes = self._scatter(query, participating, analyze, cancel)
        if scatter is not None:
            self._adopt(trace, scatter, outcomes, t_scatter)
        if cancel is not None:
            cancel()
        t_gather = time.perf_counter()
        result = self._gather(query, outcomes, pruned, analyze)
        if trace is not None:
            duplicates = result.detail["cross_shard_duplicates"]
            gather = trace.child(
                "gather", raw_pairs=result.n_pairs + duplicates,
                pairs=result.n_pairs, duplicates=duplicates,
            )
            gather.wall_seconds = time.perf_counter() - t_gather
        return self._account(query, key, result, outcomes, t_start, trace)

    def _result_key(self, query: Query) -> tuple:
        for name in set(query.relations):
            self._check_known(name)
        return (query.canonical(),
                tuple((n, self._versions[n]) for n in query.relations))

    def _scatter(self, query: Query, participating: Sequence[int],
                 analyze: bool, cancel: Optional[Callable[[], None]],
                 ) -> List[_ShardOutcome]:
        """Every participating shard's sub-query, outcomes in shard order.

        With more than one shard all sub-queries dispatch at once onto
        the scatter threads (and from there the shared pool); the first
        failure cancels what has not started, waits out what has, and
        re-raises.
        """
        # Every shard answers only for its own strip, so a count-only
        # query stays count-only on the shards: their counts add up.
        def run_shard(k: int) -> _ShardOutcome:
            if cancel is not None:
                cancel()
            return self._execute_on_shard(k, query, analyze, cancel)

        executor = (
            self._scatter_executor() if len(participating) > 1 else None
        )
        if executor is None:
            return [run_shard(k) for k in participating]
        futures = [executor.submit(run_shard, k) for k in participating]
        outcomes: List[_ShardOutcome] = []
        first_exc: Optional[BaseException] = None
        for f in futures:
            try:
                outcomes.append(f.result())
            except BaseException as exc:
                if first_exc is None:
                    first_exc = exc
                    for g in futures:
                        g.cancel()
        if first_exc is not None:
            raise first_exc
        return outcomes

    @staticmethod
    def _adopt(trace: Span, scatter: Span,
               outcomes: Sequence[_ShardOutcome], t_scatter: float) -> None:
        """Each shard's failed attempts and whole query trace become
        children of the scatter span, in shard order; the scatter span
        and the root carry their sums."""
        for oc in outcomes:
            for failure in oc.failures:
                scatter.child("failover", **failure)
            if oc.out.trace is not None:
                sp = scatter.adopt(oc.out.trace)
                sp.name = "shard"
                sp.attrs["shard"] = oc.shard
                sp.attrs["replica"] = oc.replica
        scatter.wall_seconds = time.perf_counter() - t_scatter
        for f in SPAN_METRIC_FIELDS:
            if f != "wall_seconds":
                total = sum(getattr(c, f) for c in scatter.children)
                setattr(scatter, f, total)
                setattr(trace, f, total)

    def _gather(self, query: Query, outcomes: Sequence[_ShardOutcome],
                pruned: Sequence[int], analyze: bool) -> JoinResult:
        """The shards' disjoint answers as one result, with the
        per-shard attribution in its ``detail``."""
        results = [oc.out.result for oc in outcomes]
        pairs, n_pairs = gather_pairs(
            results, len(query.relations), query.collect_pairs,
        )
        detail: Dict[str, object] = {
            "strategy": "scatter-gather",
            "shards": self.shards,
            "shards_queried": [oc.shard for oc in outcomes],
            "shards_pruned": list(pruned),
            # Pairs a shard found but left to the shard owning them.
            "cross_shard_duplicates": sum(
                r.detail.get("cross_shard_duplicates", 0) for r in results
            ),
            "shard_pairs": {oc.shard: oc.out.result.n_pairs
                            for oc in outcomes},
            "shard_strategies": {
                oc.shard: str(oc.out.result.detail.get("strategy", "?"))
                for oc in outcomes
            },
            "shard_replicas": {oc.shard: oc.replica for oc in outcomes},
        }
        if any(oc.attempts > 1 for oc in outcomes):
            # Served, but only after replica failover — the serving
            # front-end surfaces this as a degraded (not failed) reply.
            detail["degraded"] = True
        if analyze:
            detail["shard_plans"] = {
                oc.shard: oc.out.plan.explain()
                for oc in outcomes if oc.out.plan is not None
            }
        # The logical query's memory high-water is the worst shard's:
        # shards run concurrently but each replica enforces its own
        # budget.
        return JoinResult(
            algorithm="scatter-gather", n_pairs=n_pairs, pairs=pairs,
            max_memory_bytes=max((r.max_memory_bytes for r in results),
                                 default=0),
            detail=detail,
        )

    def _account(self, query: Query, key: tuple, result: JoinResult,
                 outcomes: Sequence[_ShardOutcome], t_start: float,
                 trace: Optional[Span]) -> EngineResult:
        """Count the serve, charge its critical path, finish its trace
        and fill the result cache."""
        # Shards ran concurrently on the shared pool, so the query's
        # simulated cost is the LPT makespan of the shard walls over the
        # pool's lanes, not their sum.
        sim_wall = lpt_makespan(
            [oc.out.sim_wall_seconds for oc in outcomes], self.scatter_lanes
        )
        wall = time.perf_counter() - t_start
        with self._lock:
            self._metrics.record_served(result.n_pairs, sim_wall, wall)
            if result.detail.get("degraded"):
                self._metrics.failovers += 1
            self.duplicates_eliminated += (
                result.detail["cross_shard_duplicates"]
            )
            self.shards_pruned_total += len(result.detail["shards_pruned"])
        if trace is not None:
            trace.wall_seconds = wall
            trace.attrs.update({
                "strategy": "scatter-gather",
                "pairs": result.n_pairs,
                "sim_wall_seconds": sim_wall,
            })
        self._observe_query(query, wall, sim_wall, trace, False)
        if cacheable(result):
            cached = _copy_result(result)
            # ``degraded`` describes one serve, like ``cache_hit``: a
            # later hit on this answer failed nothing over.
            cached.detail.pop("degraded", None)
            with self._lock:
                self.cache.put(key, cached)
        return EngineResult(
            query=query, result=result, plan=None, from_cache=False,
            wall_seconds=wall, sim_wall_seconds=sim_wall, trace=trace,
        )

    def _record_hit(self, n_pairs: int, wall: float) -> None:
        self._metrics.record_hit(n_pairs, wall)

    def explain(self, query: Query) -> str:
        """The scatter plan plus every participating shard's plan."""
        participating, pruned = self.plan_shards(query)
        lines = [
            f"Sharded : {self.shards} shards, scatter to "
            f"{participating or 'none'}"
            + (f", pruned {pruned}" if pruned else ""),
        ]
        for k in participating:
            lo, hi = self.strip_of(k)
            lines.append(f"-- shard {k} (x in [{lo:g}, {hi:g}]) --")
            lines.append(self.engines[k].explain(query))
        return "\n".join(lines)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop the shared pool and the scatter threads; the engine
        stays queryable (the next shipped task starts the pool again).

        The replica engines did not create the pool, so their own
        ``close()`` leaves it running.
        """
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=True)
            self._scatter_pool = None
        self.pool.shutdown()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability ----------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """Every replica engine's snapshot merged, serving counters at
        this level — the one read path of a sharded deployment.

        Physical counters (pages, bytes, CPU ops, simulated seconds,
        spills, artifact-cache and budget gauges) sum across engines —
        ``budget_high_water_bytes``
        too, so it stays comparable to the summed total and bounds the
        true momentary peak from above.  The
        :data:`~repro.engine.metrics.SERVING_KEYS` come from the scatter
        layer's own ledger — one logical query is one serve, even when
        it executed on four shards.  ``per_shard`` keeps the attribution
        story: each shard's serve/pair/dispatch counts, whose dispatch
        totals sum to the shared pool's by construction.
        """
        snap = merge_snapshots(
            [e.metrics_snapshot() for e in self.all_engines]
        )
        # Physical shard execution time still sums (real work billed to
        # the simulated hardware), but the deployment's serving clock is
        # the accumulated scatter critical path over the pool's lanes.
        snap["sim_wall_shard_sum_seconds"] = snap.get(
            "sim_wall_seconds", 0.0
        )
        with self._lock:
            own = self._metrics.snapshot()
        snap.update({k: own[k] for k in SERVING_KEYS})
        snap.update({
            "scatter_lanes": self.scatter_lanes,
            "duplicates_eliminated": self.duplicates_eliminated,
            "slow_query_log": (
                self.slow_log.snapshot()
                if self.slow_log is not None else None
            ),
            "shards": self.shards,
            "shard_cuts": list(self._cuts or []),
            "shards_pruned_total": self.shards_pruned_total,
            "boundary_replicas": self.boundary_replicas,
            "replicas": self.replicas,
            "replica_recoveries": self.replica_recoveries,
            "unhealthy_replicas": self.unhealthy_replicas,
            "replica_health": self.replica_health(),
            "worker_pool": self.pool.snapshot(),
            "per_shard": [self._shard_row(k) for k in range(self.shards)],
            # Result-cache gauges are the scatter-level cache's own:
            # it is the only result cache in a sharded deployment
            # (shard engines run with theirs disabled).
            **flatten_result_cache_keys(self.cache),
            "relations": self.names(),
        })
        return snap

    def _shard_row(self, k: int) -> Dict[str, object]:
        """Shard ``k``'s ``per_shard`` row, its replicas summed."""
        group = self._replica_engines[k]
        row: Dict[str, object] = {
            "queries_served": sum(e.metrics.queries_served for e in group),
            "pairs_returned": sum(e.metrics.pairs_returned for e in group),
        }
        for counter in ("tasks_dispatched", "tasks_inline",
                        "tiles_dispatched", "tiles_inline"):
            row[counter] = sum(getattr(e.worker_pool, counter)
                               for e in group)
        row["replica_health"] = list(self._health[k])
        row["relations"] = [n for n in self.names() if self._present[n][k]]
        return row
