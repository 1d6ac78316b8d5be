"""The serving facade: catalog + optimizer + executor + caches + metrics.

:class:`SpatialQueryEngine` is the persistent layer the one-shot
experiment runner never needed: register relations once, then serve an
arbitrary stream of :class:`~repro.engine.query.Query` objects.  Every
query flows

    cache lookup -> optimize (cost model) -> execute -> cache fill

and the engine accounts for each stage: simulated I/O and CPU seconds
on the engine's machine (with the partitioned executor's parallel CPU
savings applied), raw page/byte counters, result-cache and buffer-pool
hit rates — all visible through ``metrics_snapshot()``.

The engine deliberately owns its whole simulated hardware stack
(environment, disk, page store, LRU buffer pool), so two engines never
share counters and a long-lived engine's buffer pool stays warm across
queries — the serving advantage the paper's one-shot experiments could
not show.

It also owns one :class:`~repro.engine.resources.ResourceBudget` — by
default the paper's internal-memory grant plus the ST buffer pool
(Section 5.1's 24 MB + 22 MB, scaled) — attached to the environment so
every layer of *execution* charges the same ledger: the buffer pool's
resident pages, external sorts' run-formation chunks, and the
partitioned executor's tile grants (with disk spill beyond them).
Result memory is governed separately by the size-aware cache's own
byte bound.  Queries whose minimum grant exceeds the whole budget are
refused up front (:class:`~repro.engine.resources.AdmissionError`).

Execution has one implementation: the executor always runs the numpy
kernels of :mod:`repro.core.kernels`, and ``register`` refuses the
rectangles they do not model (non-finite or inverted), so a bad
relation fails where it is registered, not at its first query.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.join_result import JoinResult
from repro.engine.faults import FaultPlan
from repro.engine.cache import ArtifactCache, ResultCache
from repro.engine.catalog import Catalog, GeometryMap
from repro.engine.executor import Executor
from repro.engine.metrics import EngineMetrics
from repro.engine.obs import SlowQueryLog
from repro.engine.optimizer import Optimizer, PhysicalPlan, PlanActuals
from repro.engine.pool import DeadlineExceeded, WorkerPool
from repro.engine.query import Query
from repro.engine.resources import AdmissionError, ResourceBudget
from repro.engine.trace import Span, span_meter
from repro.geom.rect import Rect
from repro.sim.env import SimEnv
from repro.sim.machines import MACHINE_3, MachineSpec
from repro.sim.scale import DEFAULT_SCALE, ScaleConfig
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.pages import PageStore

#: Results larger than this many pairs are served but not cached (a
#: result cache must not become an accidental copy of the data).
MAX_CACHED_PAIRS = 250_000


def _copy_result(result: JoinResult) -> JoinResult:
    """A copy the holder may vandalize: a fresh detail dict, and pairs
    either copied (a list) or shared (immutable columns)."""
    pairs = result.pairs
    if isinstance(pairs, list):
        pairs = list(pairs)
    return replace(result, pairs=pairs, detail=dict(result.detail))


#: What the keys of ``ArtifactCache.snapshot()`` and
#: ``ResourceBudget.snapshot()`` are called in a serving snapshot.  Read
#: in both directions: ``metrics_snapshot()`` flattens the two blocks
#: with these tables and ``run_workload``'s report
#: (:mod:`repro.engine.workload`) rebuilds them — from a single engine's
#: snapshot or a sharded deployment's merged one alike.
ARTIFACT_SNAPSHOT_KEYS = {
    "entries": "artifact_cache_entries",
    "bytes": "artifact_cache_bytes",
    "hits": "artifact_cache_hits",
    "misses": "artifact_cache_misses",
    "hit_rate": "artifact_cache_hit_rate",
    "puts": "artifact_cache_puts",
    "evictions": "artifact_cache_evictions",
    "invalidations": "artifact_cache_invalidations",
    "rejections": "artifact_cache_rejections",
}
BUDGET_SNAPSHOT_KEYS = {
    "total_bytes": "budget_total_bytes",
    "in_use_bytes": "budget_in_use_bytes",
    "high_water_bytes": "budget_high_water_bytes",
    "high_water_by_category": "budget_high_water_by_category",
    "overcommits": "budget_overcommits",
}


def flatten_result_cache_keys(cache: "ResultCache") -> dict:
    """A result cache's gauges as serving-snapshot keys (the single
    engine's cache, or a sharded deployment's scatter-level one)."""
    return {
        "result_cache_entries": len(cache),
        "result_cache_bytes": cache.bytes_used,
        "result_cache_hits": cache.hits,
        "result_cache_misses": cache.misses,
        "result_cache_hit_rate": cache.hit_rate,
        "result_cache_evictions": cache.evictions,
        "result_cache_invalidations": cache.invalidations,
    }


@dataclass
class EngineResult:
    """What ``execute`` hands back: the join result plus provenance."""

    query: Query
    result: JoinResult
    plan: Optional[PhysicalPlan]
    from_cache: bool
    wall_seconds: float
    sim_wall_seconds: float
    trace: Optional[Span] = None


def cacheable(result: JoinResult) -> bool:
    """The result-cache put rule, for either engine: count-only
    results (no pair list) always cache, collected ones up to
    :data:`MAX_CACHED_PAIRS`."""
    return result.pairs is None or len(result.pairs) <= MAX_CACHED_PAIRS


class _ServeShell:
    """What serving a query looks like around either engine's own
    execution: the result cache and its one hit path, the slow-query
    log and the last trace.  The engine supplies ``_lock`` (the lock
    that guards its result cache), ``_result_key(query)``,
    ``_record_hit(n_pairs, wall)`` (its counters, called under
    ``_lock``) and ``_TRACE_ENGINE`` (its root spans' ``engine``)."""

    _TRACE_ENGINE = "single"

    def _init_serve_shell(self, cache_capacity: int, trace: bool,
                          slow_log_capacity: Optional[int] = None,
                          ) -> None:
        # Result memory is governed by the cache's own ledger; the
        # execution budget stays dedicated to algorithm memory, as in
        # the paper's Section 5.1 split.
        self.cache = ResultCache(capacity=cache_capacity)
        # Observability.  ``trace`` turns on per-query span trees; the
        # slow-query log keeps the N worst traces (it also works with
        # tracing off, logging latencies without trees).  Both are off
        # by default so the serving hot path stays allocation-free.
        self.tracing = bool(trace)
        if slow_log_capacity is None:
            slow_log_capacity = 8 if self.tracing else 0
        self.slow_log = (
            SlowQueryLog(slow_log_capacity)
            if slow_log_capacity > 0 else None
        )
        self.last_trace: Optional[Span] = None

    def cached_reply(self, query: Query,
                     cancel: Optional[Callable[[], None]] = None,
                     ) -> Optional[EngineResult]:
        """``query``'s reply from the result cache, taken without waiting.

        None when the lock guarding the cache is busy, the cache is off
        or it holds no answer for ``query``; a None counts nothing, so
        the caller goes on to ``execute``, which counts the miss.
        ``cancel`` is checked once the lock is held, as ``execute``
        checks it.  A serving front-end calls this on its event loop,
        which must never wait on an engine lock.
        """
        if not self.cache.capacity or not self._lock.acquire(blocking=False):
            return None
        try:
            t_start = time.perf_counter()
            if cancel is not None:
                cancel()
            return self._lookup_locked(query, t_start, count_miss=False)[1]
        finally:
            self._lock.release()

    def _lookup_locked(self, query: Query, t_start: float,
                       count_miss: bool,
                       ) -> Tuple[tuple, Optional[EngineResult]]:
        """``query``'s result-cache key and, on a hit, its reply; called
        under ``_lock``.  A hit is always counted, a miss only when
        ``count_miss``."""
        key = self._result_key(query)
        if count_miss or self.cache.peek(key) is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return key, self._serve_hit(query, cached, t_start)
        return key, None

    def _query_span(self, query: Query) -> Optional[Span]:
        """A root ``query`` span when tracing, else None."""
        if not self.tracing:
            return None
        return Span("query", query=query.describe(),
                    engine=self._TRACE_ENGINE)

    def _serve_hit(self, query: Query, cached: JoinResult,
                   t_start: float) -> EngineResult:
        """The reply to a result-cache hit: a copy the caller may
        vandalize, counted, traced and offered to the slow log."""
        result = _copy_result(cached)
        result.detail["cache_hit"] = True
        wall = time.perf_counter() - t_start
        self._record_hit(cached.n_pairs, wall)
        trace = self._query_span(query)
        if trace is not None:
            lookup = trace.child("lookup", hit=True)
            lookup.wall_seconds = wall
            trace.wall_seconds = wall
            trace.attrs["pairs"] = cached.n_pairs
        self._observe_query(query, wall, 0.0, trace, True)
        return EngineResult(
            query=query, result=result, plan=None, from_cache=True,
            wall_seconds=wall, sim_wall_seconds=0.0, trace=trace,
        )

    def _observe_query(self, query: Query, wall: float, sim_wall: float,
                       trace: Optional[Span], from_cache: bool) -> None:
        if trace is not None:
            self.last_trace = trace
        if self.slow_log is not None:
            self.slow_log.offer(
                query.describe(), wall, sim_wall,
                trace=trace, from_cache=from_cache,
            )


class SpatialQueryEngine(_ServeShell):
    """A persistent spatial-join serving layer over the repro stack.

    ``execute`` serializes itself: the env page counters it deltas, the
    metrics and the result cache are one query's at a time, so
    concurrent callers (a serving front-end's threads, a sharded
    deployment's scatter threads) queue on the engine's own lock.
    """

    def __init__(
        self,
        scale: ScaleConfig = DEFAULT_SCALE,
        machine: MachineSpec = MACHINE_3,
        workers: int = 1,
        cache_capacity: int = 64,
        memory_bytes: Optional[int] = None,
        pool_kind: str = "process",
        artifact_cache_bytes: Optional[int] = None,
        worker_pool: Optional[WorkerPool] = None,
        trace: bool = False,
        slow_log_capacity: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.scale = scale
        self.machine = machine
        self.workers = max(1, workers)
        # The enforced internal-memory contract.  The default mirrors
        # the paper's Section 5.1 split: the algorithms' memory grant
        # plus the tree join's LRU pool, both already scaled.
        self.budget = ResourceBudget(
            memory_bytes if memory_bytes is not None
            else scale.memory_bytes + scale.buffer_pool_bytes
        )
        self.env = SimEnv(scale=scale, machines=(machine,))
        self.env.budget = self.budget
        self.disk = Disk(self.env)
        self.store = PageStore(self.disk, scale.index_page_bytes)
        self.pool = BufferPool(
            self.store, scale.buffer_pool_pages, budget=self.budget
        )
        self.catalog = Catalog(self.disk, self.store)
        # The persistent worker pool (process-based by default) and the
        # artifact cache are engine-lived: the pool is created lazily
        # on the first shipped task and reused by every query;
        # artifacts (distributed tiles) occupy only free budget bytes
        # and are evicted before they could ever starve a tile grant.  ``artifact_cache_bytes=0`` disables
        # artifact reuse.
        #
        # ``worker_pool`` shares a pool its creator owns (a sharded
        # catalog runs many engines on one pool): ``close()`` stops only
        # a pool this engine created.  When a pool is shared,
        # ``pool_kind`` is ignored (the pool already has a kind).
        self._owns_pool = worker_pool is None
        self.worker_pool = (
            worker_pool if worker_pool is not None
            else WorkerPool(self.workers, kind=pool_kind, faults=faults)
        ).client()
        # A serving front-end built on this engine joins its fault plan.
        self.faults = faults
        # One artifact cache, shared by the optimizer (which prices
        # from it) and the executor (which runs through it).
        self.artifacts = ArtifactCache(
            budget=self.budget, max_bytes=artifact_cache_bytes,
        )
        self.optimizer = Optimizer(
            self.catalog, machine, scale,
            workers=self.workers,
            budget=self.budget, artifacts=self.artifacts,
        )
        self.executor = Executor(
            self.disk, machine, pool=self.pool, budget=self.budget,
            worker_pool=self.worker_pool, artifacts=self.artifacts,
        )
        self.metrics = EngineMetrics()
        self._lock = threading.Lock()
        self._init_serve_shell(cache_capacity, trace, slow_log_capacity)

    # -- catalog management ----------------------------------------------

    def register(
        self,
        name: str,
        rects: Sequence[Rect],
        universe: Optional[Rect] = None,
        geometries: Optional[GeometryMap] = None,
    ) -> None:
        """(Re-)register a relation and invalidate its cached results.

        Waits for the engine's lock, like ``execute``: a query never
        sees the catalog or the caches half updated.  What
        :func:`~repro.engine.catalog.check_rects` refuses changes nothing.
        """
        with self._lock:
            self.catalog.register(
                name, rects, universe=universe, geometries=geometries
            )
            self.cache.invalidate_relation(name)
            self.artifacts.invalidate_relation(name)

    def drop(self, name: str) -> None:
        with self._lock:
            self.catalog.drop(name)
            self.cache.invalidate_relation(name)
            self.artifacts.invalidate_relation(name)

    def universe_of(self, name: str) -> Rect:
        """A relation's registered universe (shared with ShardedEngine)."""
        return self.catalog.get(name).universe

    def prepare(self, *names: str) -> None:
        """Force-build streams, indexes, histograms, column images and
        leaf columns now.

        The catalog builds lazily, which charges the build to the first
        query that needs it; benchmark-style callers prepare up front so
        every measured query starts from built representations, like
        the paper's build-once-measure-many runner.
        """
        entries = [self.catalog.get(name)
                   for name in (names or self.catalog.names())]
        for entry in entries:
            entry.stream, entry.tree, entry.histogram  # noqa: B018
            entry.columns  # noqa: B018
        # Boot the worker pool alongside the data structures: forking
        # the workers belongs to the build phase, not to whichever
        # query happens to be the first partitioned one.
        self.worker_pool.prestart()
        # After every index is built — a page written to the shared
        # store makes a tree rebuild its leaf columns — and after the
        # fork: index plans run on the coordinator, and what a worker
        # inherits it keeps resident (+2.3 MB each, measured).
        for entry in entries:
            entry.tree.leaf_columns()

    # -- serving ---------------------------------------------------------

    def execute(self, query: Query, analyze: bool = False,
                cancel: Optional[Callable[[], None]] = None,
                ) -> EngineResult:
        # ``cancel`` is a cooperative cancellation checkpoint (see
        # ShardedEngine.execute), honoured once the engine's lock is
        # held — time spent waiting for it counts against a deadline —
        # and forwarded into the executor, whose partitioned path checks
        # it per gathered task and ships a CancelToken inside every pool
        # payload so workers stop at tile boundaries too.
        with self._lock:
            if cancel is not None:
                cancel()
            return self._execute_locked(query, analyze, cancel)

    def _result_key(self, query: Query) -> tuple:
        return (query.canonical(),
                self.catalog.versions_of(query.relations))

    def _execute_locked(self, query: Query, analyze: bool,
                        cancel: Optional[Callable[[], None]],
                        ) -> EngineResult:
        t_start = time.perf_counter()
        key, hit = self._lookup_locked(query, t_start, count_miss=True)
        if hit is not None:
            return hit
        trace = self._query_span(query)

        # Snapshot counters before compiling: plan-time lazy builds
        # (streams, indexes, histograms) are charged to the query that
        # triggered them, as the catalog's laziness contract promises.
        obs = self.env.observer_for(self.machine)
        before = (
            self.env.page_reads, self.env.page_writes,
            self.env.bytes_read, self.env.bytes_written,
            self.env.cpu_ops, obs.io_seconds, obs.cpu_seconds,
        )
        t0 = time.perf_counter()
        if trace is not None:
            lookup = trace.child("lookup", hit=False)
            lookup.wall_seconds = t0 - t_start
        with span_meter(self.env, self.machine, trace, "plan") as pspan:
            plan = self.optimizer.compile(query)
            if pspan is not None:
                pspan.attrs["strategy"] = plan.strategy
        if plan.min_grant_bytes > self.budget.total_bytes:
            # Admission control: even with maximal spilling this query
            # could not run under the engine's memory contract; refuse
            # it instead of degrading every other query.
            self.metrics.record_rejection()
            raise AdmissionError(
                f"query {query.describe()!r} needs a minimum grant of "
                f"{plan.min_grant_bytes} bytes but the engine budget is "
                f"{self.budget.total_bytes} bytes"
            )
        with span_meter(self.env, self.machine, trace, "execute",
                        strategy=plan.strategy) as espan:
            try:
                result = self.executor.execute(plan, self.catalog,
                                               trace=espan,
                                               cancel=cancel)
            except DeadlineExceeded:
                self.metrics.record_cancellation()
                raise
        wall = time.perf_counter() - t0

        d_pages_r = self.env.page_reads - before[0]
        d_pages_w = self.env.page_writes - before[1]
        d_bytes_r = self.env.bytes_read - before[2]
        d_bytes_w = self.env.bytes_written - before[3]
        d_cpu_ops = self.env.cpu_ops - before[4]
        d_io = obs.io_seconds - before[5]
        d_cpu = obs.cpu_seconds - before[6]
        # Partitioned plans overlap sweep CPU across workers; the
        # executor reports how many CPU-seconds the overlap hides.
        saved = float(result.detail.get("parallel_cpu_seconds_saved", 0.0))
        sim_wall = d_io + max(0.0, d_cpu - saved)

        strategy = str(result.detail.get("strategy", plan.strategy))
        self.metrics.record_execution(
            strategy=strategy,
            n_pairs=result.n_pairs,
            pages_read=d_pages_r, pages_written=d_pages_w,
            bytes_read=d_bytes_r, bytes_written=d_bytes_w,
            cpu_ops=d_cpu_ops,
            sim_io_seconds=d_io, sim_cpu_seconds=d_cpu,
            sim_wall_seconds=sim_wall, wall_seconds=wall,
            spilled_rects=int(result.detail.get("spilled_rects", 0)),
        )
        self.metrics.record_estimate(
            strategy, plan.estimate.io_seconds, d_io
        )
        if analyze:
            # EXPLAIN ANALYZE contract: the actuals attached to the
            # plan are the exact deltas just fed to the metrics, so
            # ``plan.explain()`` and ``metrics_snapshot()`` can never
            # disagree about what a query cost.
            plan.actuals = PlanActuals(
                pages_read=d_pages_r, pages_written=d_pages_w,
                bytes_read=d_bytes_r, bytes_written=d_bytes_w,
                cpu_ops=d_cpu_ops,
                sim_io_seconds=d_io, sim_cpu_seconds=d_cpu,
                sim_wall_seconds=sim_wall, wall_seconds=wall,
                pairs=result.n_pairs,
                spilled_rects=int(result.detail.get("spilled_rects", 0)),
            )
        if cacheable(result):
            # Cache a private copy: the caller owns the returned object
            # and may mutate it without corrupting future hits.
            with span_meter(self.env, self.machine, trace, "finalize"):
                self.cache.put(key, _copy_result(result))
        total_wall = time.perf_counter() - t_start
        if trace is not None:
            # The root span carries the whole query's deltas — the same
            # numbers record_execution saw — so summing a trace always
            # reconciles with the metrics snapshot.
            trace.wall_seconds = total_wall
            trace.pages_read = d_pages_r
            trace.pages_written = d_pages_w
            trace.bytes_read = d_bytes_r
            trace.bytes_written = d_bytes_w
            trace.cpu_ops = d_cpu_ops
            trace.sim_io_seconds = d_io
            trace.sim_cpu_seconds = d_cpu
            trace.attrs.update({
                "strategy": strategy,
                "pairs": result.n_pairs,
                "sim_wall_seconds": sim_wall,
            })
        self._observe_query(query, total_wall, sim_wall, trace, False)
        return EngineResult(
            query=query, result=result, plan=plan, from_cache=False,
            wall_seconds=wall, sim_wall_seconds=sim_wall, trace=trace,
        )

    def _record_hit(self, n_pairs: int, wall: float) -> None:
        self.metrics.record_hit(n_pairs, wall)

    def explain_analyze(self, query: Query) -> str:
        """Execute the query and return its plan annotated with actuals.

        The cache is bypassed on lookup (a hit would have no plan to
        annotate) but still filled, so EXPLAIN ANALYZE warms the cache
        like any served query.
        """
        with self._lock:
            self.cache.pop(self._result_key(query))
        out = self.execute(query, analyze=True)
        assert out.plan is not None
        return out.plan.explain()

    def explain(self, query: Query) -> str:
        """The physical plan as text, without executing the join.

        Pricing the index paths needs page counts, so explaining a
        query on an unprepared catalog can trigger the same lazy
        stream/index/histogram builds planning does.  That build I/O is
        charged to the environment but to no query — the per-query
        metrics invariant covers ``execute`` only.  Call
        :meth:`prepare` first for a side-effect-free explain.
        """
        return self.optimizer.compile(query).explain()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Stop the pool if this engine created it; the engine stays
        queryable.

        A pool passed in as ``worker_pool=`` belongs to whoever made it
        and keeps running, so closing one shard never stops its
        siblings' pool.  The next shipped task starts a stopped pool
        again and the next ``close`` stops it, so ``close`` is safe to
        call eagerly (tests, short scripts); long-lived servers call it
        on drain.  Also usable as a context manager.
        """
        if self._owns_pool:
            self.worker_pool.pool.shutdown()

    def __enter__(self) -> "SpatialQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Engine + cache + buffer-pool + budget counters in one dict."""
        snap = self.metrics.snapshot()
        snap["worker_pool"] = self.worker_pool.snapshot()
        snap["slow_query_log"] = (
            self.slow_log.snapshot()
            if self.slow_log is not None else None
        )
        artifacts, budget = self.artifacts.snapshot(), self.budget.snapshot()
        snap.update({flat: artifacts[key] for key, flat
                     in ARTIFACT_SNAPSHOT_KEYS.items()})
        snap.update({flat: budget[key] for key, flat
                     in BUDGET_SNAPSHOT_KEYS.items()})
        snap.update(flatten_result_cache_keys(self.cache))
        snap.update({
            "buffer_pool_requests": self.pool.requests,
            "buffer_pool_hit_rate": self.pool.hit_rate,
            "buffer_pool_evictions": self.pool.evictions,
            "buffer_pool_resident_pages": self.pool.resident_pages,
            "indexes_built": self.catalog.indexes_built,
            "relations": self.catalog.names(),
        })
        return snap
