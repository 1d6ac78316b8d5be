"""Synthetic serving workloads and the serve-bench harness.

A production engine sees a *mix*: dense nationwide overlays, localized
window joins (the Section 6.3 scenario), and plenty of exact repeats —
dashboards refresh the same query.  :func:`make_workload` generates
such a mix deterministically from a seed; :func:`run_workload` replays
it against a :class:`~repro.engine.engine.SpatialQueryEngine` or a
:class:`~repro.engine.shard.ShardedEngine` — both are read through
``metrics_snapshot()`` alone — and returns the serving report that the
``serve-bench`` CLI subcommand prints.  (Speed claims come from
``benchmarks/e2e/``, which drives a server process over a socket.)
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Union

from repro.data.datasets import build_dataset
from repro.engine.engine import (
    ARTIFACT_SNAPSHOT_KEYS,
    BUDGET_SNAPSHOT_KEYS,
    SpatialQueryEngine,
)
from repro.engine.faults import FaultPlan
from repro.engine.query import Query
from repro.engine.serve import ServingFrontend
from repro.engine.shard import ShardedEngine
from repro.geom.rect import Rect
from repro.sim.scale import ScaleConfig

#: Anything run_workload can serve against.
ServingEngine = Union[SpatialQueryEngine, ShardedEngine]

#: Workload mix: share of queries that repeat an earlier query verbatim
#: (cache-hit traffic), and share of localized window queries among the
#: fresh ones.
REPEAT_SHARE = 0.4
WINDOW_SHARE = 0.6


def engine_for_dataset(dataset: str, scale: ScaleConfig, shards: int = 1,
                       **engine_kwargs) -> ServingEngine:
    """An engine with one Table 2 dataset registered as two relations.

    ``shards > 1`` builds a :class:`ShardedEngine` (``memory_bytes`` is
    then the *total* budget, sliced evenly; all shards share one
    worker pool), otherwise a :class:`SpatialQueryEngine`;
    ``engine_kwargs`` go to that constructor unchanged.  Both relations
    are prepared, so the first query starts from built representations.
    """
    ds = build_dataset(dataset, scale)
    if shards > 1:
        engine = ShardedEngine(shards=shards, scale=scale, **engine_kwargs)
    else:
        engine = SpatialQueryEngine(scale=scale, **engine_kwargs)
    engine.register("roads", ds.roads, universe=ds.universe)
    engine.register("hydro", ds.hydro, universe=ds.universe)
    engine.prepare()
    return engine


def make_workload(universe: Rect, n_queries: int,
                  seed: int = 7) -> List[Query]:
    """A deterministic mixed stream of pairwise queries.

    Roughly ``REPEAT_SHARE`` of the queries repeat a previously issued
    query (eligible for the result cache); fresh queries are windowed
    localized joins with ``WINDOW_SHARE`` probability, full overlays
    otherwise.
    """
    rng = random.Random(seed)
    queries: List[Query] = []
    for _ in range(n_queries):
        if queries and rng.random() < REPEAT_SHARE:
            queries.append(rng.choice(queries))
            continue
        if rng.random() < WINDOW_SHARE:
            # A window covering a few percent of the universe, placed
            # uniformly — the localized-join regime where indexes win.
            w = (universe.xhi - universe.xlo) * rng.uniform(0.08, 0.25)
            h = (universe.yhi - universe.ylo) * rng.uniform(0.08, 0.25)
            x = rng.uniform(universe.xlo, universe.xhi - w)
            y = rng.uniform(universe.ylo, universe.yhi - h)
            window: Optional[Rect] = Rect(x, x + w, y, y + h, 0)
        else:
            window = None
        queries.append(Query(relations=("roads", "hydro"), window=window))
    return queries


def _quantile(ordered: List[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _report(before: Dict[str, object], after: Dict[str, object],
            served: int, pairs: int, wall: float,
            latencies: List[float]) -> Dict[str, object]:
    """The report keys both drivers share, from two metrics snapshots.

    Clocks, spills and the pool / artifact counters are deltas between
    the snapshot taken before the workload and the one taken after;
    gauges (pool kind and size, artifact entries and bytes, the budget
    block) and ``metrics`` itself are the after-state.
    """
    sim_wall = after["sim_wall_seconds"] - before["sim_wall_seconds"]
    pool = dict(after["worker_pool"])
    for key in ("tasks_dispatched", "tasks_inline", "tiles_dispatched",
                "tiles_inline", "pools_created", "fallbacks",
                "demotions", "pool_tasks_cancelled"):
        pool[key] -= before["worker_pool"][key]
    artifacts = {key: after[flat]
                 for key, flat in ARTIFACT_SNAPSHOT_KEYS.items()}
    for key in ("hits", "misses", "puts", "evictions", "invalidations",
                "rejections", "disk_restores", "disk_restore_bytes"):
        artifacts[key] -= before[ARTIFACT_SNAPSHOT_KEYS[key]]
    probes = artifacts["hits"] + artifacts["misses"]
    artifacts["hit_rate"] = artifacts["hits"] / probes if probes else 0.0
    latencies = sorted(latencies)
    return {
        "pairs_returned": pairs,
        "wall_seconds": wall,
        "sim_wall_seconds": sim_wall,
        "queries_per_sec_wall": served / wall if wall > 0 else 0.0,
        "queries_per_sec_sim": (
            served / sim_wall if sim_wall > 0 else float("inf")
        ),
        "spilled_rects": after["spilled_rects"] - before["spilled_rects"],
        "budget": {key: after[flat]
                   for key, flat in BUDGET_SNAPSHOT_KEYS.items()},
        "pool": pool,
        "artifacts": artifacts,
        "latency_p50_seconds": _quantile(latencies, 0.50),
        "latency_p95_seconds": _quantile(latencies, 0.95),
        "latency_max_seconds": latencies[-1] if latencies else 0.0,
        "metrics": after,
    }


def run_workload(engine: ServingEngine,
                 queries: List[Query]) -> Dict[str, object]:
    """Serve ``queries`` and summarize the engine's behaviour.

    The report contains real wall seconds, simulated engine seconds
    (the machine-trio-faithful cost of serving), throughput against
    both clocks, per-query latency percentiles, pool and
    artifact-cache activity, and the full metrics snapshot.  Every
    per-run figure — clocks, spills, latencies, pool/artifact
    counters — is a delta over *this* workload, not the engine's
    lifetime (the engine may have served earlier traffic); only
    gauges (pool kind/size, artifact entries/bytes, the snapshot) and
    the budget block reflect current engine state.
    """
    before = engine.metrics_snapshot()
    latencies: List[float] = []
    t0 = time.perf_counter()
    total_pairs = 0
    for q in queries:
        out = engine.execute(q)
        total_pairs += out.result.n_pairs
        latencies.append(out.wall_seconds)
    wall = time.perf_counter() - t0
    report = {"queries": len(queries), **_report(
        before, engine.metrics_snapshot(), len(queries), total_pairs,
        wall, latencies,
    )}
    if engine.last_trace is not None:
        report["trace"] = engine.last_trace.to_dict()
    if engine.slow_log is not None:
        report["slow_queries"] = engine.slow_log.entries()
    return report


def assign_classes(n_queries: int, batch_share: float = 0.25,
                   seed: int = 11) -> List[str]:
    """A deterministic interactive/batch class per query."""
    rng = random.Random(seed)
    return ["batch" if rng.random() < batch_share else "interactive"
            for _ in range(n_queries)]


def run_concurrent_workload(
    engine: ServingEngine,
    queries: List[Query],
    clients: int = 8,
    batch_share: float = 0.25,
    deadline_seconds: Optional[float] = None,
    open_loop_qps: Optional[float] = None,
    queue_depth: Optional[int] = None,
    admission_bytes: Optional[int] = None,
    grant_bytes: Optional[Dict[str, int]] = None,
    max_concurrency: Optional[int] = None,
    aging_seconds: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    seed: int = 11,
) -> Dict[str, object]:
    """Serve ``queries`` through a concurrent front-end and report.

    The concurrent sibling of :func:`run_workload`: the same report
    keys (so the two reports stay comparable), measured through a
    :class:`~repro.engine.serve.ServingFrontend` driven by ``clients``
    concurrent callers.  **Closed loop** (the default): each client
    pulls the next unserved query as soon as its previous one resolves
    — aggregate throughput under sustained concurrency.  **Open loop**
    (``open_loop_qps``): queries arrive on a fixed schedule regardless
    of completions — the saturation regime where arrival rate exceeds
    service rate and the front-end must shed rather than queue without
    bound.

    Queries are deterministically classed interactive/batch
    (``batch_share``, ``seed``); latency percentiles cover *served*
    queries only, while shed/expired/rejected/error fates are counted
    in the ``serve`` block.  ``pairs_returned`` likewise sums served
    queries — differential checks against a serial run must compare
    runs where every query was served.
    """
    classes = assign_classes(len(queries), batch_share, seed)
    fe_kwargs: Dict[str, object] = {"faults": faults}
    if queue_depth is not None:
        fe_kwargs["queue_depth"] = queue_depth
    if admission_bytes is not None:
        fe_kwargs["admission_bytes"] = admission_bytes
    if grant_bytes is not None:
        fe_kwargs["grant_bytes"] = grant_bytes
    if aging_seconds is not None:
        fe_kwargs["aging_seconds"] = aging_seconds
    fe_kwargs["max_concurrency"] = (
        max_concurrency if max_concurrency is not None else max(1, clients)
    )
    frontend = ServingFrontend(engine, **fe_kwargs)

    async def closed_loop() -> List[object]:
        responses: List[object] = [None] * len(queries)
        cursor = {"next": 0}

        async def client() -> None:
            while cursor["next"] < len(queries):
                i = cursor["next"]
                cursor["next"] = i + 1
                responses[i] = await frontend.submit(
                    queries[i], classes[i], deadline_seconds
                )

        await asyncio.gather(*(client() for _ in range(clients)))
        return responses

    async def open_loop() -> List[object]:
        interval = 1.0 / open_loop_qps
        # One shared schedule origin: each arrival sleeps to an
        # absolute offset from t0 rather than its own coroutine start,
        # so scheduling jitter between coroutine launches cannot drift
        # the whole arrival process late (open-loop means the schedule
        # is the schedule).
        loop = asyncio.get_running_loop()
        t0 = loop.time()

        async def one(i: int) -> object:
            await asyncio.sleep(max(0.0, t0 + i * interval - loop.time()))
            return await frontend.submit(
                queries[i], classes[i], deadline_seconds
            )

        return await asyncio.gather(
            *(one(i) for i in range(len(queries)))
        )

    before = engine.metrics_snapshot()
    t0 = time.perf_counter()
    try:
        responses = asyncio.run(
            open_loop() if open_loop_qps else closed_loop()
        )
    finally:
        frontend.close()
    wall = time.perf_counter() - t0
    served = [r for r in responses if r.ok]
    after = frontend.metrics_snapshot()
    return {
        "queries": len(queries),
        "served": len(served),
        "clients": clients,
        "open_loop_qps": open_loop_qps,
        "serve": after["serve"],
        **_report(
            before, after, len(served),
            sum(r.pairs or 0 for r in served), wall,
            [r.wall_seconds for r in served],
        ),
    }
