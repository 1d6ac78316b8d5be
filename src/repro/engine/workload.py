"""Synthetic serving workloads and their serial in-process replay.

A production engine sees a *mix*: dense nationwide overlays, localized
window joins (the Section 6.3 scenario), and plenty of exact repeats —
dashboards refresh the same query.  :func:`make_workload` generates
such a mix deterministically from a seed; :func:`run_workload` replays
it, one query after another, against a
:class:`~repro.engine.engine.SpatialQueryEngine` or a
:class:`~repro.engine.shard.ShardedEngine` — both are read through
``metrics_snapshot()`` alone — and returns the report that the
``serve-bench`` CLI subcommand prints.  There is no concurrent driver
here: load, and every speed claim, comes from ``benchmarks/e2e/``,
which drives a server process over a socket.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Union

from repro.data.datasets import build_dataset
from repro.engine.engine import (
    ARTIFACT_SNAPSHOT_KEYS,
    BUDGET_SNAPSHOT_KEYS,
    SpatialQueryEngine,
)
from repro.engine.query import Query
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


def run_workload(engine: ServingEngine,
                 queries: List[Query]) -> Dict[str, object]:
    """Serve ``queries`` serially and summarize the engine's behaviour.

    The report contains real wall seconds, simulated engine seconds
    (the machine-trio-faithful cost of serving), throughput against
    both clocks, per-query latency percentiles, pool and
    artifact-cache activity, and the full metrics snapshot.  Every
    per-run figure — clocks, latencies, pool/artifact counters — is a
    delta between the snapshot taken before the workload and the one
    taken after, not the engine's lifetime (the engine may have served
    earlier traffic); only gauges (pool kind/size, artifact
    entries/bytes, the budget block) and ``metrics`` itself, the
    after-snapshot, reflect current engine state.
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
    after = engine.metrics_snapshot()
    sim_wall = after["sim_wall_seconds"] - before["sim_wall_seconds"]
    pool = dict(after["worker_pool"])
    for key in ("tasks_dispatched", "tasks_inline", "tiles_dispatched",
                "tiles_inline", "pools_created", "fallbacks",
                "demotions", "pool_tasks_cancelled"):
        pool[key] -= before["worker_pool"][key]
    artifacts = {key: after[flat]
                 for key, flat in ARTIFACT_SNAPSHOT_KEYS.items()}
    for key in ("hits", "misses", "puts", "evictions", "invalidations",
                "rejections"):
        artifacts[key] -= before[ARTIFACT_SNAPSHOT_KEYS[key]]
    probes = artifacts["hits"] + artifacts["misses"]
    artifacts["hit_rate"] = artifacts["hits"] / probes if probes else 0.0
    latencies.sort()
    report = {
        "queries": len(queries),
        "pairs_returned": total_pairs,
        "wall_seconds": wall,
        "sim_wall_seconds": sim_wall,
        "queries_per_sec_wall": len(queries) / wall if wall > 0 else 0.0,
        "queries_per_sec_sim": (
            len(queries) / sim_wall if sim_wall > 0 else float("inf")
        ),
        "budget": {key: after[flat]
                   for key, flat in BUDGET_SNAPSHOT_KEYS.items()},
        "pool": pool,
        "artifacts": artifacts,
        "latency_p50_seconds": _quantile(latencies, 0.50),
        "latency_p95_seconds": _quantile(latencies, 0.95),
        "metrics": after,
    }
    if engine.last_trace is not None:
        report["trace"] = engine.last_trace.to_dict()
    if engine.slow_log is not None:
        report["slow_queries"] = engine.slow_log.entries()
    return report
