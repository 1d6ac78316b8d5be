"""Per-engine serving metrics.

The paper's experiment runner zeroes all counters before each measured
run; a serving engine is the opposite — it accumulates forever, and
operators read rates off the running totals.  :class:`EngineMetrics`
tracks query traffic (served / cache hits / executed), the raw I/O
counters delta-ed from the simulation environment around each
execution, simulated seconds on the engine's machine, and real
wall-clock seconds spent inside the executor.

``snapshot()`` flattens everything into one dict (the `/metrics`
endpoint analogue); the engine merges in result-cache and buffer-pool
statistics so one call tells the whole serving story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.geom.rect import RECT_BYTES

#: Bound on the per-query latency reservoir: enough samples for stable
#: p50/p95 estimates, small enough that a long-lived engine's metrics
#: stay O(1) in memory.
LATENCY_RESERVOIR = 512


class LatencyTracker:
    """Latency aggregates plus a bounded reservoir for percentiles.

    :class:`EngineMetrics`' latency ledger: running count/total/max,
    classic reservoir sampling (every served query equally likely to be
    represented, however long the process lives), and index-based
    percentile reads.
    """

    __slots__ = ("count", "total_seconds", "max_seconds",
                 "_reservoir", "_rng")

    def __init__(self, seed: int = 0x51AB) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self._reservoir: List[float] = []
        self._rng = random.Random(seed)

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        if len(self._reservoir) < LATENCY_RESERVOIR:
            self._reservoir.append(seconds)
        else:
            j = self._rng.randrange(self.count)
            if j < LATENCY_RESERVOIR:
                self._reservoir[j] = seconds

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the reservoir."""
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    @property
    def avg_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """The latency keys every serving snapshot carries."""
        return {
            "latency_count": self.count,
            "latency_total_seconds": self.total_seconds,
            "latency_avg_seconds": self.avg_seconds,
            "latency_max_seconds": self.max_seconds,
            "latency_p50_seconds": self.percentile(0.50),
            "latency_p95_seconds": self.percentile(0.95),
        }


@dataclass
class EngineMetrics:
    """Cumulative counters for one engine instance."""

    queries_served: int = 0
    cache_hits: int = 0
    queries_executed: int = 0
    #: Queries refused by admission control (minimum grant > budget).
    queries_rejected: int = 0
    #: Executions abandoned mid-flight by deadline cancellation — the
    #: executor raised :class:`~repro.engine.pool.DeadlineExceeded`
    #: from a scatter/gather checkpoint or a worker tile boundary.
    queries_cancelled: int = 0

    #: Tile spill traffic from budget-governed partitioned execution.
    spilled_rects: int = 0
    spilled_bytes: int = 0
    #: Executed queries that spilled at least one tile.
    spill_queries: int = 0

    #: Availability counters, kept by a sharded deployment's own ledger;
    #: a single engine has no replicas to fail over to, so its stay
    #: zero.  ``replica_failures`` counts individual replica sub-query
    #: failures, ``retries`` the re-attempts those failures triggered,
    #: ``failovers`` the logical queries ultimately served by a
    #: non-first-choice replica.
    failovers: int = 0
    retries: int = 0
    replica_failures: int = 0

    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cpu_ops: int = 0

    #: Simulated seconds on the engine's machine, split and combined.
    sim_io_seconds: float = 0.0
    sim_cpu_seconds: float = 0.0
    sim_wall_seconds: float = 0.0

    #: Real (host) seconds spent executing plans.
    wall_seconds: float = 0.0

    pairs_returned: int = 0
    per_strategy: Dict[str, int] = field(default_factory=dict)

    #: Per-strategy estimate-vs-actual feedback: how far the cost
    #: model's I/O estimate was from what execution actually charged.
    #: Sums only (query count, estimated seconds, actual seconds,
    #: absolute error) so shard snapshots merge by plain addition;
    #: readers derive mean errors from the sums.
    estimate_errors: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )

    #: Per-query wall-clock latency: running aggregates plus a bounded
    #: reservoir sample for tail percentiles (p50/p95).  Cache hits
    #: count too — a served query is a served query, and hit latency is
    #: exactly what the tail of a warm engine looks like.
    latency: LatencyTracker = field(
        default_factory=LatencyTracker, repr=False
    )

    # -- recording -------------------------------------------------------

    def record_latency(self, seconds: float) -> None:
        """Fold one served query's wall latency into the aggregates."""
        self.latency.record(seconds)

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) over the latency reservoir."""
        return self.latency.percentile(q)

    def record_hit(self, n_pairs: int, wall_seconds: float) -> None:
        """One result-cache hit.  ``wall_seconds`` is the *measured*
        hit latency — there is deliberately no default: a synthetic 0.0
        would drag p50/p95 toward zero on any cache-friendly workload,
        which is exactly the tail distortion the percentiles exist to
        catch."""
        self.queries_served += 1
        self.cache_hits += 1
        self.pairs_returned += n_pairs
        self.record_latency(wall_seconds)

    def record_estimate(self, strategy: str, estimated_io_seconds: float,
                        actual_io_seconds: float) -> None:
        """Fold one executed query's estimate-vs-actual I/O gap."""
        err = self.estimate_errors.setdefault(strategy, {
            "queries": 0,
            "estimated_io_seconds": 0.0,
            "actual_io_seconds": 0.0,
            "abs_error_seconds": 0.0,
        })
        err["queries"] += 1
        err["estimated_io_seconds"] += estimated_io_seconds
        err["actual_io_seconds"] += actual_io_seconds
        err["abs_error_seconds"] += abs(
            actual_io_seconds - estimated_io_seconds
        )

    def record_rejection(self) -> None:
        """A query refused by admission control (never executed)."""
        self.queries_rejected += 1

    def record_cancellation(self) -> None:
        """An execution abandoned at a deadline checkpoint."""
        self.queries_cancelled += 1

    def record_served(self, n_pairs: int, sim_wall_seconds: float,
                      wall_seconds: float) -> None:
        """One executed query as its caller saw it: a serve, its pairs,
        its simulated and its measured latency.  A sharded deployment's
        ledger records only this; its shard engines record the rest."""
        self.queries_served += 1
        self.queries_executed += 1
        self.pairs_returned += n_pairs
        self.sim_wall_seconds += sim_wall_seconds
        self.record_latency(wall_seconds)

    def record_execution(
        self,
        strategy: str,
        n_pairs: int,
        pages_read: int,
        pages_written: int,
        bytes_read: int,
        bytes_written: int,
        cpu_ops: int,
        sim_io_seconds: float,
        sim_cpu_seconds: float,
        sim_wall_seconds: float,
        wall_seconds: float,
        spilled_rects: int = 0,
    ) -> None:
        self.record_served(n_pairs, sim_wall_seconds, wall_seconds)
        if spilled_rects > 0:
            self.spilled_rects += spilled_rects
            self.spilled_bytes += spilled_rects * RECT_BYTES
            self.spill_queries += 1
        self.pages_read += pages_read
        self.pages_written += pages_written
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.cpu_ops += cpu_ops
        self.sim_io_seconds += sim_io_seconds
        self.sim_cpu_seconds += sim_cpu_seconds
        self.wall_seconds += wall_seconds
        self.per_strategy[strategy] = self.per_strategy.get(strategy, 0) + 1

    # -- reading ---------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        return (
            self.cache_hits / self.queries_served
            if self.queries_served else 0.0
        )

    def snapshot(self) -> Dict[str, object]:
        """One flat dict of every counter plus derived rates."""
        return {
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "queries_executed": self.queries_executed,
            "queries_rejected": self.queries_rejected,
            "queries_cancelled": self.queries_cancelled,
            "spilled_rects": self.spilled_rects,
            "spilled_bytes": self.spilled_bytes,
            "spill_queries": self.spill_queries,
            "failovers": self.failovers,
            "retries": self.retries,
            "replica_failures": self.replica_failures,
            "failover_rate": (
                self.failovers / self.queries_executed
                if self.queries_executed else 0.0
            ),
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "cpu_ops": self.cpu_ops,
            "sim_io_seconds": self.sim_io_seconds,
            "sim_cpu_seconds": self.sim_cpu_seconds,
            "sim_wall_seconds": self.sim_wall_seconds,
            "wall_seconds": self.wall_seconds,
            "pairs_returned": self.pairs_returned,
            "per_strategy": dict(self.per_strategy),
            "estimate_errors": {
                k: dict(v) for k, v in self.estimate_errors.items()
            },
            **self.latency.snapshot(),
        }


#: Snapshot keys where "worst shard" is the honest aggregate (summing
#: a max or a percentile across shards would fabricate latencies no
#: query ever saw).
_MERGE_MAX_KEYS = frozenset({
    "latency_max_seconds", "latency_p50_seconds", "latency_p95_seconds",
})

#: The snapshot keys a serving layer over several engines takes from
#: its own ledger rather than from their merge: one logical query is
#: one serve, one latency sample and one simulated critical path however
#: many shards ran it, and only that layer fails over between replicas.
SERVING_KEYS = (
    "queries_served", "cache_hits", "cache_hit_rate", "queries_executed",
    "pairs_returned", "failovers", "retries", "replica_failures",
    "failover_rate", "sim_wall_seconds",
    "latency_count", "latency_total_seconds", "latency_avg_seconds",
    "latency_max_seconds", "latency_p50_seconds", "latency_p95_seconds",
)

#: Derived-rate keys recomputed after merging: ``(rate key, numerator
#: key, denominator keys)``.  A mean of per-shard ratios is not the
#: ratio of the sums, so every rate whose numerator/denominator
#: counters are present in the merged dict is recomputed from them.
_DERIVED_RATES = (
    ("cache_hit_rate", "cache_hits", ("queries_served",)),
    ("latency_avg_seconds", "latency_total_seconds",
     ("latency_count",)),
    ("artifact_cache_hit_rate", "artifact_cache_hits",
     ("artifact_cache_hits", "artifact_cache_misses")),
    ("result_cache_hit_rate", "result_cache_hits",
     ("result_cache_hits", "result_cache_misses")),
    ("failover_rate", "failovers", ("queries_executed",)),
)


def sum_counters(into: Dict, add: Dict) -> Dict:
    """Key-wise sum of numeric dict trees, recursing into sub-dicts.

    The one merge semantic for shard aggregation: what
    :func:`merge_snapshots` does to per-strategy and per-category
    dicts.  Non-numeric leaves keep their first-seen
    value.  Returns ``into``.
    """
    for key, value in add.items():
        if isinstance(value, dict):
            sum_counters(into.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            into[key] = into.get(key, 0) + value
        else:
            into.setdefault(key, value)
    return into


def merge_snapshots(snaps) -> Dict[str, object]:
    """Aggregate per-engine metric snapshots into one dict.

    The sharded scatter layer serves one query by executing several —
    one per participating shard — so its physical story is the *sum*
    of its shards': counters and simulated seconds add, per-strategy
    dicts add key-wise, and latency extrema take the worst shard.
    Rate keys are recomputed from the merged counts they derive from
    (a mean of ratios is not the ratio of the sums).  Serving-level
    counters (queries served, cache hits) also sum here — the caller
    overrides the :data:`SERVING_KEYS` when, as in
    :class:`ShardedEngine`, one logical query fans out to several shard
    executions.
    """
    merged: Dict[str, object] = {}
    for snap in snaps:
        for key, value in snap.items():
            if isinstance(value, dict):
                sum_counters(merged.setdefault(key, {}), value)
            elif isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                merged.setdefault(key, value)
            elif key in _MERGE_MAX_KEYS:
                merged[key] = max(merged.get(key, 0.0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    for rate_key, num_key, den_keys in _DERIVED_RATES:
        if rate_key not in merged and num_key not in merged:
            continue
        den = sum(merged.get(k, 0) for k in den_keys)
        merged[rate_key] = (
            merged.get(num_key, 0) / den if den else 0.0
        )
    return merged
