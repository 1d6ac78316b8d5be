"""Observability: span trees, EXPLAIN ANALYZE, slow log, exporters.

The load-bearing invariants:

* tracing is off by default and the traced/untraced hot paths charge
  byte-identical simulated work;
* a query's root span carries exactly the deltas fed to
  ``EngineMetrics.record_execution`` — trace and metrics can never
  disagree;
* the span tree has the same *shape* whatever the pool kind (serial /
  thread / process), with worker-side task spans shipped back across
  the process boundary;
* ``execute(analyze=True)`` annotates the plan with the same deltas,
  bit-for-bit;
* the exporters emit valid Prometheus text / trace JSON as judged by
  the same validators CI runs.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from conftest import TEST_SCALE, dispatch, reference_executor
from repro.engine import (
    LatencyTracker,
    Query,
    ShardedEngine,
    SlowQueryLog,
    Span,
    SpatialQueryEngine,
    WorkerPool,
    merge_snapshots,
    render_prometheus,
    validate_prometheus,
    validate_trace,
)
from repro.engine.metrics import EngineMetrics
from repro.engine.query import FORCEABLE
from repro.engine.trace import SPAN_METRIC_FIELDS
from repro.geom.rect import RECT_BYTES, Rect
from repro.sim.machines import MACHINE_3


def _rects(n: int, base: int, seed: int = 3):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        out.append(Rect(x, x + 2, y, y + 2, base + i))
    return out


A_RECTS = _rects(300, 0)
B_RECTS = _rects(300, 10_000, seed=5)
QUERY = Query(relations=("a", "b"))


def _engine(**kwargs) -> SpatialQueryEngine:
    defaults = dict(
        scale=TEST_SCALE, machine=MACHINE_3, workers=2,
        pool_kind="serial",
    )
    defaults.update(kwargs)
    engine = SpatialQueryEngine(**defaults)
    engine.register("a", A_RECTS)
    engine.register("b", B_RECTS)
    engine.prepare()
    return engine


def _sharded(shards: int, **kwargs) -> ShardedEngine:
    defaults = dict(
        shards=shards, scale=TEST_SCALE, machine=MACHINE_3, workers=2,
        pool_kind="serial",
    )
    defaults.update(kwargs)
    engine = ShardedEngine(**defaults)
    engine.register("a", A_RECTS)
    engine.register("b", B_RECTS)
    engine.prepare()
    return engine


# -- tracing on/off -----------------------------------------------------------


def test_trace_off_by_default():
    with _engine() as engine:
        out = engine.execute(QUERY)
        assert engine.tracing is False
        assert out.trace is None
        assert engine.last_trace is None
        assert engine.slow_log is None
        snap = engine.metrics_snapshot()
        assert snap["slow_query_log"] is None


def test_traced_and_untraced_charge_identical_work():
    with _engine() as plain, _engine(trace=True) as traced:
        plain.execute(QUERY)
        traced.execute(QUERY)
        p, t = plain.metrics_snapshot(), traced.metrics_snapshot()
        for key in ("cpu_ops", "pages_read", "pages_written",
                    "bytes_read", "bytes_written", "sim_io_seconds",
                    "sim_cpu_seconds", "pairs_returned"):
            assert p[key] == t[key], key


# -- root span == metrics deltas ----------------------------------------------


def test_root_span_carries_metrics_deltas():
    with _engine(trace=True) as engine:
        out = engine.execute(QUERY)
        tr = out.trace
        snap = engine.metrics_snapshot()
        assert tr is not None and tr.name == "query"
        assert engine.last_trace is tr
        assert tr.cpu_ops == snap["cpu_ops"]
        assert tr.pages_read == snap["pages_read"]
        assert tr.pages_written == snap["pages_written"]
        assert tr.bytes_read == snap["bytes_read"]
        assert tr.bytes_written == snap["bytes_written"]
        assert tr.sim_io_seconds == snap["sim_io_seconds"]
        assert tr.sim_cpu_seconds == snap["sim_cpu_seconds"]
        assert tr.attrs["pairs"] == snap["pairs_returned"]
        # Phase children in serving order.
        assert [c.name for c in tr.children] == [
            "lookup", "plan", "execute", "finalize",
        ]
        # Phase spans partition the root's op charge: lookup and
        # finalize touch no simulated counters, plan + execute do.
        phase_ops = sum(c.cpu_ops for c in tr.children)
        assert phase_ops == tr.cpu_ops
        assert validate_trace(tr.to_dict()) == []


@pytest.mark.parametrize("force,kernel", (
    ("pq-index", "numpy"), ("pq-index", "python"),
))
def test_join_span_says_what_it_joined(force, kernel):
    # A slow pairwise plan explains itself from its own span: which
    # kernel ran (``python`` under the reference executor), the pages
    # it read and how much each side fed the sweep — the same numbers
    # on both executors.
    window = Rect(20.0, 70.0, 10.0, 60.0, 0)
    served = {}
    for executor in ("python", "numpy"):
        with reference_executor(executor == "python"), \
                _engine(trace=True, cache_capacity=0) as engine:
            served[executor] = [
                engine.execute(Query(relations=("a", "b"), window=win,
                                     force=force))
                for win in (window, None)
            ]
    for out, other in zip(served[kernel], served[
            "numpy" if kernel == "python" else "python"]):
        attrs, other_attrs = (dict(o.trace.find("join").attrs)
                              for o in (out, other))
        attrs.pop("kernel")
        other_attrs.pop("kernel")
        assert attrs == other_attrs
        assert list(out.result.pairs) == list(other.result.pairs)
        assert out.sim_wall_seconds == other.sim_wall_seconds
    for win, out in zip((window, None), served[kernel]):
        join = out.trace.find("join")
        assert join.attrs["strategy"] == force
        assert join.attrs["kernel"] == kernel
        assert join.attrs["pages_read"] == join.pages_read
        assert join.attrs["pairs"] >= out.result.n_pairs
        inside = [sum(r.intersects(window) for r in rects)
                  if win else len(rects)
                  for rects in (A_RECTS, B_RECTS)]
        assert [join.attrs["rects_a"], join.attrs["rects_b"]] == inside
        assert validate_trace(out.trace.to_dict()) == []
        # The validator is what pins them.
        for key in ("kernel", "pages_read", "rects_a", "rects_b",
                    "pairs"):
            broken = out.trace.to_dict()
            spans = [broken]
            while spans:
                span = spans.pop()
                spans.extend(span["children"])
                if span["name"] == "join":
                    del span["attrs"][key]
            assert validate_trace(broken) != [], key


def test_hit_path_traces_and_records_latency():
    with _engine(trace=True, cache_capacity=8) as engine:
        engine.execute(QUERY)
        out = engine.execute(QUERY)
        assert out.from_cache
        tr = out.trace
        assert tr.shape() == ("query", (("lookup", ()),))
        assert tr.children[0].attrs["hit"] is True
        assert tr.wall_seconds > 0.0
        # Satellite 1: the hit recorded its *measured* wall latency.
        m = engine.metrics
        assert m.latency.count == 2
        assert min(m.latency._reservoir) > 0.0


def test_sweep_span_reconciles_task_ops():
    with _engine(trace=True) as engine:
        out = engine.execute(QUERY)
        sweep = out.trace.find("sweep")
        assert sweep is not None
        tasks = sweep.find_all("sweep-task")
        assert tasks, "partitioned plan must produce task spans"
        assert sum(t.cpu_ops for t in tasks) == sweep.attrs["ops_total"]
        assert sweep.cpu_ops == sweep.attrs["ops_total"]
        assert sweep.attrs["ops_critical"] <= sweep.attrs["ops_total"]
        assert sum(t.attrs["pairs"] for t in tasks) >= len(
            out.result.pairs
        )


# -- shape invariance across pool kinds ---------------------------------------


@pytest.mark.parametrize("kind", ["process"])
def test_span_shape_matches_serial(kind, ship_every_tile):
    with _engine(trace=True, pool_kind="serial") as serial:
        base = serial.execute(QUERY)
        base_shape = base.trace.shape()
        base_ops = base.trace.cpu_ops
    with _engine(trace=True, pool_kind=kind) as engine:
        out = engine.execute(QUERY)
        assert out.trace.shape() == base_shape
        assert out.trace.cpu_ops == base_ops
        assert out.trace.cpu_ops == engine.metrics_snapshot()["cpu_ops"]
        # Worker-side spans crossed the pool boundary with real pids.
        for task in out.trace.find("sweep").find_all("sweep-task"):
            assert task.attrs["pid"] > 0


@pytest.mark.parametrize("kind", ["serial", "process"])
def test_grouped_tiles_are_one_span_wherever_they_run(kind):
    # The eight tiles hold 114-140 rectangles: three fill a group, the
    # last two are the remainder too small to ship.  The same groups
    # form on every pool kind; only ``shipped`` tells them apart.
    with dispatch(MIN_SHIP_RECTS=300, TILE_BATCH_BYTES=360 * RECT_BYTES), \
            _engine(trace=True, pool_kind=kind) as engine:
        out = engine.execute(QUERY)
        detail = out.result.detail
        snap = engine.worker_pool.snapshot()
    tasks = out.trace.find("sweep").find_all("sweep-task")
    assert [t.attrs["tiles"] for t in tasks] == [3, 3, 2]
    assert [t.attrs["shipped"] for t in tasks] == (
        [False] * 3 if kind == "serial" else [True, True, False]
    )
    assert all(t.attrs["part"] is None for t in tasks)
    assert sum(t.cpu_ops for t in tasks) == detail["sweep_ops_total"]
    assert all(t.cpu_ops > 0 for t in tasks)
    # Each task says how much it swept: every tile copy distribute
    # placed is in exactly one task, and the trace stays valid only
    # while every task span carries the count.
    assert sum(t.attrs["rects"] for t in tasks) == (
        out.trace.find("distribute").attrs["copies"]
    )
    assert all(114 * t.attrs["tiles"] <= t.attrs["rects"]
               <= 140 * t.attrs["tiles"] for t in tasks)
    assert validate_trace(out.trace.to_dict()) == []
    broken = out.trace.to_dict()
    spans = [broken]
    while spans:
        span = spans.pop()
        spans.extend(span["children"])
        if span["name"] == "sweep-task":
            del span["attrs"]["rects"]
    assert len(validate_trace(broken)) == len(tasks)
    assert detail["active_partitions"] == 8
    # The pool counts tiles, not calls, on both sides of the split.
    inline = [t.attrs["tiles"] for t in tasks if not t.attrs["shipped"]]
    assert (snap["tasks_inline"], snap["tiles_inline"]) == (
        len(inline), sum(inline)
    )
    assert snap["tiles_dispatched"] == 8 - sum(inline)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_trace_shape_and_reconciliation(shards):
    with _sharded(shards, trace=True) as engine:
        out = engine.execute(QUERY)
        tr = out.trace
        assert [c.name for c in tr.children] == [
            "lookup", "scatter", "gather",
        ]
        scatter = tr.find("scatter")
        assert len(scatter.children) == shards
        assert all(c.name == "shard" for c in scatter.children)
        # Summed shard spans == scatter span == root == merged metrics.
        snap = engine.metrics_snapshot()
        assert tr.cpu_ops == snap["cpu_ops"]
        assert sum(c.cpu_ops for c in scatter.children) == tr.cpu_ops
        assert sum(
            c.pages_read for c in scatter.children
        ) == snap["pages_read"]
        # Scatter latency lands in the scatter-level tracker, one
        # sample per logical query.
        assert snap["latency_count"] == 1
        assert validate_trace(tr.to_dict()) == []


# -- EXPLAIN ANALYZE ----------------------------------------------------------


def test_analyze_actuals_match_metrics_bit_for_bit():
    with _engine(trace=True) as engine:
        out = engine.execute(QUERY, analyze=True)
        a = out.plan.actuals
        snap = engine.metrics_snapshot()
        assert a is not None
        assert a.pages_read == snap["pages_read"]
        assert a.pages_written == snap["pages_written"]
        assert a.bytes_read == snap["bytes_read"]
        assert a.bytes_written == snap["bytes_written"]
        assert a.cpu_ops == snap["cpu_ops"]
        assert a.sim_io_seconds == snap["sim_io_seconds"]
        assert a.sim_cpu_seconds == snap["sim_cpu_seconds"]
        assert a.sim_wall_seconds == snap["sim_wall_seconds"]
        assert a.pairs == snap["pairs_returned"]
        assert a.spilled_rects == snap["spilled_rects"]
        text = out.plan.explain()
        assert "Actual" in text and "vs estimate" in text


def test_explain_analyze_bypasses_hit_but_fills_cache():
    with _engine(cache_capacity=8) as engine:
        engine.execute(QUERY)
        text = engine.explain_analyze(QUERY)
        assert "Actual" in text
        assert engine.metrics.queries_executed == 2
        out = engine.execute(QUERY)
        assert out.from_cache


def test_plain_execute_attaches_no_actuals():
    with _engine() as engine:
        out = engine.execute(QUERY)
        assert out.plan.actuals is None
        assert "Actual" not in out.plan.explain()


@pytest.mark.parametrize("force", FORCEABLE)
def test_estimate_error_accumulator(force):
    with _engine() as engine:
        engine.execute(QUERY)
        errs = engine.metrics_snapshot()["estimate_errors"]
        assert len(errs) == 1
        (strategy, err), = errs.items()
        assert err["queries"] == 1
        assert err["abs_error_seconds"] >= 0.0
        assert err["actual_io_seconds"] == (
            engine.metrics.sim_io_seconds
        )
        # Every forced strategy is priced, so it lands under its own
        # key with a finite estimate — beside the first query's, or on
        # top of it when the optimizer chose the same strategy.
        engine.execute(Query(relations=("a", "b"), force=force))
        errs = engine.metrics_snapshot()["estimate_errors"]
        assert errs[force]["queries"] == 1 + (force == strategy)
        assert errs[strategy]["queries"] == 1 + (force == strategy)
        assert math.isfinite(errs[force]["estimated_io_seconds"])


# -- metrics satellites -------------------------------------------------------


def test_record_hit_requires_measured_latency():
    m = EngineMetrics()
    with pytest.raises(TypeError):
        m.record_hit(5)


def test_merge_snapshots_recomputes_derived_rates():
    a = {
        "queries_served": 3, "cache_hits": 3, "cache_hit_rate": 1.0,
        "latency_count": 3, "latency_total_seconds": 0.3,
        "latency_avg_seconds": 0.1,
        "result_cache_hits": 3, "result_cache_misses": 0,
        "result_cache_hit_rate": 1.0,
        "artifact_cache_hits": 1, "artifact_cache_misses": 0,
        "artifact_cache_hit_rate": 1.0,
    }
    b = {
        "queries_served": 1, "cache_hits": 0, "cache_hit_rate": 0.0,
        "latency_count": 1, "latency_total_seconds": 0.5,
        "latency_avg_seconds": 0.5,
        "result_cache_hits": 0, "result_cache_misses": 1,
        "result_cache_hit_rate": 0.0,
        "artifact_cache_hits": 0, "artifact_cache_misses": 3,
        "artifact_cache_hit_rate": 0.0,
    }
    merged = merge_snapshots([a, b])
    assert merged["cache_hit_rate"] == pytest.approx(3 / 4)
    assert merged["latency_avg_seconds"] == pytest.approx(0.8 / 4)
    assert merged["result_cache_hit_rate"] == pytest.approx(3 / 4)
    assert merged["artifact_cache_hit_rate"] == pytest.approx(1 / 4)


def test_latency_tracker_snapshot_keys():
    t = LatencyTracker()
    for s in (0.1, 0.2, 0.3):
        t.record(s)
    snap = t.snapshot()
    assert snap["latency_count"] == 3
    assert snap["latency_avg_seconds"] == pytest.approx(0.2)
    assert snap["latency_max_seconds"] == pytest.approx(0.3)


def test_pool_snapshot_exposes_demotions_and_clients():
    pool = WorkerPool(2, kind="serial")
    c1, c2 = pool.client(), pool.client()

    def _double(x):
        return x * 2

    c1.run_inline(_double, 1)
    c1.run_inline(_double, 2)
    c2.run_inline(_double, 3)
    snap = pool.snapshot()
    assert snap["demotions"] == 0
    per_client = {
        row["client_id"]: row for row in snap["per_client"]
    }
    assert per_client[c1.client_id]["tasks_inline"] == 2
    assert per_client[c2.client_id]["tasks_inline"] == 1
    assert sum(
        row["tasks_inline"] for row in snap["per_client"]
    ) == snap["tasks_inline"]
    assert c1.snapshot()["client_id"] == c1.client_id


def test_engine_snapshot_surfaces_pool_clients():
    with _sharded(2, trace=True) as engine:
        engine.execute(QUERY)
        snap = engine.metrics_snapshot()
        pool = snap["worker_pool"]
        assert pool["demotions"] == 0
        assert len(pool["per_client"]) == 2
        assert sum(
            row["tiles_inline"] + row["tiles_dispatched"]
            for row in pool["per_client"]
        ) == pool["tiles_inline"] + pool["tiles_dispatched"]


# -- slow-query log -----------------------------------------------------------


def test_slow_query_log_keeps_worst():
    log = SlowQueryLog(capacity=2)
    assert log.offer("q1", 0.010)
    assert log.offer("q2", 0.030)
    assert log.offer("q3", 0.020)
    assert not log.offer("q4", 0.005)
    walls = [e["wall_seconds"] for e in log.entries()]
    assert walls == [0.030, 0.020]
    assert log.offered == 4 and log.admitted == 3
    assert len(log) == 2
    assert json.loads(log.to_json())[0]["query"] == "q2"


def test_slow_query_log_threshold_and_capacity_validation():
    log = SlowQueryLog(capacity=4, threshold_seconds=0.1)
    assert not log.offer("fast", 0.05)
    assert log.offer("slow", 0.2)
    assert len(log) == 1
    with pytest.raises(ValueError):
        SlowQueryLog(capacity=0)


def test_engine_slow_log_carries_traces():
    with _engine(trace=True, slow_log_capacity=4) as engine:
        engine.execute(QUERY)
        engine.execute(QUERY)  # hit — logged too, without a plan
        entries = engine.slow_log.entries()
        assert len(entries) == 2
        for entry in entries:
            assert entry["trace"] is not None
            assert validate_trace(entry["trace"]) == []
        assert any(e["from_cache"] for e in entries)
        snap = engine.metrics_snapshot()
        assert snap["slow_query_log"]["admitted"] == 2


# -- exporters ----------------------------------------------------------------


def test_prometheus_export_is_valid_and_labelled():
    with _engine(trace=True, slow_log_capacity=4) as engine:
        engine.execute(QUERY)
        text = render_prometheus(engine.metrics_snapshot())
        assert validate_prometheus(text) == []
        assert "repro_engine_queries_served 1" in text
        assert "repro_engine_cpu_ops" in text
        assert "repro_engine_latency_count 1" in text
        assert 'repro_engine_per_strategy{strategy="' in text
        assert 'repro_engine_estimate_errors_queries{strategy="' in text
        assert "repro_engine_worker_pool_tasks_inline" in text


def test_prometheus_export_sharded_snapshot():
    with _sharded(2, trace=True) as engine:
        engine.execute(QUERY)
        text = render_prometheus(engine.metrics_snapshot())
        assert validate_prometheus(text) == []
        assert 'repro_engine_worker_pool_per_client_tasks_inline{' in text


def test_validators_reject_malformed_input():
    assert validate_prometheus("") != []
    assert validate_prometheus("not a sample line\n") != []
    assert validate_prometheus("ok_gauge 1\n") == []
    assert validate_prometheus("ok_gauge 1\n", prefix="ok") == []
    assert validate_prometheus("ok_gauge 1\n", prefix="other") != [], (
        "a prefix pin must reject samples outside the namespace"
    )
    bad = Span("x").to_dict()
    bad["cpu_ops"] = -1
    assert validate_trace(bad) != []
    assert validate_trace({"name": 3}) != []
