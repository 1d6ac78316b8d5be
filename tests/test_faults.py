"""Fault injection and replica failover.

Chaos contract: under any injected fault — a worker crash mid-sweep, a
replica dying mid-scatter, a broken pool — a replicated deployment must
keep returning pair sets bit-identical to brute force, never raise to
the caller while a survivor remains, and record every degradation in
its counters and trace spans.  The :class:`FaultPlan` harness itself is
pinned first (deterministic, seeded, site-validated), then each
injection site, then the end-to-end differentials.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.engine import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    Query,
    ShardedEngine,
    SpatialQueryEngine,
    WorkerPool,
    merge_snapshots,
)
from repro.engine.shard import HEALTH_FLOOR, PROBE_EVERY
from repro.geom.rect import Rect
from repro.sim.machines import MACHINE_3

from tests.conftest import TEST_SCALE, _uniform, brute_reference

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

#: ``pool.task`` faults fire on shipped tasks only, and the datasets
#: here are far below the executor's solo-ship cutoff.
pytestmark = pytest.mark.usefixtures("ship_every_tile")


def _data(seed=1, n_a=80, n_b=60):
    rng = random.Random(seed)
    return _uniform(rng, n_a), _uniform(rng, n_b, id_base=100_000)


def _single(faults=None, **kw):
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("workers", 2)
    kw.setdefault("cache_capacity", 0)
    kw.setdefault("pool_kind", "thread")
    a, b = _data()
    engine = SpatialQueryEngine(faults=faults, **kw)
    engine.register("a", a, universe=UNIT)
    engine.register("b", b, universe=UNIT)
    return engine, a, b


def _sharded(faults=None, a=None, b=None, **kw):
    kw.setdefault("shards", 2)
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("workers", 2)
    kw.setdefault("cache_capacity", 0)
    kw.setdefault("pool_kind", "serial")
    if a is None:
        a, b = _data()
    engine = ShardedEngine(faults=faults, **kw)
    engine.register("a", a, universe=UNIT)
    engine.register("b", b, universe=UNIT)
    return engine, a, b


class TestFaultRuleValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="pool.tsak", kind="crash")
        # A site that existed once is as unknown as a typo.
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="artifact.load", kind="corrupt")

    def test_kind_invalid_at_site_rejected(self):
        with pytest.raises(ValueError, match="not valid at"):
            FaultRule(site="pool.submit", kind="crash")
        # ``corrupt`` is not a kind any site accepts.
        with pytest.raises(ValueError, match="not valid at"):
            FaultRule(site="pool.task", kind="corrupt")

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="pool.task", kind="crash", times=-1)
        with pytest.raises(ValueError):
            FaultRule(site="pool.task", kind="crash", after=-1)
        with pytest.raises(ValueError):
            FaultRule(site="pool.task", kind="crash", probability=1.5)

    def test_every_site_has_valid_kinds(self):
        from repro.engine.faults import _SITE_KINDS, FAULT_SITES

        assert set(_SITE_KINDS) == set(FAULT_SITES)


class TestFaultPlan:
    def test_after_and_times_window(self):
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="exception",
                      after=2, times=2),
        ])
        fired = [plan.fire("pool.task") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert plan.total_injected == 2

    def test_first_declared_rule_wins(self):
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="slow", times=1),
            FaultRule(site="pool.task", kind="exception", times=1),
        ])
        assert plan.fire("pool.task").kind == "slow"
        assert plan.fire("pool.task").kind == "exception"
        assert plan.fire("pool.task") is None

    def test_match_restricts_by_rendered_attrs(self):
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception",
                      times=None, match="replica=1"),
        ])
        assert plan.fire("shard.execute", shard=0, replica=0) is None
        assert plan.fire("shard.execute", shard=0, replica=1) is not None
        assert plan.fire("shard.execute", shard=3, replica=1) is not None

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan([
                FaultRule(site="pool.task", kind="exception",
                          times=None, probability=0.5),
            ], seed=seed)
            return [plan.fire("pool.task") is not None
                    for _ in range(32)]

        assert pattern(7) == pattern(7)
        assert any(pattern(7)) and not all(pattern(7))

    def test_from_json_round_trip(self):
        plan = FaultPlan.from_json(json.dumps([
            {"site": "pool.task", "kind": "crash", "times": 2},
            {"site": "shard.execute", "kind": "exception",
             "match": "shard=1"},
        ]), seed=3)
        assert len(plan.rules) == 2
        assert plan.rules[0].times == 2
        assert plan.rules[1].match == "shard=1"
        assert plan.seed == 3

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_json('{"site": "pool.task"}')
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultPlan.from_json('[{"site": "pool.task", '
                                '"kind": "crash", "sit": 1}]')

    def test_snapshot_reports_seen_and_fired(self):
        plan = FaultPlan([FaultRule(site="pool.task", kind="slow")])
        plan.fire("pool.task")
        plan.fire("pool.task")
        snap = plan.snapshot()
        assert snap["rules"][0]["seen"] == 2
        assert snap["rules"][0]["fired"] == 1
        assert snap["injected"] == {"pool.task:slow": 1}


class TestPoolFaults:
    """Injection at the pool layer and the executor's recovery."""

    def test_task_exception_propagates_from_future(self):
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="exception"),
        ])
        pool = WorkerPool(1, kind="thread", faults=plan)
        fut = pool.submit(len, (1, 2, 3))
        with pytest.raises(InjectedFault):
            fut.result()
        assert pool.submit(len, (1, 2, 3)).result() == 3
        pool.shutdown()

    def test_task_crash_on_thread_pool_is_broken_executor(self):
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        pool = WorkerPool(1, kind="thread", faults=plan)
        fut = pool.submit(len, (1,))
        with pytest.raises(InjectedCrash):
            fut.result()
        pool.shutdown()

    def test_slow_task_still_returns(self):
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="slow",
                      delay_seconds=0.01),
        ])
        pool = WorkerPool(1, kind="thread", faults=plan)
        assert pool.submit(len, (1, 2)).result() == 2
        assert plan.total_injected == 1
        pool.shutdown()

    def test_worker_crash_recovers_with_identical_pairs(self):
        # The executor's broken-pool path: the tagged future replays
        # the *unwrapped* task inline, so the retry runs fault-free.
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        engine, a, b = _single(faults=plan)
        out = engine.execute(
            Query(relations=("a", "b"), force="pbsm-grid")
        ).result
        assert sorted(out.pairs) == sorted(brute_reference(a, b))
        assert plan.total_injected == 1
        assert engine.worker_pool.fallbacks >= 1
        engine.close()

    def test_process_worker_crash_demotes_and_recovers(self):
        # A real fork actually dies (os._exit) — genuine
        # BrokenProcessPool, global demotion to threads, inline replay.
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        engine, a, b = _single(faults=plan, pool_kind="process")
        out = engine.execute(
            Query(relations=("a", "b"), force="pbsm-grid")
        ).result
        assert sorted(out.pairs) == sorted(brute_reference(a, b))
        snap = engine.worker_pool.snapshot()
        assert snap["kind"] == "thread"
        assert snap["demotions"] >= 1
        engine.close()

    def test_submit_break_runs_inline(self):
        plan = FaultPlan([FaultRule(site="pool.submit", kind="break")])
        engine, a, b = _single(faults=plan)
        out = engine.execute(
            Query(relations=("a", "b"), force="pbsm-grid")
        ).result
        assert sorted(out.pairs) == sorted(brute_reference(a, b))
        assert plan.total_injected == 1
        assert engine.worker_pool.tasks_inline >= 1
        engine.close()

    def test_pool_snapshot_carries_fault_plan(self):
        plan = FaultPlan([FaultRule(site="pool.task", kind="slow")])
        pool = WorkerPool(1, kind="serial", faults=plan)
        assert pool.snapshot()["faults"]["rules"][0]["kind"] == "slow"
        clean = WorkerPool(1, kind="serial")
        assert clean.snapshot()["faults"] is None


class TestReplicaFailover:
    """Scatter-level availability: health, retries, probes, spans."""

    def test_replica_failure_fails_over_same_pairs(self):
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception", times=1),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2, trace=True)
        out = engine.execute(Query(relations=("a", "b")))
        assert sorted(out.result.pairs) == sorted(brute_reference(a, b))
        snap = engine.metrics_snapshot()
        assert snap["failovers"] == 1
        assert snap["retries"] == 1
        assert snap["replica_failures"] == 1
        assert snap["unhealthy_replicas"] == 1
        spans = [s.name for s in _walk(out.trace)]
        assert "failover" in spans
        engine.close()

    def test_kill_one_replica_everywhere_never_raises(self):
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception",
                      times=None, match="replica=0"),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2, shards=2)
        ref = sorted(brute_reference(a, b))
        for _ in range(6):
            out = engine.execute(Query(relations=("a", "b")))
            assert sorted(out.result.pairs) == ref
        snap = engine.metrics_snapshot()
        assert snap["failovers"] >= 1
        assert snap["replica_failures"] >= 2
        # Replica 0 of each shard is pinned unhealthy; replica 1 serves.
        for row in snap["replica_health"]:
            assert row[0] < HEALTH_FLOOR <= row[1]
        engine.close()

    def test_all_replicas_dead_raises_to_caller(self):
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception",
                      times=None),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2)
        with pytest.raises(InjectedFault):
            engine.execute(Query(relations=("a", "b")))
        engine.close()

    def test_unknown_relation_never_retries(self):
        engine, a, b = _sharded(replicas=2)
        with pytest.raises(KeyError):
            engine.execute(Query(relations=("a", "nope")))
        assert engine.metrics_snapshot()["retries"] == 0
        engine.close()

    def test_probe_recovers_replica_health(self):
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception", times=1),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2, shards=1)
        q = Query(relations=("a", "b"))
        engine.execute(q)  # fault fires, one replica marked unhealthy
        assert engine.unhealthy_replicas == 1
        # Sick replicas are re-probed every PROBE_EVERY-th selection;
        # one clean success earns the health floor back.
        for _ in range(2 * PROBE_EVERY):
            engine.execute(q)
        assert engine.unhealthy_replicas == 0
        assert engine.replica_recoveries >= 1
        engine.close()

    def test_primary_serves_until_it_fails_and_again_once_probed(self):
        # after=3: the primary serves three sub-queries and fails the
        # fourth.
        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception",
                      after=3, times=1),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2, shards=1)
        q = Query(relations=("a", "b"))

        def replica():
            return engine.execute(q).result.detail["shard_replicas"][0]

        def served(key):
            return engine.metrics_snapshot()[key]

        assert [replica() for _ in range(3)] == [0, 0, 0]
        assert replica() == 1  # the primary raised: failover
        assert served("failovers") == 1 and engine.unhealthy_replicas == 1
        # Sick, it is the last resort — until the PROBE_EVERY-th
        # selection tries it first and its success recovers it.
        assert ([replica() for _ in range(PROBE_EVERY - 1)]
                == [1] * (PROBE_EVERY - 1))
        assert replica() == 0
        assert engine.unhealthy_replicas == 0
        assert engine.replica_recoveries == 1
        assert [replica() for _ in range(3)] == [0, 0, 0]
        assert served("failovers") == 1 and served("retries") == 1
        engine.close()

    def test_worker_crash_under_sharding_recovers(self):
        # A crashed pool worker is recovered below the scatter layer
        # (broken-pool inline replay), so the sub-query still
        # succeeds — the replicated answer never changes either way.
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        engine, a, b = _sharded(
            faults=plan, replicas=2, pool_kind="thread",
        )
        ref = sorted(brute_reference(a, b))
        for _ in range(3):
            out = engine.execute(
                Query(relations=("a", "b"), force="pbsm-grid")
            )
            assert sorted(out.result.pairs) == ref
        assert plan.total_injected == 1
        engine.close()

    def test_two_fault_sites_at_once_on_a_live_deployment(self):
        # Each site is covered alone above; a chaos run meets them
        # together.  On a live 2 x 2 deployment on a process pool, one
        # primary is dead, so its cold replica ships tiles, and a
        # worker crashes under them.
        a, b = _data(seed=18, n_a=150, n_b=100)
        overlay = Query(relations=("a", "b"), force="pbsm-grid")
        windowed = Query(relations=("a", "b"), force="pbsm-grid",
                         window=Rect(0.1, 0.9, 0.2, 0.8, 0))
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="crash"),
            FaultRule(site="shard.execute", kind="exception"),
        ], seed=7)
        engine, a, b = _sharded(faults=plan, replicas=2,
                                pool_kind="process", a=a, b=b)
        for q in (overlay, windowed, overlay):
            assert sorted(engine.execute(q).result.pairs) == sorted(
                brute_reference(a, b, q.window))
        assert plan.injected == {
            "pool.task:crash": 1, "shard.execute:exception": 1,
        }
        snap = engine.metrics_snapshot()
        assert snap["failovers"] > 0
        assert snap["retries"] >= snap["failovers"]
        assert snap["worker_pool"]["demotions"] == 1
        engine.close()


class TestDifferentialUnderFaults:
    """The assert_same_pairs harness under seeded chaos."""

    def test_replica_death_mid_scatter(self, assert_same_pairs):
        a, b = _data(seed=5)
        assert_same_pairs(
            a, b, replicas=2,
            plan_factory=lambda: FaultPlan([
                FaultRule(site="shard.execute", kind="exception",
                          times=1),
            ]),
            expect_failovers=True,
        )

    def test_windowed_replica_death(self, assert_same_pairs):
        a, b = _data(seed=6)
        assert_same_pairs(
            a, b, window=Rect(0.2, 0.8, 0.1, 0.9, 0), replicas=2,
            plan_factory=lambda: FaultPlan([
                FaultRule(site="shard.execute", kind="exception",
                          times=1),
            ]),
            expect_failovers=True,
        )

    def test_worker_crash_with_replicas(self, assert_same_pairs):
        a, b = _data(seed=7)
        assert_same_pairs(
            a, b, replicas=2, pool_kinds=("thread",),
            plan_factory=lambda: FaultPlan([
                FaultRule(site="pool.task", kind="crash", times=1),
            ]),
        )

    def test_broken_pool_with_replicas(self, assert_same_pairs):
        a, b = _data(seed=8)
        assert_same_pairs(
            a, b, replicas=2,
            plan_factory=lambda: FaultPlan([
                FaultRule(site="pool.submit", kind="break", times=1),
            ]),
        )


class TestFailoverMetrics:
    def test_merge_snapshots_sums_and_recomputes_rate(self):
        merged = merge_snapshots([
            {"failovers": 1, "retries": 2, "replica_failures": 2,
             "queries_executed": 4, "failover_rate": 0.25},
            {"failovers": 1, "retries": 1, "replica_failures": 1,
             "queries_executed": 12, "failover_rate": 0.0833},
        ])
        assert merged["failovers"] == 2
        assert merged["retries"] == 3
        assert merged["replica_failures"] == 3
        assert merged["failover_rate"] == pytest.approx(2 / 16)

    def test_single_engine_snapshot_keeps_key_compat(self):
        engine, a, b = _single()
        snap = engine.metrics_snapshot()
        for key in ("failovers", "retries", "replica_failures",
                    "failover_rate"):
            assert snap[key] == 0
        engine.close()

    def test_prometheus_export_carries_failover_series(self):
        from repro.engine.obs import (
            render_prometheus,
            validate_prometheus,
        )

        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception", times=1),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2)
        engine.execute(Query(relations=("a", "b")))
        text = render_prometheus(engine.metrics_snapshot())
        assert validate_prometheus(text) == []
        assert "repro_engine_failovers 1" in text
        assert "repro_engine_replica_failures 1" in text
        assert 'repro_engine_per_shard_queries_served{shard="0"}' in text
        engine.close()

    def test_run_workload_surfaces_failovers(self):
        from repro.engine import make_workload, run_workload

        plan = FaultPlan([
            FaultRule(site="shard.execute", kind="exception", times=1),
        ])
        engine, a, b = _sharded(faults=plan, replicas=2,
                                cache_capacity=8)
        queries = make_workload(UNIT, 6, seed=3)
        queries = [
            Query(relations=("a", "b"), window=q.window)
            for q in queries
        ]
        report = run_workload(engine, queries)
        assert report["metrics"]["failovers"] >= 1
        assert report["metrics"]["retries"] >= 1
        engine.close()


def _walk(span):
    if span is None:
        return
    yield span
    for child in span.children:
        for s in _walk(child):
            yield s
