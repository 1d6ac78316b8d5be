"""Concurrent serving front-end: admission, deadlines, shedding, chaos.

The serving layer's contract has three legs, each tested here:

* **Liveness under load** — queries park in a bounded queue instead of
  failing with :class:`AdmissionError`; every released grant pumps the
  queue; overload sheds oldest-batch-first; the incoming batch query
  sheds itself rather than evicting interactive work.
* **Deadlines are cooperative, not corrupting** — expiry fires at
  queue and scatter checkpoints only, so an expired query frees its
  admission grant and leaves every shared structure (caches, budget)
  consistent; the chaos differential run asserts zero
  budget leak after a thousand mixed-fate queries.
* **Accounting** — the LPT critical-path sim model
  (:func:`lpt_makespan`) and the replica ordering are pinned with
  exact numbers.
"""

from __future__ import annotations

import ast
import asyncio
import functools
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import (
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    Query,
    ResourceBudget,
    ServingFrontend,
    ShardedEngine,
    SpatialQueryEngine,
    engine_for_dataset,
    lpt_makespan,
    make_workload,
    render_prometheus,
    run_workload,
    serve_http,
)
from repro.engine.obs import SlowQueryLog
from repro.engine.serve import parse_query_body
from repro.geom.rect import Rect
from repro.sim.machines import MACHINE_3
from repro.sim.scale import QUICK_SCALE

from tests.conftest import TEST_SCALE, _uniform, brute_reference

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def _make_sharded(shards: int = 2, **kw) -> ShardedEngine:
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("workers", 2)
    kw.setdefault("pool_kind", "serial")
    kw.setdefault("cache_capacity", 0)
    return ShardedEngine(shards=shards, **kw)


def _registered(shards: int = 2, n: int = 120, seed: int = 3,
                **kw) -> ShardedEngine:
    engine = _make_sharded(shards, **kw)
    rng = random.Random(seed)
    engine.register("a", _uniform(rng, n), universe=UNIT)
    engine.register("b", _uniform(rng, n, 10_000), universe=UNIT)
    return engine


def _frontend(engine, **kw) -> ServingFrontend:
    kw.setdefault("admission_bytes", 8 << 20)
    return ServingFrontend(engine, **kw)


def _registered_single(n: int = 120, seed: int = 3,
                       **kw) -> SpatialQueryEngine:
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("pool_kind", "serial")
    kw.setdefault("cache_capacity", 0)
    engine = SpatialQueryEngine(**kw)
    rng = random.Random(seed)
    engine.register("a", _uniform(rng, n), universe=UNIT)
    engine.register("b", _uniform(rng, n, 10_000), universe=UNIT)
    return engine


# -- try_acquire -------------------------------------------------------------


class TestTryAcquire:
    def test_grants_exactly_or_refuses(self):
        budget = ResourceBudget(100)
        g = budget.try_acquire("q", 60)
        assert g is not None and g.bytes == 60
        assert budget.try_acquire("q", 50) is None, (
            "try_acquire must refuse rather than overcommit"
        )
        assert budget.in_use_bytes == 60
        g2 = budget.try_acquire("q", 40)
        assert g2 is not None
        g.release()
        g2.release()
        assert budget.in_use_bytes == 0

    def test_negative_rejected(self):
        budget = ResourceBudget(10)
        with pytest.raises(ValueError):
            budget.try_acquire("q", -1)

    def test_zero_bytes_always_granted(self):
        budget = ResourceBudget(1)
        g = budget.try_acquire("q", 1)
        assert budget.try_acquire("q", 0) is not None
        g.release()


# -- LPT critical path -------------------------------------------------------


class TestLptMakespan:
    def test_pinned_two_lane_schedule(self):
        # LPT on 2 lanes: 4 | 3+2 -> then 2 joins lane 0 (4+2=6),
        # 1 joins lane 1 (5+1=6): makespan 6, not the 12 a serial
        # sum would bill.
        assert lpt_makespan([4, 3, 2, 2, 1], 2) == pytest.approx(6.0)

    def test_one_lane_degenerates_to_sum(self):
        assert lpt_makespan([4, 3, 2], 1) == pytest.approx(9.0)

    def test_more_lanes_than_shards_is_max(self):
        assert lpt_makespan([4.0, 3.0], 8) == pytest.approx(4.0)

    def test_empty_is_zero(self):
        assert lpt_makespan([], 4) == 0.0

    def test_sharded_sim_accounting_is_critical_path(self):
        """Regression: scatter sim must equal the LPT makespan of the
        per-shard engine deltas, never their sum."""
        engine = _registered(shards=3, n=200)
        walls_before = [e.metrics.sim_wall_seconds
                        for e in engine.engines]
        out = engine.execute(Query(relations=("a", "b")))
        walls = [
            e.metrics.sim_wall_seconds - b
            for e, b in zip(engine.engines, walls_before)
        ]
        walls = [w for w in walls if w > 0]
        assert len(walls) == 3, "a full overlay scatters to every shard"
        assert out.sim_wall_seconds == pytest.approx(
            lpt_makespan(walls, engine.scatter_lanes)
        )
        assert out.sim_wall_seconds < sum(walls), (
            "the critical path must be cheaper than the serial sum"
        )
        assert engine.metrics_snapshot()["sim_wall_seconds"] == (
            pytest.approx(out.sim_wall_seconds)
        )
        engine.close()

    def test_single_worker_deployment_bills_the_sum(self):
        engine = _registered(shards=2, workers=1)
        assert engine.scatter_lanes == 1
        walls_before = [e.metrics.sim_wall_seconds
                        for e in engine.engines]
        out = engine.execute(Query(relations=("a", "b")))
        walls = [
            e.metrics.sim_wall_seconds - b
            for e, b in zip(engine.engines, walls_before)
        ]
        assert out.sim_wall_seconds == pytest.approx(sum(walls))
        engine.close()


# -- replica selection -------------------------------------------------------


class TestReplicaSelection:
    def test_serial_replays_pick_the_same_replicas(self):
        # Replica choice reads health alone, never a measured latency:
        # two fresh 2 x 2 deployments replaying one workload serially
        # pick the same replica for every sub-query, so their
        # simulated clocks (which see each replica's warm or cold
        # artifact cache) agree to the bit.
        def replay():
            sharded = engine_for_dataset(
                "NJ", QUICK_SCALE, shards=2, replicas=2,
                pool_kind="serial",
            )
            queries = make_workload(
                sharded.universe_of("roads"), 60, seed=5
            )
            picked = [
                sorted(out.result.detail["shard_replicas"].items())
                for out in map(sharded.execute, queries)
                if not out.from_cache
            ]
            sim_wall = sharded.metrics_snapshot()["sim_wall_seconds"]
            sharded.close()
            return picked, sim_wall

        first, second = replay(), replay()
        assert first[0] and first[0] == second[0]
        assert first[1] > 0 and first[1] == second[1]


# -- front-end fates ---------------------------------------------------------


def _submit_all(frontend, coros):
    async def gather():
        return await asyncio.gather(*coros)

    return asyncio.run(gather())


class TestFrontendFates:
    def test_single_query_ok(self):
        engine = _registered()
        with _frontend(engine) as fe:
            resp = asyncio.run(
                fe.submit(Query(relations=("a", "b")))
            )
            assert resp.ok and resp.status == "ok"
            assert resp.pairs == resp.result.result.n_pairs > 0
            assert fe.served_ok == 1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_contention_queues_instead_of_admission_error(self):
        engine = _registered()
        # One interactive grant's worth of budget: 6 concurrent
        # queries must serialize through the queue, not fail.
        with _frontend(engine, admission_bytes=1 << 20) as fe:
            responses = _submit_all(fe, [
                fe.submit(Query(relations=("a", "b")))
                for _ in range(6)
            ])
            assert all(r.ok for r in responses)
            assert fe.queued_total >= 5
            assert fe.queue_high_water >= 1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_oversized_class_is_rejected_cleanly(self):
        engine = _registered()
        with _frontend(engine, admission_bytes=1 << 20) as fe:
            resp = asyncio.run(
                fe.submit(Query(relations=("a", "b")), "batch")
            )  # batch grant (4 MiB) exceeds the whole budget
            assert resp.status == "rejected"
            assert fe.rejected == 1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_overload_sheds_oldest_batch_first(self):
        engine = _registered()

        async def overload(fe):
            first = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            await asyncio.sleep(0)  # let it take the only grant
            # Queue depth 2 fills with one batch + one interactive.
            parked = [
                asyncio.ensure_future(
                    fe.submit(Query(relations=("a", "a")), "batch")),
                asyncio.ensure_future(
                    fe.submit(Query(relations=("b", "b")))),
            ]
            await asyncio.sleep(0)
            # The next arrival overflows the queue: the parked batch
            # query is the shed victim, not either interactive one.
            extra = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            return await asyncio.gather(first, *parked, extra)

        with _frontend(engine, admission_bytes=4,
                       grant_bytes={"interactive": 3, "batch": 4},
                       queue_depth=2) as fe:
            first, batch, inter, extra = asyncio.run(overload(fe))
            assert batch.status == "shed"
            assert first.ok and inter.ok and extra.ok
            assert fe.shed == 1
            assert fe.per_class["batch"]["shed"] == 1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_incoming_batch_sheds_itself_over_interactive(self):
        engine = _registered()

        async def overload(fe):
            first = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            await asyncio.sleep(0)
            parked = asyncio.ensure_future(
                fe.submit(Query(relations=("b", "b"))))
            await asyncio.sleep(0)
            late_batch = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "a")), "batch"))
            return await asyncio.gather(first, parked, late_batch)

        with _frontend(engine, admission_bytes=4,
                       grant_bytes={"interactive": 3, "batch": 4},
                       queue_depth=1) as fe:
            first, parked, late_batch = asyncio.run(overload(fe))
            assert late_batch.status == "shed", (
                "a batch arrival must not evict interactive waiters"
            )
            assert first.ok and parked.ok
        engine.close()

    def test_queued_deadline_expires_and_releases_nothing(self):
        engine = _registered()

        async def scenario(fe):
            first = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            await asyncio.sleep(0)
            doomed = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "a")),
                          deadline_seconds=1e-4))
            return await asyncio.gather(first, doomed)

        with _frontend(engine, admission_bytes=1 << 20) as fe:
            first, doomed = asyncio.run(scenario(fe))
            assert first.ok
            assert doomed.status == "expired"
            assert fe.expired == 1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_degraded_reply_marks_failover(self):
        engine = _registered(
            replicas=2,
            faults=FaultPlan([
                FaultRule(site="shard.execute", kind="exception",
                          times=1),
            ]),
        )
        with _frontend(engine) as fe:
            resp = asyncio.run(
                fe.submit(Query(relations=("a", "b")))
            )
            assert resp.ok
            assert resp.degraded, (
                "a failover reply must be flagged degraded"
            )
            assert fe.served_degraded == 1
        engine.close()

    def test_close_resolves_parked_waiters_as_shed(self):
        engine = _registered()
        fe = _frontend(engine, admission_bytes=1 << 20)

        async def scenario():
            # Hold the whole budget so the submit must park.
            hold = fe.admission.try_acquire("hold", 1 << 20)
            task = asyncio.create_task(
                fe.submit(Query(relations=("a", "b")))
            )
            await asyncio.sleep(0.02)
            assert len(fe._queue) == 1
            fe.close()  # must resolve the waiter, not strand it
            resp = await asyncio.wait_for(task, timeout=2.0)
            hold.release()
            return resp

        resp = asyncio.run(scenario())
        assert resp.status == "shed"
        assert fe.shed == 1
        engine.close()

    def test_cancelled_parked_caller_releases_everything(self):
        # The obvious client-side timeout: a caller cancelled while
        # its query is parked must take its waiter with it, or the
        # next pump grants a future nobody reads and that grant is
        # never released.
        engine = _registered()
        q = Query(relations=("a", "b"))

        async def scenario(fe):
            first = asyncio.ensure_future(fe.submit(q))
            await asyncio.sleep(0)  # it holds the only grant
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(fe.submit(q), 0.001)
            assert (await first).ok
            return await asyncio.wait_for(fe.submit(q), 5.0)

        with _frontend(engine, admission_bytes=1 << 20) as fe:
            follow_up = asyncio.run(scenario(fe))
            assert follow_up.ok, "the deployment wedged"
            snap = fe.snapshot()
            assert snap["admission"]["in_use_bytes"] == 0
            assert snap["queue_length"] == 0 and snap["in_flight"] == 0
            assert (snap["served_ok"], snap["expired"]) == (2, 1)
            assert snap["submitted"] == 3 == (
                snap["served_ok"] + snap["shed"] + snap["expired"]
                + snap["rejected"] + snap["errors"]
            )
        engine.close()

    def test_cancelled_running_caller_stops_the_engine(self):
        # Cancelled mid-execution: the grant goes back at once, so the
        # engine thread must not run on — the token is flagged and the
        # thread stops at its next checkpoint.
        engine = _registered()
        execute = engine.execute
        running = threading.Event()
        stopped = []

        def slow(query, cancel=None):
            running.set()
            try:
                for _ in range(5000):
                    cancel()
                    time.sleep(0.001)
            except DeadlineExceeded:
                stopped.append(query)
                raise
            raise AssertionError("the engine was never told to stop")

        async def scenario(fe):
            engine.execute = slow
            task = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            while not running.is_set():
                await asyncio.sleep(0.001)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert fe.admission.in_use_bytes == 0
            engine.execute = execute
            return await fe.submit(Query(relations=("a", "b")))

        with _frontend(engine, max_concurrency=1) as fe:
            # One serving thread: the follow-up runs only once the
            # cancelled query's thread has actually stopped.
            follow_up = asyncio.run(scenario(fe))
            assert follow_up.ok and len(stopped) == 1
            snap = fe.snapshot()
            assert snap["admission"]["in_use_bytes"] == 0
            assert snap["in_flight"] == 0
            assert snap["submitted"] == 2 == (
                snap["served_ok"] + snap["expired"]
            )
            assert snap["per_class"]["interactive"]["expired"] == 1
        engine.close()

    def test_unknown_class_raises(self):
        engine = _registered()
        with _frontend(engine) as fe:
            with pytest.raises(ValueError, match="query class"):
                asyncio.run(
                    fe.submit(Query(relations=("a", "b")), "bulk")
                )
        engine.close()


# -- fault sites -------------------------------------------------------------


class TestServeFaultSites:
    def test_queue_exception_fails_admission(self):
        engine = _registered()
        plan = FaultPlan([
            FaultRule(site="serve.queue", kind="exception", times=1),
        ])
        with _frontend(engine, faults=plan) as fe:
            bad = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            ok = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            assert bad.status == "error"
            assert "injected" in bad.error
            assert ok.ok, "the fault fires once, service resumes"
            assert fe.errors == 1
            assert fe.admission.in_use_bytes == 0
        assert plan.injected["serve.queue:exception"] == 1
        engine.close()

    def test_single_engine_front_end_joins_the_engines_plan(self):
        # ``repro serve --faults`` on an unsharded deployment builds the
        # front-end with no ``faults=``: it must take the engine's plan.
        plan = FaultPlan([
            FaultRule(site="serve.queue", kind="exception", times=1),
        ])
        engine = _registered_single(faults=plan)
        with _frontend(engine) as fe:
            assert fe.faults is plan
            bad = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            ok = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            assert bad.status == "error"
            assert "injected" in bad.error
            assert ok.ok
        assert plan.injected["serve.queue:exception"] == 1
        engine.close()

    def test_deadline_exception_forces_expiry_and_frees_grant(self):
        engine = _registered()
        plan = FaultPlan([
            FaultRule(site="serve.deadline", kind="exception", times=1),
        ])
        with _frontend(engine, faults=plan) as fe:
            bad = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            assert bad.status == "expired"
            assert fe.expired == 1
            assert fe.admission.in_use_bytes == 0, (
                "the forced expiry must release its grant"
            )
            assert engine.metrics_snapshot()["queries_served"] == 0, (
                "the query must never reach the engine"
            )
        engine.close()

    def test_slow_rules_delay_but_serve(self):
        engine = _registered()
        plan = FaultPlan([
            FaultRule(site="serve.queue", kind="slow",
                      delay_seconds=0.001, times=1),
            FaultRule(site="serve.deadline", kind="slow",
                      delay_seconds=0.001, times=1),
        ])
        with _frontend(engine, faults=plan) as fe:
            resp = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            assert resp.ok
        assert plan.total_injected == 2
        engine.close()


# -- chaos differential ------------------------------------------------------


class TestChaosDifferential:
    def test_mixed_fate_thousand_queries_leak_nothing(self):
        """1k queries with every fate in play: queued, shed, expired,
        injected faults, failovers — answers stay correct and not one
        admission byte leaks."""
        queries = [
            Query(relations=("a", "b")),
            Query(relations=("a", "a")),
            Query(relations=("a", "b"),
                  window=Rect(0.0, 0.5, 0.0, 0.5, 0)),
            Query(relations=("b", "b"),
                  window=Rect(0.3, 0.9, 0.3, 0.9, 0)),
        ]
        # Serial ground truth from an identical fault-free deployment.
        clean = _registered(replicas=2, cache_capacity=64)
        expected = {
            i: clean.execute(q).result.n_pairs
            for i, q in enumerate(queries)
        }
        clean.close()
        engine = _registered(
            replicas=2, cache_capacity=64,
            faults=FaultPlan([
                FaultRule(site="serve.queue", kind="exception",
                          times=5, after=10),
                FaultRule(site="serve.deadline", kind="exception",
                          times=5, after=20),
                FaultRule(site="shard.execute", kind="exception",
                          times=1, after=5),
            ]),
        )
        rng = random.Random(97)

        async def storm(fe):
            sem = asyncio.Semaphore(16)

            async def one(j):
                i = j % len(queries)
                deadline = 1e-4 if rng.random() < 0.1 else None
                cls = "batch" if rng.random() < 0.3 else "interactive"
                async with sem:
                    resp = await fe.submit(queries[i], cls, deadline)
                return i, resp

            return await asyncio.gather(
                *(one(j) for j in range(1000))
            )

        with _frontend(engine, admission_bytes=6 << 20,
                       queue_depth=8, max_concurrency=4) as fe:
            outcomes = asyncio.run(storm(fe))
            fates = {}
            for i, resp in outcomes:
                fates[resp.status] = fates.get(resp.status, 0) + 1
                if resp.ok:
                    assert resp.pairs == expected[i], (
                        "a served answer must never be corrupted by "
                        "shed/expired/faulted neighbours"
                    )
            assert fe.submitted == 1000
            assert fates["ok"] > 0
            assert fates.get("error", 0) >= 1, "queue faults fired"
            assert fates.get("expired", 0) >= 1
            assert sum(fates.values()) == 1000
            # The robustness bottom line: nothing leaked.
            assert fe.admission.in_use_bytes == 0
            assert fe.in_flight == 0
            assert len(fe._queue) == 0
        # Engine-side, only the long-lived artifact-cache grants may
        # remain (reclaimed on close); every query-scoped grant must
        # have been released.
        held = {
            cat: n
            for e in engine.all_engines
            for cat, n in e.budget.snapshot()["by_category"].items()
            if n
        }
        assert set(held) <= {"artifacts"}, held
        engine.close()


# -- concurrent callers ------------------------------------------------------


def _serve_concurrently(fe, queries, clients, batch_share=0.25):
    """Every query through ``fe.submit``, at most ``clients`` in flight
    (the semaphore-and-gather shape of the chaos differential above),
    deterministically classed interactive / batch."""
    rng = random.Random(11)
    classes = ["batch" if rng.random() < batch_share else "interactive"
               for _ in queries]

    async def drive():
        sem = asyncio.Semaphore(clients)

        async def one(query, query_class):
            async with sem:
                return await fe.submit(query, query_class)

        return await asyncio.gather(*map(one, queries, classes))

    return asyncio.run(drive())


class TestConcurrentWorkloadDriver:
    def test_closed_loop_matches_serial_pairs(self):
        engine = _registered(n=150)
        queries = make_workload(UNIT, 24, seed=7)
        # make_workload names relations roads/hydro; remap onto ours.
        queries = [
            Query(relations=("a", "b"), window=q.window)
            for q in queries
        ]
        serial = run_workload(engine, queries)
        engine.close()
        engine = _registered(n=150)
        before = engine.metrics_snapshot()
        with _frontend(engine, admission_bytes=6 << 20,
                       max_concurrency=6) as fe:
            responses = _serve_concurrently(fe, queries, clients=6)
            s = fe.snapshot()
        after = engine.metrics_snapshot()
        engine.close()
        assert len(responses) == 24 and all(r.ok for r in responses)
        assert sum(r.pairs for r in responses) == serial["pairs_returned"]
        assert s["served_ok"] == s["submitted"] == 24
        for fate in ("shed", "expired", "rejected", "errors"):
            assert s[fate] == 0, fate
        assert s["admission"]["in_use_bytes"] == 0
        assert s["queued_total"] >= 0
        assert after["latency_count"] - before["latency_count"] == 24
        assert after["latency_p95_seconds"] >= (
            after["latency_p50_seconds"]
        )
        assert after["sim_wall_seconds"] > before["sim_wall_seconds"]

    def test_burst_saturation_sheds_not_errors(self):
        # 40 submits gathered at once against one serving thread and a
        # depth-2 queue: arrival outruns service, so the front-end must
        # shed rather than queue without bound.
        engine = _registered(n=150)
        queries = [Query(relations=("a", "b"))] * 40
        with _frontend(engine, queue_depth=2, admission_bytes=4 << 20,
                       max_concurrency=1) as fe:
            responses = _serve_concurrently(
                fe, queries, clients=len(queries), batch_share=0.5,
            )
            s = fe.snapshot()
        engine.close()
        assert s["shed"] > 0, "a 40-query burst into queue=2 must shed"
        assert s["rejected"] == 0
        assert s["errors"] == 0
        assert s["admission"]["in_use_bytes"] == 0
        assert sum(r.ok for r in responses) == s["served_ok"] > 0
        # Bounded, counted rather than timed: the queue never outgrew
        # its depth and every arrival met exactly one fate by the end.
        assert s["queue_high_water"] <= 2 and s["queue_length"] == 0
        assert s["submitted"] == 40 == (
            s["served_ok"] + s["served_degraded"] + s["shed"]
            + s["expired"]
        )


# -- single-engine serialization ---------------------------------------------


def _record_lock_order(engine) -> list:
    """The queries in the order ``engine``'s own lock granted them.

    Every query passes ``cache.get`` inside the lock, so that is where
    the order is read; a wrapper around ``execute`` would see arrival
    order instead.
    """
    granted = []
    current = threading.local()
    execute, get = engine.execute, engine.cache.get

    def recording_execute(query, **kw):
        current.query = query
        return execute(query, **kw)

    def recording_get(key):
        granted.append(current.query)
        return get(key)

    engine.execute = recording_execute
    engine.cache.get = recording_get
    return granted


class TestSingleEngineSerialization:
    QUERIES = [
        Query(relations=("a", "b"), window=q.window)
        for q in make_workload(UNIT, 24, seed=7)
    ]

    def _assert_serial_replay(self, granted, pairs, before, after):
        # Eight threads take the engine lock in no fixed order, and a
        # query's cost depends on what ran before it (buffer-pool LRU
        # state): the serial baseline replays the order the lock
        # granted.
        assert sorted(map(id, granted)) == sorted(map(id, self.QUERIES))
        engine = _registered_single(n=150)
        serial = run_workload(engine, granted)
        engine.close()
        # With execute serialized the env page counter deltas and
        # metrics cannot interleave: totals match the serial run bit
        # for bit (a race here shows up as corrupted sums).
        assert pairs == serial["pairs_returned"]
        assert after["pages_read"] - before["pages_read"] == (
            serial["metrics"]["pages_read"]
        )
        assert after["sim_wall_seconds"] - before["sim_wall_seconds"] == (
            pytest.approx(serial["sim_wall_seconds"])
        )

    def test_bare_engine_serializes_eight_threads(self):
        rng = random.Random(3)
        a, b = _uniform(rng, 150), _uniform(rng, 150, 10_000)
        engine = _registered_single(n=150)
        granted = _record_lock_order(engine)
        before = engine.metrics_snapshot()
        outs = [None] * len(self.QUERIES)
        start = threading.Barrier(8)

        def client(i: int) -> None:
            start.wait()
            for j in range(i, len(self.QUERIES), 8):
                outs[j] = engine.execute(self.QUERIES[j])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        # A short switch interval makes the eight threads interleave
        # inside any unguarded read-modify-write.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        after = engine.metrics_snapshot()
        engine.close()
        for query, out in zip(self.QUERIES, outs):
            assert set(out.result.pairs) == brute_reference(
                a, b, query.window
            )
        self._assert_serial_replay(
            granted, sum(out.result.n_pairs for out in outs), before, after
        )

    def test_concurrent_single_engine_matches_serial_accounting(self):
        engine = _registered_single(n=150)
        granted = _record_lock_order(engine)
        before = engine.metrics_snapshot()
        with _frontend(engine, admission_bytes=8 << 20,
                       max_concurrency=8) as fe:
            responses = _serve_concurrently(fe, self.QUERIES, clients=8)
            errors = fe.snapshot()["errors"]
        after = engine.metrics_snapshot()
        engine.close()
        assert len(responses) == 24 and all(r.ok for r in responses)
        assert errors == 0
        self._assert_serial_replay(
            granted, sum(r.pairs for r in responses), before, after
        )


# -- what the serving layer reports ------------------------------------------


def test_a_cache_hit_replays_no_failover():
    # ``degraded`` describes one serve: the failed-over answer is
    # cached, but a later hit on it failed nothing over.
    plan = FaultPlan([
        FaultRule("shard.execute", "exception", match="replica=0"),
    ])
    engine = _registered(faults=plan, replicas=2, cache_capacity=64)
    query = Query(relations=("a", "b"))
    with _frontend(engine) as fe:
        first = asyncio.run(fe.submit(query))
        second = asyncio.run(fe.submit(query))
        served = fe.snapshot()
    snap = engine.metrics_snapshot()
    engine.close()
    assert first.ok and first.degraded
    assert first.to_dict()["degraded"] is True
    assert second.ok and second.result.from_cache
    assert not second.degraded and "degraded" not in second.to_dict()
    assert second.pairs == first.pairs
    assert served["served_degraded"] == snap["failovers"] == 1


# -- result-cache hits on the event loop -------------------------------------


_ENGINES = {
    "single": _registered_single,
    "sharded": functools.partial(_registered, replicas=2),
}

#: The counters a served query leaves, engine side and front-end side.
_HIT_COUNTERS = ("result_cache_hits", "result_cache_misses", "cache_hits",
                 "queries_served", "queries_executed", "pairs_returned",
                 "latency_count")


def _counters(fe) -> dict:
    snap = fe.metrics_snapshot()
    serve = snap["serve"]
    log = snap["slow_query_log"]
    return {
        **{k: snap[k] for k in _HIT_COUNTERS},
        "served_ok": serve["served_ok"],
        "per_class": serve["per_class"],
        "slow_log": (log["offered"], log["admitted"]),
    }


class _WatchedLock:
    """A lock that records which threads wait for it."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.waiting = threading.Event()
        self.waiters: list = []

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            self.waiters.append(threading.current_thread())
            self.waiting.set()
        return self.lock.acquire(blocking, timeout)

    def release(self) -> None:
        self.lock.release()

    def __enter__(self) -> "_WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class TestHitsOnTheLoop:
    QUERY = Query(relations=("a", "b"))

    @pytest.mark.parametrize("deployment", sorted(_ENGINES))
    def test_a_hit_needs_no_serve_thread(self, deployment):
        engine = _ENGINES[deployment](cache_capacity=8)

        async def scenario(fe):
            first = await fe.submit(self.QUERY)
            # From here on the thread pool refuses every query.
            fe._executor.shutdown(wait=True)
            return (first, await fe.submit(self.QUERY),
                    await fe.submit(Query(relations=("b", "a"))))

        with _frontend(engine) as fe:
            first, warm, cold = asyncio.run(scenario(fe))
            snap = fe.snapshot()
        engine.close()
        assert first.ok and not first.result.from_cache
        assert warm.ok and warm.result.from_cache
        assert warm.pairs == first.pairs
        assert cold.status == "error"
        assert (snap["served_ok"], snap["served_on_loop"]) == (2, 1)
        assert snap["in_flight_high_water"] == 1

    @pytest.mark.parametrize("deployment", sorted(_ENGINES))
    def test_a_hit_counts_what_the_thread_path_counts(self, deployment):
        def serve(loop_path: bool):
            engine = _ENGINES[deployment](cache_capacity=8)
            engine.slow_log = SlowQueryLog(4)
            if not loop_path:
                engine.cached_reply = lambda query, cancel=None: None
            with _frontend(engine) as fe:
                replies = [asyncio.run(fe.submit(self.QUERY, cls))
                           for cls in ("interactive", "batch", "batch")]
                counters = _counters(fe)
                on_loop = fe.served_on_loop
            engine.close()
            return replies, counters, on_loop

        loop_replies, on_loop, served_on_loop = serve(True)
        thread_replies, on_thread, served_on_thread = serve(False)
        assert (served_on_loop, served_on_thread) == (2, 0)
        assert on_loop == on_thread
        assert on_loop["result_cache_hits"] == 2
        assert on_loop["per_class"]["batch"]["ok"] == 2
        assert [r.result.from_cache for r in loop_replies] == [
            r.result.from_cache for r in thread_replies
        ] == [False, True, True]
        assert [r.pairs for r in loop_replies] == [
            r.pairs for r in thread_replies
        ]

    @pytest.mark.parametrize("deployment", sorted(_ENGINES))
    def test_an_expired_token_on_a_hit_counts_no_hit(self, deployment):
        engine = _ENGINES[deployment](cache_capacity=8)
        lookup = engine.cached_reply

        def expire_then_look(query, cancel):
            # The deadline passes between the dispatch check and the
            # lookup: the engine checks the token before counting.
            cancel.cancel()
            return lookup(query, cancel)

        with _frontend(engine) as fe:
            assert asyncio.run(fe.submit(self.QUERY)).ok
            engine.cached_reply = expire_then_look
            late = asyncio.run(fe.submit(self.QUERY))
            snap = fe.metrics_snapshot()
        engine.close()
        assert late.status == "expired"
        assert snap["result_cache_hits"] == snap["cache_hits"] == 0
        assert snap["result_cache_misses"] == 1
        serve = snap["serve"]
        assert (serve["expired"], serve["served_on_loop"]) == (1, 0)
        assert serve["admission"]["in_use_bytes"] == 0

    def test_a_hit_behind_a_held_lock_waits_on_a_thread(self):
        engine = _registered_single(cache_capacity=8)
        watched = engine._lock = _WatchedLock(engine._lock)

        async def scenario(fe):
            assert (await fe.submit(self.QUERY)).ok
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            watched.lock.acquire()
            try:
                task = asyncio.ensure_future(fe.submit(self.QUERY))
                while fe.in_flight == 0:
                    await asyncio.sleep(0.001)
                # The query waits for the lock on a serve thread; the
                # loop goes on answering.
                health = await _http(port, "GET", "/healthz")
                assert not task.done()
            finally:
                watched.lock.release()
            reply = await task
            server.close()
            await server.wait_closed()
            return health, reply

        with _frontend(engine) as fe:
            health, reply = asyncio.run(scenario(fe))
            snap = fe.metrics_snapshot()
        engine.close()
        assert health[0] == 200
        assert reply.ok and reply.result.from_cache
        assert snap["result_cache_hits"] == 1
        assert snap["serve"]["served_on_loop"] == 0
        # Only serve threads ever waited: the loop (this thread) tried
        # the lock without blocking.
        assert watched.waiters
        assert threading.current_thread() not in watched.waiters

    @pytest.mark.parametrize("deployment", sorted(_ENGINES))
    def test_no_cache_never_takes_the_loop_path(self, deployment):
        engine = _ENGINES[deployment](cache_capacity=0)
        with _frontend(engine) as fe:
            replies = [asyncio.run(fe.submit(self.QUERY)) for _ in range(3)]
            snap = fe.metrics_snapshot()
        engine.close()
        assert all(r.ok and not r.result.from_cache for r in replies)
        assert snap["serve"]["served_on_loop"] == 0
        assert snap["result_cache_misses"] == 3
        assert snap["result_cache_hits"] == 0


@pytest.mark.parametrize("deployment", sorted(_ENGINES))
def test_register_waits_for_the_lock_that_guards_the_cache(deployment):
    # The cache's lookups hold the lock; so must its invalidation, or a
    # re-registration mutates the cache under a concurrent lookup.
    engine = _ENGINES[deployment](cache_capacity=8)
    query = Query(relations=("a", "b"))
    engine.execute(query)
    stale = engine._result_key(query)
    watched = engine._lock = _WatchedLock(engine._lock)
    rects = _uniform(random.Random(5), 60, 20_000)
    register = threading.Thread(
        target=engine.register, args=("a", rects), kwargs={"universe": UNIT}
    )
    with watched.lock:
        register.start()
        assert watched.waiting.wait(timeout=30)
        assert engine.cache.peek(stale) is not None
        assert engine._result_key(query) == stale
    register.join(timeout=30)
    assert not register.is_alive()
    assert len(engine.cache) == 0
    assert engine._result_key(query) != stale
    assert not engine.execute(query).from_cache
    engine.close()


def _harness_series():
    """The series ``benchmarks/e2e/run.py::counted_metrics`` scrapes:
    ``(plain names, labelled names)``, without the ``repro_engine_``
    prefix."""
    run_py = Path(__file__).resolve().parents[1] / "benchmarks/e2e/run.py"
    tree = ast.parse(run_py.read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "counted_metrics")
    plain, labelled = set(), set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and isinstance(node.args[-1], ast.Constant)):
            if node.func.id == "d":
                plain.add(node.args[-1].value)
            elif node.func.id == "labelled":
                labelled.add(node.args[-1].value)
        elif (isinstance(node, ast.BinOp)
              and isinstance(node.left, ast.Name) and node.left.id == "p"
              and isinstance(node.right, ast.Constant)):
            plain.add(node.right.value)
    return plain, labelled


#: Read by the harness, served by no deployment of this tree (it reads
#: them as 0): the scatter-only series on a single engine, and a
#: replica-choice counter that went with the latency EWMA.
_UNSERVED = {
    "single": {"per_shard_queries_served", "shards_pruned_total",
               "duplicates_eliminated", "weighted_reroutes"},
    "sharded": {"weighted_reroutes"},
}


@pytest.mark.parametrize("deployment", ["single", "sharded"])
def test_prometheus_carries_every_series_the_harness_scrapes(deployment):
    plain, labelled = _harness_series()
    assert {"serve_submitted", "pairs_returned", "failovers", "retries",
            "sim_wall_seconds", "cpu_ops", "worker_pool_fallbacks",
            "result_cache_hits", "artifact_cache_bytes",
            "budget_high_water_bytes"} <= plain
    assert labelled == {"per_strategy", "per_shard_queries_served"}
    engine = (_registered_single(cache_capacity=8)
              if deployment == "single"
              else _registered(replicas=2, cache_capacity=8))
    with _frontend(engine) as fe:
        for query in (Query(relations=("a", "b")),
                      Query(relations=("a", "b")),
                      Query(relations=("a", "b"),
                            window=Rect(0.0, 0.3, 0.0, 0.3, 0)),
                      Query(relations=("a", "b"), collect_pairs=False)):
            assert asyncio.run(fe.submit(query)).ok
        text = render_prometheus(fe.metrics_snapshot())
    engine.close()
    samples = [line.rsplit(" ", 1)[0] for line in text.splitlines()
               if not line.startswith("#")]
    served = {s[len("repro_engine_"):] for s in samples if "{" not in s}
    served_labelled = {s[len("repro_engine_"):s.index("{")]
                       for s in samples if "{" in s}
    unserved = _UNSERVED[deployment]
    assert plain - served == unserved - labelled
    assert labelled - served_labelled == unserved & labelled

# -- HTTP endpoint -----------------------------------------------------------


async def _http(port: int, method: str, path: str,
                body: bytes = b"") -> tuple:
    # A one-shot client: Connection: close opts out of the endpoint's
    # keep-alive default so reading to EOF terminates.
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Connection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, payload


async def _read_response(reader) -> tuple:
    """One framed response off a persistent connection."""
    status_line = await reader.readline()
    status = int(status_line.split(b" ")[1])
    length = 0
    connection = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection":
            connection = value.strip().lower()
    body = await reader.readexactly(length)
    return status, body, connection


class TestHttpEndpoint:
    def test_query_metrics_and_health(self):
        engine = _registered()

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            health = await _http(port, "GET", "/healthz")
            ok = await _http(
                port, "POST", "/query",
                json.dumps({"relations": ["a", "b"],
                            "count_only": True}).encode(),
            )
            bad = await _http(port, "POST", "/query", b"not json")
            # 400s that never reach submit: the scrape below counts 1.
            for garbage in (b'"window": [NaN, 1, 0, 1]',
                            b'"window": [5, 1, 0, 1]',
                            b'"deadline_ms": true'):
                status, _ = await _http(
                    port, "POST", "/query",
                    b'{"relations": ["a", "b"], ' + garbage + b"}",
                )
                assert status == 400, garbage
            missing = await _http(port, "GET", "/nope")
            wrong_method = await _http(port, "GET", "/query")
            metrics = await _http(port, "GET", "/metrics")
            server.close()
            await server.wait_closed()
            return health, ok, bad, missing, wrong_method, metrics

        with _frontend(engine) as fe:
            (health, ok, bad, missing, wrong_method,
             metrics) = asyncio.run(scenario(fe))
        assert health[0] == 200
        assert ok[0] == 200
        served = json.loads(ok[1])
        assert served["status"] == "ok" and served["pairs"] > 0
        assert bad[0] == 400
        assert missing[0] == 404
        assert wrong_method[0] == 405
        assert metrics[0] == 200
        # Pin the documented namespace: every serve counter exports
        # under repro_engine_serve_*, and nothing escapes the
        # repro_engine prefix.
        from repro.engine.obs import validate_prometheus

        text = metrics[1].decode("utf-8")
        assert validate_prometheus(text, prefix="repro_engine") == []
        assert "repro_engine_serve_submitted 1" in text
        assert "repro_engine_latency_count 1" in text
        assert "repro_engine_serve_aged_promotions" in text
        engine.close()

    def test_numpy_engine_answers_without_boxing_a_pair(self,
                                                        monkeypatch):
        # From the sweep kernel to the reply, a partitioned plan's
        # pairs stay int64 columns: turning them into tuples anywhere
        # on the way (merge, window filter, shard gather, cache fill,
        # cache hit, the reply's count) is the regression this pins.
        from repro.core import pbsm
        from repro.core.columnar import ColumnarTile, PairColumns
        from tests.conftest import (
            brute_reference,
            dispatch,
            force_strategies,
        )

        rng = random.Random(19)
        a = _uniform(rng, 700)
        b = _uniform(rng, 500, 10_000)
        window = Rect(0.2, 0.7, 0.1, 0.6, 0)
        engine = _make_sharded(2, pool_kind="process", cache_capacity=8)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        shards = engine.all_engines
        force_strategies(shards, ["pbsm-grid"] * len(shards))

        def boxed(*_args, **_kwargs):
            raise AssertionError("a result pair was boxed into a tuple")

        monkeypatch.setattr(PairColumns, "__iter__", boxed)
        monkeypatch.setattr(PairColumns, "__getitem__", boxed)

        # Nor does a rectangle leave its columns on the way in: every
        # tile is swept by the numpy kernel, none decoded for python's.
        def decoded(*_args, **_kwargs):
            raise AssertionError("a tile took the python sweep")

        monkeypatch.setattr(pbsm, "forward_sweep_pairs_batched", decoded)
        monkeypatch.setattr(ColumnarTile, "decode", decoded)

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            replies = []
            for body in ({"relations": ["a", "b"]},
                         {"relations": ["a", "b"],
                          "window": list(window[:4])},
                         {"relations": ["a", "b"]}):
                replies.append(await _http(
                    port, "POST", "/query", json.dumps(body).encode(),
                ))
            server.close()
            await server.wait_closed()
            return replies

        with dispatch(MIN_SHIP_RECTS=0), _frontend(engine) as fe:
            replies = asyncio.run(scenario(fe))
        assert [status for status, _ in replies] == [200, 200, 200]
        counts = [json.loads(body)["pairs"] for _, body in replies]
        assert counts == [len(brute_reference(a, b)),
                          len(brute_reference(a, b, window)),
                          len(brute_reference(a, b))]
        assert counts[1] > 0
        snap = engine.metrics_snapshot()
        assert snap["cache_hits"] == 1
        cached = list(engine.cache._entries.values())
        assert len(cached) == 2 and all(
            isinstance(r.pairs, PairColumns) and len(r.pairs) == r.n_pairs
            for r in cached
        )
        assert set(snap["per_strategy"]) == {"pbsm-grid"}, snap[
            "per_strategy"
        ]
        engine.close()

    def test_a_pool_forked_mid_request_lets_the_reply_end(self):
        # Never prepare()d, the engine forks its pool inside the first
        # query, on a serve thread, while the client's socket is open.
        # A worker that kept its copy of that socket would hold the
        # connection open, and a Connection: close reply would not end.
        from tests.conftest import dispatch, force_strategies, within

        rng = random.Random(29)
        a, b = _uniform(rng, 600), _uniform(rng, 400, 10_000)
        engine = SpatialQueryEngine(scale=TEST_SCALE, machine=MACHINE_3,
                                    workers=2, pool_kind="process",
                                    cache_capacity=0)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        force_strategies([engine], ["pbsm-grid"])

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _http(port, "POST", "/query", json.dumps(
                    {"relations": ["a", "b"]}).encode())
            finally:
                server.close()
                await server.wait_closed()

        try:
            with dispatch(MIN_SHIP_RECTS=0, INLINE_PLAN_OPS=0), \
                    _frontend(engine) as fe:
                assert not engine.worker_pool.started
                status, body = within(20, lambda: asyncio.run(scenario(fe)))
            assert status == 200
            assert json.loads(body)["pairs"] == len(brute_reference(a, b))
            assert engine.worker_pool.pools_created == 1
            assert engine.worker_pool.tasks_dispatched > 0
        finally:
            engine.close()

    def test_hostile_content_length_gets_a_response(self):
        engine = _registered()

        async def raw(port: int, head: str) -> int:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(head.encode("ascii"))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=2.0)
            writer.close()
            assert data, "the server must answer, not kill the task"
            return int(data.split(b" ")[1])

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            # Negative length: the body's extent is unknown -> 400.
            negative = await raw(
                port,
                "POST /query HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n"
                "Content-Length: -7\r\n\r\n",
            )
            # Absurd length: refused outright, never buffered — and
            # past the drain cap the response forces the close this
            # client reads to.
            huge = await raw(
                port,
                "POST /query HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {64 << 20}\r\n\r\n",
            )
            # Keep-alive variants: a head that does not frame its body,
            # the body, then a good request pipelined behind it.  One
            # 400 that closes; the rest is never read as a request.
            body = json.dumps({"relations": ["a", "b"]}).encode()
            good = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            unframed = []
            for header in ("Content-Length: abc", "Content-Length: -7",
                           f"Content-Length: {len(body)}\r\n"
                           "Content-Length: 3",
                           "Transfer-Encoding: chunked"):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(f"POST /query HTTP/1.1\r\nHost: t\r\n"
                             f"{header}\r\n\r\n".encode() + body + good)
                await writer.drain()
                status, _, connection = await _read_response(reader)
                tail = await asyncio.wait_for(reader.read(), timeout=2.0)
                writer.close()
                unframed.append((status, connection, tail))
            handlers = len(asyncio.all_tasks()) - 1
            server.close()
            await server.wait_closed()
            return negative, huge, unframed, handlers

        with _frontend(engine) as fe:
            negative, huge, unframed, handlers = asyncio.run(scenario(fe))
            assert fe.submitted == 0
        assert negative == 400
        assert huge == 413
        assert unframed == [(400, "close", b"")] * 4
        assert handlers == 0, "a connection handler is still parked"
        engine.close()

    def test_keep_alive_serves_many_requests_on_one_connection(self):
        engine = _registered()

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            body = json.dumps({"relations": ["a", "b"],
                               "count_only": True}).encode()
            req = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n"
                   ).encode("ascii") + body
            # Pipelined: both requests are on the wire before either
            # response; the server answers them in order.
            writer.write(req + req)
            await writer.drain()
            first = await _read_response(reader)
            second = await _read_response(reader)
            closing = (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                       f"Connection: close\r\n"
                       f"Content-Length: {len(body)}\r\n\r\n"
                       ).encode("ascii") + body
            writer.write(closing)
            await writer.drain()
            third = await _read_response(reader)
            tail = await asyncio.wait_for(reader.read(), timeout=2.0)
            writer.close()
            server.close()
            await server.wait_closed()
            return first, second, third, tail

        with _frontend(engine) as fe:
            first, second, third, tail = asyncio.run(scenario(fe))
            assert fe.served_ok == 3
        for status, body, connection in (first, second):
            assert status == 200
            assert connection == "keep-alive"
            assert json.loads(body)["status"] == "ok"
        assert third[0] == 200 and third[2] == "close"
        assert tail == b"", (
            "the server must close after Connection: close"
        )
        engine.close()

    def test_oversized_body_drained_keeps_connection_usable(self):
        """A 413 must leave the stream positioned at the next request
        line, not mid-body — the satellite bug this PR fixes."""
        engine = _registered()
        from repro.engine.serve import MAX_BODY_BYTES

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            junk = b"x" * (MAX_BODY_BYTES + 1)
            writer.write(
                (f"POST /query HTTP/1.1\r\nHost: t\r\n"
                 f"Content-Length: {len(junk)}\r\n\r\n"
                 ).encode("ascii") + junk
            )
            await writer.drain()
            too_large = await _read_response(reader)
            # A GET with a declared body must be drained too.
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 4\r\n\r\njunk"
            )
            await writer.drain()
            health = await _read_response(reader)
            writer.close()
            server.close()
            await server.wait_closed()
            return too_large, health

        with _frontend(engine) as fe:
            too_large, health = asyncio.run(scenario(fe))
        assert too_large[0] == 413
        assert too_large[2] == "keep-alive"
        assert health[0] == 200, (
            "the second request must parse cleanly after the drained "
            "oversized body"
        )
        engine.close()

    def test_parse_query_body_validation(self):
        good = parse_query_body(json.dumps({
            "relations": ["a", "b"],
            "window": [0.0, 0.5, 0.0, 0.5],
            "class": "batch",
            "deadline_ms": 250,
        }).encode())
        assert good["query"].relations == ("a", "b")
        assert good["query"].window == Rect(0.0, 0.5, 0.0, 0.5, 0)
        assert good["query_class"] == "batch"
        assert good["deadline_seconds"] == pytest.approx(0.25)
        for payload in (
            {"relations": ["a"]},
            {"relations": ["a", "b"], "window": [1, 2, 3]},
            {"relations": ["a", "b"], "class": "bulk"},
            {"relations": ["a", "b"], "deadline_ms": -5},
            {"relations": ["a", "b"], "bogus": 1},
            {"relations": ["a", "b"], "window": [float("nan"), 1, 0, 1]},
            {"relations": ["a", "b"],
             "window": [float("-inf"), float("inf"), 0, 1]},
            {"relations": ["a", "b"], "window": [True, False, 0, 1]},
            {"relations": ["a", "b"], "window": [5, 1, 0, 1]},
            {"relations": ["a", "b"], "window": [0, 1, 0, 10 ** 400]},
            {"relations": ["a", "b"], "deadline_ms": True},
            {"relations": ["a", "b"], "count_only": "yes"},
            {"relations": ["a", "b"], "count_only": 1},
        ):
            with pytest.raises(ValueError):
                parse_query_body(json.dumps(payload).encode())

    @pytest.mark.parametrize("make", [_registered, _registered_single])
    def test_client_typos_are_400s_that_take_no_grant(self, make):
        # An unknown relation name or a non-boolean count_only is the
        # client's mistake: answered before admission, so no grant is
        # issued and neither ``errors`` nor ``submitted`` moves.
        engine = make()

        async def scenario(fe):
            server = await serve_http(fe, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            replies = [
                await _http(port, "POST", "/query",
                            json.dumps(body).encode())
                for body in (
                    {"relations": ["a", "nope"]},
                    {"relations": ["a", ""]},
                    {"relations": ["a", "b"], "count_only": "yes"},
                    {"relations": ["a", "b"], "count_only": True},
                )
            ]
            server.close()
            await server.wait_closed()
            return replies

        with _frontend(engine) as fe:
            unknown, empty, truthy, served = asyncio.run(scenario(fe))
            snap = fe.snapshot()
        assert unknown[0] == empty[0] == truthy[0] == 400
        # The catalog's own message, not a repr of it.
        assert json.loads(unknown[1])["error"].startswith(
            "unknown relation 'nope'; registered: a, b")
        assert "unknown relation ''" in json.loads(empty[1])["error"]
        assert "count_only" in json.loads(truthy[1])["error"]
        assert served[0] == 200
        assert snap["submitted"] == snap["served_ok"] == 1
        assert snap["errors"] == 0
        assert snap["admission"]["grants_issued"] == 1
        engine.close()


# -- cancellation checkpoints ------------------------------------------------


class TestCancellationCheckpoints:
    def test_cancel_raises_between_shards_not_mid_answer(self):
        engine = _registered()
        calls = {"n": 0}

        def cancel():
            calls["n"] += 1
            if calls["n"] > 1:
                raise DeadlineExceeded("expired mid-scatter")

        with pytest.raises(DeadlineExceeded):
            engine.execute(Query(relations=("a", "b")), cancel=cancel)
        # The abandoned query must leave the deployment serviceable
        # and its accounting clean.
        out = engine.execute(Query(relations=("a", "b")))
        assert out.result.n_pairs > 0
        assert engine.metrics_snapshot()["budget_in_use_bytes"] == 0
        engine.close()

    def test_cancel_noop_when_never_raising(self):
        engine = _registered()
        seen = []
        out = engine.execute(Query(relations=("a", "b")),
                             cancel=lambda: seen.append(1))
        assert out.result.n_pairs > 0
        assert len(seen) >= 2, (
            "entry and gather checkpoints must both fire"
        )
        engine.close()


# -- priority aging ----------------------------------------------------------


class TestPriorityAging:
    def test_aged_batch_survives_shedding_young_batch_sheds(self):
        """Sustained interactive pressure must not starve a parked
        batch query forever: past ``aging_seconds`` it is promoted,
        and the shed victim becomes the *youngest un-promoted* batch
        waiter instead."""
        engine = _registered()

        async def scenario(fe):
            # Hold the whole admission budget so every arrival parks.
            hold = fe.admission.try_acquire("hold", 4)
            b_old = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "a")), "batch"))
            await asyncio.sleep(0)
            await asyncio.sleep(0.12)  # park b_old past aging_seconds
            b_young = asyncio.ensure_future(
                fe.submit(Query(relations=("b", "b")), "batch"))
            await asyncio.sleep(0)  # queue now full at depth 2
            inter = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            await asyncio.sleep(0)  # overflow: age, then shed
            hold.release()
            fe._pump()
            return await asyncio.gather(b_old, b_young, inter)

        with _frontend(engine, admission_bytes=4,
                       grant_bytes={"interactive": 3, "batch": 4},
                       queue_depth=2, aging_seconds=0.05) as fe:
            b_old, b_young, inter = asyncio.run(scenario(fe))
            assert b_young.status == "shed", (
                "the un-promoted batch waiter absorbs the overload"
            )
            assert b_old.ok, (
                "the aged batch waiter must survive shedding and serve"
            )
            assert inter.ok
            assert fe.aged_promotions == 1
            snap = fe.snapshot()
            assert snap["aged_promotions"] == 1
            assert snap["queue_age_max_seconds"]["batch"] >= 0.1
            assert fe.admission.in_use_bytes == 0
        engine.close()

    def test_aging_disabled_keeps_pure_batch_first_shedding(self):
        engine = _registered()

        async def scenario(fe):
            hold = fe.admission.try_acquire("hold", 4)
            b_old = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "a")), "batch"))
            await asyncio.sleep(0)
            await asyncio.sleep(0.12)
            inter = asyncio.ensure_future(
                fe.submit(Query(relations=("a", "b"))))
            await asyncio.sleep(0)  # overflow the depth-1 queue
            hold.release()
            fe._pump()
            return await asyncio.gather(b_old, inter)

        with _frontend(engine, admission_bytes=4,
                       grant_bytes={"interactive": 3, "batch": 4},
                       queue_depth=1, aging_seconds=0) as fe:
            b_old, inter = asyncio.run(scenario(fe))
            assert b_old.status == "shed", (
                "with aging off, the old batch waiter still sheds first"
            )
            assert inter.ok
            assert fe.aged_promotions == 0
        engine.close()


# -- deadline propagation into the pool --------------------------------------


class TestPoolDeadlinePropagation:
    def test_expired_query_reclaims_pool_tasks_without_leaks(
            self, ship_every_tile):
        """The tentpole's acceptance gate: a deadline that expires
        mid-scatter must show reclaimed pool work
        (``pool_tasks_cancelled > 0``) and leak neither admission nor
        engine budget bytes."""
        from repro.engine.pool import CancelToken  # noqa: F401

        # Worker-side slow faults pin both pool workers for 50 ms per
        # task, so a 20 ms deadline reliably expires while tasks are
        # in flight and others are still queued behind them.
        engine = _registered_single(
            n=400, pool_kind="process", workers=2,
            faults=FaultPlan([
                FaultRule(site="pool.task", kind="slow",
                          delay_seconds=0.05, times=2),
            ]),
        )
        with _frontend(engine) as fe:
            doomed = asyncio.run(fe.submit(
                Query(relations=("a", "b")), deadline_seconds=0.02,
            ))
            assert doomed.status == "expired"
            assert fe.expired == 1
            pool = engine.worker_pool.snapshot()
            assert pool["pool_tasks_cancelled"] > 0, (
                "cancellation must reclaim shipped pool tasks"
            )
            assert fe.admission.in_use_bytes == 0
            assert engine.budget.snapshot()["in_use_bytes"] == 0
            assert engine.metrics.queries_cancelled == 1
            # The deployment stays serviceable (faults exhausted).
            ok = asyncio.run(fe.submit(Query(relations=("a", "b"))))
            assert ok.ok and ok.pairs > 0
        engine.close()

    def test_cancel_token_pickles_with_state(self):
        import pickle
        import time as _time

        from repro.engine.pool import CancelToken

        token = CancelToken(_time.monotonic() + 60.0)
        clone = pickle.loads(pickle.dumps(token))
        assert not clone.cancelled
        token.cancel()
        assert token.cancelled
        assert not clone.cancelled, (
            "a pre-cancel clone must carry only the deadline"
        )
        flagged = pickle.loads(pickle.dumps(token))
        assert flagged.cancelled, (
            "the cancelled flag must survive pickling"
        )
        with pytest.raises(DeadlineExceeded):
            flagged()

    def test_sharded_deadline_does_not_trip_failover(self):
        """A replica raising DeadlineExceeded is a cancelled query,
        not a sick replica: no failover, no retry."""
        import time as _time

        from repro.engine.pool import CancelToken

        engine = _registered(replicas=2)
        token = CancelToken(_time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded):
            engine.execute(Query(relations=("a", "b")), cancel=token)
        snap = engine.metrics_snapshot()
        assert snap["failovers"] == 0
        assert snap["retries"] == 0
        assert snap["budget_in_use_bytes"] == 0
        out = engine.execute(Query(relations=("a", "b")))
        assert out.result.n_pairs > 0
        engine.close()
