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
import os
import pickle
import random
import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor

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
from repro.engine.pool import (
    PIPE_WRITE_BYTES,
    TASKS_PER_WORKER,
    CancelToken,
    DeadlineExceeded,
)
from repro.engine.shard import HEALTH_FLOOR, PROBE_EVERY
from repro.geom.rect import Rect
from repro.sim.machines import MACHINE_3

from tests.conftest import (
    TEST_SCALE,
    _uniform,
    brute_reference,
    dispatch,
    within,
)
from tests.test_pool_leaks import _shm_files

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
    kw.setdefault("pool_kind", "process")
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
        pool = WorkerPool(2, kind="process", faults=plan)
        fut = pool.submit(len, (1, 2, 3))
        with pytest.raises(InjectedFault):
            fut.result()
        assert pool.submit(len, (1, 2, 3)).result() == 3
        pool.shutdown()

    def test_task_crash_on_serial_pool_is_broken_executor(self):
        # No worker to kill: the crash is raised on the coordinator.
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        pool = WorkerPool(2, kind="serial", faults=plan)
        fut = pool.submit(len, (1,))
        with pytest.raises(InjectedCrash):
            fut.result()
        pool.shutdown()

    def test_slow_task_still_returns(self):
        plan = FaultPlan([
            FaultRule(site="pool.task", kind="slow",
                      delay_seconds=0.01),
        ])
        pool = WorkerPool(2, kind="process", faults=plan)
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
        # BrokenProcessPool, global demotion to serial, inline replay.
        plan = FaultPlan([FaultRule(site="pool.task", kind="crash")])
        engine, a, b = _single(faults=plan)
        out = engine.execute(
            Query(relations=("a", "b"), force="pbsm-grid")
        ).result
        assert sorted(out.pairs) == sorted(brute_reference(a, b))
        snap = engine.worker_pool.snapshot()
        assert (snap["kind"], snap["demotions"]) == ("serial", 1)
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


def _sleep_then(arg):
    """A pool task (module-level, so it pickles): sleep, then answer."""
    seconds, value = arg
    time.sleep(seconds)
    return value


def _echo(value):
    return value


def _worker_pids(pool):
    return [worker.proc.pid for worker in pool._procs]


def _spy_submits(pool):
    """Every future the pool hands out, in submission order."""
    shipped = []
    submit = pool.submit

    def spy(fn, payload, units=1):
        shipped.append(submit(fn, payload, units))
        return shipped[-1]

    pool.submit = spy
    return shipped


def _kill_a_worker_at_the_second_submit(pool):
    """Like :func:`_spy_submits`, and a worker is SIGKILLed right after
    the second submission."""
    shipped = _spy_submits(pool)
    submit = pool.submit

    def kill_at_the_second(fn, payload, units=1):
        fut = submit(fn, payload, units)
        if len(shipped) == 2:
            os.kill(_worker_pids(pool)[0], signal.SIGKILL)
        return fut

    pool.submit = kill_at_the_second
    return shipped


def _hot(rng, n, id_base):
    """Four dense blobs: few tiles, each thousands of rectangles with
    thousands of pairs."""
    corners = ((0.1, 0.1), (0.1, 0.6), (0.6, 0.1), (0.6, 0.6))
    out = []
    for i in range(n):
        cx, cy = corners[i % 4]
        x, y = cx + rng.random() * 0.05, cy + rng.random() * 0.05
        out.append(Rect(x, x + rng.random() * 0.01,
                        y, y + rng.random() * 0.01, id_base + i))
    return out


class TestProcessTransport:
    """The process pool's pipes: two callers on one pool, a worker
    killed from outside, payloads and results larger than a pipe
    buffer, and cancellation before and after a task is written.

    Each waits, and shuts its pool down, under a timeout: a transport
    that hangs fails here instead of stalling the suite."""

    def test_two_threads_share_one_pool_each_waiting_for_its_own(self):
        # The slow caller holds the reader role while the fast one's
        # tasks come back: the reader completes them for it, and the
        # two callers are the only threads the pool's use adds.
        before = set(threading.enumerate())
        pool = WorkerPool(2, kind="process")
        pool.prestart()
        got = {"slow": [], "fast": []}
        finished = {}
        threads_seen = []

        def slow_caller():
            for i in range(2):
                got["slow"].append(
                    pool.submit(_sleep_then, (0.6, f"slow{i}")).result()
                )
            finished["slow"] = time.monotonic()

        def fast_caller():
            for i in range(10):
                got["fast"].append(
                    pool.submit(_sleep_then, (0.01, i)).result()
                )
                threads_seen.append(
                    len(set(threading.enumerate()) - before)
                )
            finished["fast"] = time.monotonic()

        def both():
            slow = threading.Thread(target=slow_caller)
            slow.start()
            time.sleep(0.1)  # the slow caller is reading by now
            fast = threading.Thread(target=fast_caller)
            fast.start()
            fast.join()
            slow.join()

        try:
            within(30, both)
        finally:
            within(30, pool.shutdown)
        assert got == {"slow": ["slow0", "slow1"], "fast": list(range(10))}
        assert finished["fast"] < finished["slow"]
        # The test's runner thread and the two callers; no pool thread.
        assert max(threads_seen) == 3

    def test_many_callers_on_more_workers_than_cores_each_get_theirs(self):
        # Six threads submit in bursts and wait in turns, with the
        # interpreter switching threads every 10 us: the reader role
        # changes hands constantly.  A completion lost in a hand-over
        # hangs a caller; a future completed with another task's
        # answer shows in the values.
        workers = (os.cpu_count() or 1) + 1
        pool = WorkerPool(workers, kind="process")
        pool.prestart()
        rounds, burst = 15, 3
        got = {}

        def caller(c):
            mine = []
            for r in range(rounds):
                futures = [pool.submit(_sleep_then, (0.0, (c, r, i)))
                           for i in range(burst)]
                mine += [f.result() for f in futures]
            got[c] = mine

        def run_all():
            threads = [threading.Thread(target=caller, args=(c,))
                       for c in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            within(60, run_all)
        finally:
            sys.setswitchinterval(interval)
            within(30, pool.shutdown)
        assert got == {
            c: [(c, r, i) for r in range(rounds) for i in range(burst)]
            for c in range(6)
        }
        assert pool.tasks_dispatched == 6 * rounds * burst
        assert pool.fallbacks == 0

    def test_a_worker_killed_mid_task_breaks_every_outstanding_future(self):
        pool = WorkerPool(2, kind="process")
        pool.prestart()
        try:
            futures = [pool.submit(_sleep_then, (0.5, i)) for i in range(6)]
            os.kill(_worker_pids(pool)[0], signal.SIGKILL)
            errors = within(30, lambda: [f.exception() for f in futures])
            assert all(isinstance(e, BrokenExecutor) for e in errors), errors
            # The pool demoted itself where it saw the pipe close: the
            # next task runs inline.
            assert pool.submit(len, (1, 2)).result() == 2
            assert (pool.kind, pool.demotions) == ("serial", 1)
        finally:
            within(30, pool.shutdown)

    def test_a_worker_killed_mid_query_still_returns_exact_pairs(self):
        plan = FaultPlan([FaultRule(site="pool.task", kind="slow",
                                    delay_seconds=0.2, times=None)])
        engine, a, b = _single(faults=plan)
        shipped = _kill_a_worker_at_the_second_submit(
            engine.worker_pool.pool)
        try:
            out = within(60, lambda: engine.execute(
                Query(relations=("a", "b"), force="pbsm-grid")
            ))
            assert sorted(out.result.pairs) == sorted(brute_reference(a, b))
            assert len(shipped) > 2
            assert isinstance(shipped[0].exception(), BrokenExecutor)
            snap = engine.worker_pool.snapshot()
            assert (snap["kind"], snap["demotions"]) == ("serial", 1)
        finally:
            within(30, engine.close)

    def test_hot_tiles_pickled_by_value_complete_on_a_process_pool(self):
        # Shared memory off: the tiles travel in the pipe, larger than
        # a busy worker may be sent, and the pairs come back larger
        # than a socket buffer.
        rng = random.Random(5)
        a, b = _hot(rng, 4000, 0), _hot(rng, 4000, 100_000)
        query = Query(relations=("a", "b"), force="pbsm-grid")
        results = {}
        for kind in ("serial", "process"):
            engine = SpatialQueryEngine(
                scale=TEST_SCALE, workers=2, pool_kind=kind,
                cache_capacity=0, artifact_cache_bytes=0,
            )
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            pool = engine.worker_pool.pool
            shipped = _spy_submits(pool)
            try:
                with dispatch(SHM_MIN_BYTES=float("inf")):
                    results[kind] = within(
                        60, lambda: engine.execute(query).result.pairs
                    )
                snap = engine.worker_pool.snapshot()
            finally:
                within(30, engine.close)
        assert (snap["kind"], snap["fallbacks"]) == ("process", 0)
        assert snap["shm"]["bytes_packed"] == 0
        sizes = [len(pickle.dumps((f._repro_fn, f._repro_payload)))
                 for f in shipped]
        assert len(sizes) >= 2 and max(sizes) > 2 * PIPE_WRITE_BYTES
        assert sorted(results["process"]) == sorted(results["serial"])
        assert len(results["process"]) > 100_000

    def test_payloads_and_results_beyond_a_pipe_buffer_never_deadlock(self):
        # Six echoes of half a megabyte on two workers: each worker
        # blocks writing its answer until it is read, so a third task
        # written to a busy worker would block the writer for ever.
        blob = bytes(range(256)) * 2048
        assert len(blob) > 2 * PIPE_WRITE_BYTES
        pool = WorkerPool(2, kind="process")
        pool.prestart()
        try:
            echoed = within(30, lambda: [
                f.result() for f in
                [pool.submit(_echo, blob if i % 3 else b"small")
                 for i in range(9)]
            ])
            assert echoed == [blob if i % 3 else b"small" for i in range(9)]
            assert pool.fallbacks == 0
        finally:
            within(30, pool.shutdown)

    def test_a_queued_task_cancels_and_a_written_one_does_not(self):
        pool = WorkerPool(2, kind="process")
        pool.prestart()
        try:
            written = 2 * TASKS_PER_WORKER
            futures = [pool.submit(_sleep_then, (0.3, i))
                       for i in range(written + 2)]
            assert all(f.running() for f in futures[:written])
            assert [f.cancel() for f in futures] == (
                [False] * written + [True] * 2
            )
            assert within(30, lambda: [
                f.result() for f in futures[:written]
            ]) == list(range(written))
        finally:
            within(30, pool.shutdown)

    def test_a_deadline_counts_what_it_cancelled(self):
        # Every task sleeps past the deadline.  The first one gathered
        # observes the token in its worker; the tasks behind it that
        # were never written are cancelled, the written ones are not
        # (nor one that finished alongside the first, its freed slot
        # taking a queued task): pool.tasks_cancelled counts the first
        # and the cancelled.
        plan = FaultPlan([FaultRule(site="pool.task", kind="slow",
                                    delay_seconds=0.3, times=None)])
        engine, _a, _b = _single(faults=plan)
        shipped = _spy_submits(engine.worker_pool.pool)
        token = CancelToken(time.monotonic() + 0.15)
        try:
            with pytest.raises(DeadlineExceeded):
                within(30, lambda: engine.execute(
                    Query(relations=("a", "b"), force="pbsm-grid"),
                    cancel=token,
                ))
            running = [f for f in shipped if f.running()]
            cancelled = [f for f in shipped if f.cancelled()]
            finished = [f for f in shipped if f.done() and not f.cancelled()]
            assert isinstance(shipped[0].exception(), DeadlineExceeded)
            assert len(running) <= 2 * TASKS_PER_WORKER and cancelled
            assert len(finished + running + cancelled) == len(shipped)
            snap = engine.worker_pool.snapshot()
            assert snap["pool_tasks_cancelled"] == len(cancelled) + 1
        finally:
            within(30, engine.close)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs Linux /proc")
class TestDemotion:
    """A process pool that breaks — it cannot start, a submit finds it
    broken, or a worker dies under a query — is demoted to serial once.
    The query still returns exact pairs, every later task runs on the
    coordinator, no pool is started again, and the broken pool leaves
    no worker, descriptor or shared-memory segment behind."""

    QUERY = Query(relations=("a", "b"), force="pbsm-grid")

    @pytest.mark.parametrize("where", (
        "at_start", "injected_at_submit", "broken_at_submit",
        "worker_killed_mid_query",
    ))
    def test_a_broken_pool_turns_serial_once_and_leaves_nothing(
            self, where, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.engine import pool as pool_mod

        resource_tracker.ensure_running()
        fds = _open_fds()
        plan = None
        if where == "at_start":
            def no_fork():
                raise OSError("no fork here")

            monkeypatch.setattr(pool_mod, "_fork_context", no_fork)
        elif where == "injected_at_submit":
            plan = FaultPlan([FaultRule(site="pool.submit", kind="break")])
        elif where == "worker_killed_mid_query":
            plan = FaultPlan([FaultRule(site="pool.task", kind="slow",
                                        delay_seconds=0.2, times=None)])
        engine, a, b = _single(faults=plan)
        pool = engine.worker_pool.pool
        try:
            engine.prepare()
            workers = [] if where == "at_start" else _worker_pids(pool)
            if where == "broken_at_submit":
                for worker in list(pool._procs):
                    os.kill(worker.proc.pid, signal.SIGKILL)
                    worker.proc.join(30)
                # The pool learns it is broken when the query's first
                # shipped task is written to a dead pipe.
            elif where == "worker_killed_mid_query":
                _kill_a_worker_at_the_second_submit(pool)
            ref = sorted(brute_reference(a, b))
            # Every shipped tile travels in a shared-memory segment.
            with dispatch(SHM_MIN_BYTES=0):
                first = within(60, lambda: engine.execute(self.QUERY))
                assert sorted(first.result.pairs) == ref
                created = pool.pools_created
                assert created == (0 if where == "at_start" else 1)
                for _ in range(3):
                    out = engine.execute(self.QUERY)
                    assert sorted(out.result.pairs) == ref
            snap = pool.snapshot()
            assert (snap["kind"], snap["demotions"]) == ("serial", 1)
            assert (snap["pools_created"], snap["started"]) == (
                created, False)
            assert (snap["shm"]["segments_created"] > 0) == (
                where != "at_start")
            assert not [pid for pid in workers
                        if os.path.exists(f"/proc/{pid}")]
            assert _open_fds() == fds
            assert not _shm_files()
        finally:
            within(30, engine.close)


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
            faults=plan, replicas=2, pool_kind="process",
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
            a, b, replicas=2, pool_kinds=("process",),
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
