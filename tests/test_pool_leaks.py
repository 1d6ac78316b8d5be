"""The pool's leak ledger: what shipping tiles leaves behind.

Shared-memory shipping has two ends that can leak — the coordinator's
segments and tile-ref cache, and every worker's attached mappings and
file descriptors — and neither shows in a pair set.  These tests ship
a few hundred tasks and then read the ledger: worker fds and
``repro-`` mappings from ``/proc``, the manager's counters, and
``/dev/shm`` itself.  CI also runs this file under ``ulimit -n 256``,
where an attach leak is an ``EMFILE`` instead of a slow climb.
"""

from __future__ import annotations

import gc
import glob
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.columnar import ColumnarTile
from repro.engine import Query, SpatialQueryEngine, WorkerPool
from repro.engine import pool as pool_mod
from repro.engine.executor import sweep_tile_task
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.pool import CancelToken, DeadlineExceeded
from repro.geom.rect import Rect

from tests.conftest import (
    TEST_SCALE,
    _clustered,
    _uniform,
    brute_reference,
    child_env,
    dispatch,
    within,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
)


def _worker_ledger(hold_seconds: float):
    """Runs on a pool worker: ``(pid, open fds, repro- mappings)``.

    Holding the worker for a moment lets a second probe reach the
    other worker instead of queueing behind this one.
    """
    time.sleep(hold_seconds)
    with open("/proc/self/maps") as fh:
        mappings = sum(1 for line in fh if "repro-" in line)
    return os.getpid(), len(os.listdir("/proc/self/fd")), mappings


def _ledgers(engine, workers: int = 2):
    pool = engine.worker_pool.pool
    for _ in range(20):
        futures = [pool.submit(_worker_ledger, 0.05)
                   for _ in range(2 * workers)]
        seen = {pid: (fds, maps)
                for pid, fds, maps in (f.result() for f in futures)}
        if len(seen) == workers:
            return seen
    raise AssertionError(f"only reached workers {sorted(seen)}")


def _shipping_engine(**kwargs):
    engine = SpatialQueryEngine(
        scale=TEST_SCALE, workers=2, pool_kind="process",
        cache_capacity=0, artifact_cache_bytes=0, **kwargs,
    )
    rects = _clustered(random.Random(23), 400)
    engine.register("a", rects, universe=UNIT)
    engine.prepare()
    return engine, rects


def _shm_files():
    return glob.glob(f"/dev/shm/repro-{os.getpid()}-*")


@pytest.fixture(autouse=True)
def _ship_everything_by_shm():
    # Every tile a task of its own, every task above the shm floor,
    # and a repeated plan ships again however cheap it measured.
    with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0, INLINE_PLAN_OPS=0):
        yield


@needs_proc
@pytest.mark.parametrize("recycle", (True, False))
def test_workers_hold_a_bounded_number_of_segments(recycle, monkeypatch):
    # Workers are forked at prepare(): they inherit the patched bound.
    bound = 4
    monkeypatch.setattr(pool_mod, "ATTACH_CACHE_SEGMENTS", bound)
    if not recycle:
        # Every task a new name: the worker-side bound on its own.
        monkeypatch.setattr(pool_mod, "FREE_SEGMENTS", 0)
    engine, rects = _shipping_engine()
    try:
        ref = brute_reference(rects)
        pool = engine.worker_pool.pool
        before = _ledgers(engine)
        shipped = pool.tasks_dispatched
        for _ in range(300):
            out = engine.execute(Query(relations=("a", "a")))
            if pool.tasks_dispatched - shipped >= 300:
                break
        assert pool.tasks_dispatched - shipped >= 300
        assert set(out.result.pairs) == ref
        snap = pool.shm.snapshot()
        if recycle:
            # One query's tasks return their segments together.
            assert snap["segments_created"] <= pool_mod.FREE_SEGMENTS
            assert snap["segments_recycled"] >= 300 - snap["segments_created"]
        else:
            assert snap["segments_created"] >= 300
            assert snap["segments_recycled"] == 0
        after = _ledgers(engine)
        assert sorted(after) == sorted(before), "a worker was replaced"
        for pid, (fds, mappings) in after.items():
            # An attach is one mapping and two descriptors; the probe
            # runs between tasks, so nothing is pinned open.
            assert mappings <= bound, (pid, mappings)
            assert fds - before[pid][0] <= 2 * bound, (pid, fds)
        gc.collect()
        assert len(pool.shm._tile_refs) == 0
    finally:
        engine.close()
    shm = engine.worker_pool.shm
    assert shm.open_segments == shm.mapped_segments == 0
    assert not _shm_files()


def test_a_task_cancelled_mid_flight_gives_up_its_segment():
    # Two slow tasks hold both workers; the coordinator then stalls
    # until the deadline has passed, so the gather's first checkpoint
    # gives up with both of them still asleep on their segments.
    engine, rects = _shipping_engine(faults=FaultPlan([
        FaultRule(site="pool.task", kind="slow", delay_seconds=0.3,
                  times=2),
    ]))
    token = CancelToken(time.monotonic() + 0.05)
    pool = engine.worker_pool.pool
    shipped = []
    submit = pool.submit

    def stall_once_both_workers_are_held(fn, payload, units=1):
        if len(shipped) == 2:
            # Handed to a worker, a future can no longer be cancelled:
            # it is done only after the worker's 0.3 s sleep.
            while not all(fut.running() for fut in shipped):
                time.sleep(0.001)
            time.sleep(max(0.0, token.deadline - time.monotonic()))
        shipped.append(submit(fn, payload, units))
        return shipped[-1]

    pool.submit = stall_once_both_workers_are_held
    shm = engine.worker_pool.shm
    released = []
    task_done = shm.task_done

    def spy(names, abandoned=False):
        released.append((set(names), abandoned))
        task_done(names, abandoned)

    shm.task_done = spy
    try:
        with pytest.raises(DeadlineExceeded):
            engine.execute(Query(relations=("a", "a")), cancel=token)
        assert len(shipped) > 2 and not shipped[0].done()
        abandoned = set().union(*(n for n, gone in released if gone))
        assert abandoned, "no task was still running at the deadline"
        assert not abandoned & set(shm._free)
        for name in abandoned:
            assert not os.path.exists(f"/dev/shm/{name}")
            assert name not in shm._segments or shm._segments[name].unlinked
        # What finished, or never started, is reusable; the engine
        # serves on once the slow tasks have drained.
        out = engine.execute(Query(relations=("a", "a")))
        assert set(out.result.pairs) == brute_reference(rects)
        assert not abandoned & set(shm._segments)
    finally:
        engine.close()
    assert shm.open_segments == shm.mapped_segments == 0
    assert not _shm_files()


def test_a_recycled_segment_serves_the_new_tile():
    rng = random.Random(3)
    spec = (0.0, 1.0, 0.0, 1.0, 1, 1)

    def ship(pool, sides):
        tiles = [ColumnarTile.from_rects(side) for side in sides]
        refs = pool.shm.refs_for(tiles)
        names = {ref.segment for ref in refs}
        pool.shm.add_inflight(names)
        try:
            payload = (0, spec, *refs, False, True, None, "numpy")
            # Twice, so each worker most likely sees the segment.
            futures = [pool.submit(sweep_tile_task, payload)
                       for _ in range(2)]
            pairs = [set(f.result()[1]) for f in futures]
        finally:
            pool.shm.task_done(names)
        assert pairs[0] == pairs[1]
        return names, pairs[0]

    pool = WorkerPool(2, kind="process")
    pool.prestart()
    try:
        seen = set()
        for round_ in range(6):
            # Same lengths every round, so the refs are equal too:
            # only the bytes behind them differ.
            a = _uniform(rng, 300, 1000 * round_)
            b = _uniform(rng, 300, 1000 * round_ + 500)
            names, pairs = ship(pool, (a, b))
            assert pairs == brute_reference(a, b)
            seen |= names
            gc.collect()  # the tiles are dead: the segment goes idle
            assert pool.shm._free == sorted(seen)
        assert len(seen) == 1
        snap = pool.shm.snapshot()
        assert (snap["segments_created"], snap["segments_recycled"]) == (1, 5)
        assert snap["segments_open"] == 1  # the free list counts
        assert len(pool.shm._tile_refs) == 0
    finally:
        pool.shutdown()
    assert pool.shm.open_segments == pool.shm.mapped_segments == 0
    assert not _shm_files()


def test_a_dead_tile_leaves_no_ref_behind():
    # Satellite of the id()-reuse hazard: once a segment's name
    # outlives its tiles, a stale ``_tile_refs`` entry would hand a new
    # tile at a reused address and equal length the old tile's ref.
    pool = WorkerPool(2, kind="process")
    try:
        shm = pool.shm
        tile = ColumnarTile.from_rects(_uniform(random.Random(1), 50))
        (ref,) = shm.refs_for([tile])
        assert shm.refs_for([tile]) == [ref]  # cached while alive
        assert shm.tile_refs_reused == 1
        assert len(shm._tile_refs) == 1
        del tile
        gc.collect()
        assert len(shm._tile_refs) == 0
        assert shm._free == [ref.segment]
    finally:
        pool.shutdown()
    assert not _shm_files()


def test_a_repacked_tile_lets_go_of_its_old_segment():
    # A cached tile outlives many queries: if a task is abandoned on
    # its segment, the next ship repacks it, and the old mapping must
    # go then rather than wait for the tile.
    pool = WorkerPool(2, kind="process")
    try:
        shm = pool.shm
        tile = ColumnarTile.from_rects(_uniform(random.Random(2), 50))
        (old,) = shm.refs_for([tile])
        shm.add_inflight({old.segment})
        shm.task_done({old.segment}, abandoned=True)
        assert (shm.open_segments, shm.mapped_segments) == (0, 1)
        (new,) = shm.refs_for([tile])
        assert new.segment != old.segment
        assert (shm.open_segments, shm.mapped_segments) == (1, 1)
        assert shm.refs_for([tile]) == [new]
        del tile
        gc.collect()
        assert shm._free == [new.segment] and not shm._tile_refs
    finally:
        pool.shutdown()
    assert not _shm_files()


def test_concurrent_packs_never_share_an_idle_segment():
    # Sharded engines pack from several coordinator threads at once.
    # Each thread packs a tile, reads it back through the segment and
    # lets go; two packs handed the same idle segment would read each
    # other's bytes.
    pool = WorkerPool(2, kind="process")
    shm = pool.shm
    errors = []
    stop = time.monotonic() + 1.5

    def worker(base):
        rng = random.Random(base)
        rounds = 0
        while time.monotonic() < stop and not errors:
            n = rng.choice((40, 41, 90, 400))
            tile = ColumnarTile.from_rects(
                _uniform(rng, n, base + rounds * 1000))
            (ref,) = shm.refs_for([tile])
            shm.add_inflight({ref.segment})
            time.sleep(0)
            view = ColumnarTile.view_over(
                shm.buffer_of(ref.segment), ref.offset, ref.count)
            if list(view.rid) != list(tile.rid):
                errors.append((base, rounds, ref))
            del view
            shm.task_done({ref.segment})
            del tile
            rounds += 1
        if not rounds:
            errors.append((base, "never ran"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i * 10 ** 7,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:3]
        gc.collect()
        assert not shm._tile_refs
        assert len(shm._segments) == len(shm._free) <= pool_mod.FREE_SEGMENTS
        assert shm.segments_recycled > shm.segments_created
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert shm.open_segments == shm.mapped_segments == 0
    assert not _shm_files()


def test_a_started_process_pool_adds_no_thread():
    # Submitting writes a worker's pipe and waiting reads it, on the
    # caller's own thread: no coordinator thread moves tasks.
    before = set(threading.enumerate())
    pool = WorkerPool(2, kind="process")
    pool.prestart()
    try:
        assert pool.started and pool.kind == "process"
        futures = [pool.submit(len, (0,) * i) for i in range(8)]
        assert [f.result() for f in futures] == list(range(8))
        assert set(threading.enumerate()) <= before
    finally:
        pool.shutdown()


def _rows_behind(ref):
    """A pool task: how many rows the shared-memory tile ``ref`` holds."""
    return len(pool_mod.resolve_shm_tile(ref))


def test_a_worker_forked_under_a_held_segment_lock_resolves_its_tiles():
    # A pool forks lazily, maybe while a sibling shard packs tiles or a
    # tile finalizer runs: the fork copies the segment lock as held, and
    # no thread in the worker will ever release that copy.  The worker
    # must attach the segment by name, never wait on the copy.
    pool = WorkerPool(2, kind="process")
    tile = ColumnarTile.from_rects(_uniform(random.Random(4), 50))
    (ref,) = pool.shm.refs_for([tile])
    held, release = threading.Event(), threading.Event()

    def hold_the_lock():
        with pool.shm._lock:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold_the_lock)
    holder.start()
    held.wait()
    try:
        pool.prestart()
    finally:
        release.set()
        holder.join()
    fut = pool.submit(_rows_behind, ref)
    try:
        assert within(30, lambda: fut.result(timeout=5)) == 50
    finally:
        if not fut.done():
            # Hung on the lock: a stuck worker would hold shutdown too.
            for worker in pool._procs:
                os.kill(worker.proc.pid, signal.SIGKILL)
        within(30, pool.shutdown)
    assert not _shm_files()


@needs_proc
def test_shutdown_leaves_no_worker_and_no_descriptor():
    before = len(os.listdir("/proc/self/fd"))
    pool = WorkerPool(2, kind="process")
    pool.prestart()
    pids = [worker.proc.pid for worker in pool._procs]
    futures = [pool.submit(_worker_ledger, 0.05) for _ in range(6)]
    within(30, pool.shutdown)
    # Shutdown drains what was written or queued; nothing is pending.
    assert all(f.done() and not f.cancelled() for f in futures)
    for pid in pids:
        assert not os.path.exists(f"/proc/{pid}"), f"worker {pid} lives"
    assert len(os.listdir("/proc/self/fd")) == before
    # A stopped pool is not a broken one: the next task starts it again.
    assert pool.submit(len, (1, 2)).result() == 2
    assert (pool.kind, pool.pools_created, pool.fallbacks) == (
        "process", 2, 0)
    within(30, pool.shutdown)
    assert len(os.listdir("/proc/self/fd")) == before


def _pid_and(value):
    """A pool task: ``(the pid that ran it, value)``."""
    return os.getpid(), value


@needs_proc
def test_a_shutdown_amid_two_submitting_threads_loses_no_task():
    # Submit and shutdown take one lock: a shutdown lands between two
    # writes, never between a submit's look at the pool and its write.
    # Each drains what was written, so no task is lost; a burst after
    # one (the callers pause between bursts) starts the pool again, and
    # the owner's last shutdown stops that one too.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    before = len(os.listdir("/proc/self/fd"))
    pool = WorkerPool((os.cpu_count() or 1) + 1, kind="process")
    pool.prestart()
    pids = {w.proc.pid for w in pool._procs}
    halfway = threading.Event()
    got = {}

    def submitter(c):
        got[c] = []
        for burst in range(20):
            futures = [(i, pool.submit(_pid_and, (c, i)))
                       for i in range(10 * burst, 10 * burst + 10)]
            if burst == 10:
                halfway.set()
            got[c] += [(i, f.result()) for i, f in futures]
            time.sleep(0.005)

    def stopper():
        halfway.wait()
        for _ in range(20):
            pids.update(w.proc.pid for w in list(pool._procs))
            pool.shutdown()
            time.sleep(0.005)

    def run_all():
        threads = [threading.Thread(target=submitter, args=(c,))
                   for c in range(2)] + [threading.Thread(target=stopper)]
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
    for c in range(2):
        assert [i for i, _ in got[c]] == list(range(200))
        for i, (pid, value) in got[c]:
            assert value == (c, i)
            pids.add(pid)
    assert (pool.kind, pool.fallbacks, pool.tasks_dispatched) == (
        "process", 0, 400)
    assert not pool.started and os.getpid() not in pids
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
    assert len(os.listdir("/proc/self/fd")) == before


def test_an_unpicklable_payload_fails_its_future_and_releases_its_pins():
    engine, rects = _shipping_engine()
    pool = engine.worker_pool.pool
    submit = pool.submit
    futures = []

    def poison_the_first(fn, payload, units=1):
        if not futures:
            payload = (payload, threading.Lock())
        futures.append(submit(fn, payload, units))
        return futures[-1]

    pool.submit = poison_the_first
    shm = pool.shm
    try:
        with pytest.raises(TypeError, match="pickle"):
            engine.execute(Query(relations=("a", "a")))
        # Failed in its future (at the gather), not raised at submit:
        # later tasks shipped, and the shipper released the pins.
        assert len(futures) > 1
        assert isinstance(futures[0].exception(), TypeError)
        names = futures[0]._repro_shm
        assert names and all(
            shm._segments[n].inflight == 0 and not shm._segments[n].unlinked
            for n in names
        ), "its in-flight pins were kept, or its segment given up"
        # The raised error's traceback holds the query's tiles; with it
        # gone, the segment goes idle for the next pack.
        futures.clear()
        gc.collect()
        assert set(names) <= set(shm._free)
        pool.submit = submit
        out = engine.execute(Query(relations=("a", "a")))
        assert set(out.result.pairs) == brute_reference(rects)
        assert (pool.kind, pool.fallbacks) == ("process", 0)
    finally:
        engine.close()
    assert shm.open_segments == shm.mapped_segments == 0
    assert not _shm_files()


_NEVER_CLOSED = """
import os
from repro.engine import Query
from tests.conftest import dispatch
from tests.test_pool_leaks import _shipping_engine, _shm_files

engine, _ = _shipping_engine()
with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0, INLINE_PLAN_OPS=0):
    for _ in range(3):
        engine.execute(Query(relations=("a", "a")))
assert engine.worker_pool.pool.tasks_dispatched and _shm_files()
print(os.getpid())
"""


def test_an_engine_never_closed_unlinks_its_idle_segments_at_exit():
    # A script that ships tasks and just ends (examples/ did): the
    # free list's segments must go with the pool's exit finalizer, not
    # with the resource tracker's "leaked shared_memory" sweep.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, "-c", _NEVER_CLOSED], cwd=root,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "leaked shared_memory" not in done.stderr, done.stderr
    assert not glob.glob(f"/dev/shm/repro-{int(done.stdout)}-*")
