"""Shared fixtures: a small simulated machine room, tiny datasets, and
the differential-testing harness (brute force vs. single engine vs.
sharded scatter/gather, and the engine vs. its python reference)."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import random
import threading
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar,
)

import pytest

import repro
from repro.core import pbsm
from repro.core.brute import brute_force_pairs
from repro.core.planner import STRATEGIES
from repro.engine import executor as executor_mod
from repro.engine import shard as shard_mod
from repro.engine.query import Query
from repro.geom.rect import Rect, intersection, mbr_of
from repro.sim.env import SimEnv
from repro.sim.machines import ALL_MACHINES, MACHINE_3
from repro.sim.scale import ScaleConfig
from repro.storage.disk import Disk
from repro.storage.pages import PageStore

#: A small-memory scale so tests exercise external behaviour (run
#: formation, pool eviction, partitioning) on tiny inputs.
TEST_SCALE = ScaleConfig(
    scale=1024,
    index_page_bytes=256,
    stream_block_bytes=512,
    memory_bytes=4096,          # 204 rectangles
    buffer_pool_bytes=4096,     # 16 pages
    name="test",
)


@pytest.fixture
def env() -> SimEnv:
    return SimEnv(scale=TEST_SCALE, machines=ALL_MACHINES)


@pytest.fixture
def disk(env) -> Disk:
    return Disk(env)


@pytest.fixture
def store(disk) -> PageStore:
    return PageStore(disk, TEST_SCALE.index_page_bytes)


@pytest.fixture
def unit_square() -> Rect:
    return Rect(0.0, 1.0, 0.0, 1.0, 0)


def child_env() -> Dict[str, str]:
    """The environment for a test that runs the package in a child
    process: this one's, with the directory ``repro`` was imported
    from first on ``PYTHONPATH`` whatever the working directory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=(
        src + os.pathsep + inherited if inherited else src
    ))


@contextlib.contextmanager
def dispatch(**constants):
    """Run a block under overridden executor dispatch constants.

    The tile-dispatch thresholds (``MIN_SHIP_RECTS``,
    ``TILE_BATCH_BYTES``, ``SHM_MIN_BYTES``, ``INLINE_PLAN_OPS``,
    ``PLAN_MEMO_ENTRIES``) are module constants of
    :mod:`repro.engine.executor`, sized for production tiles; the
    tiny test datasets would never leave the coordinator under them.
    This is the one seam that forces a path: ``MIN_SHIP_RECTS=0``
    ships every tile solo, ``INLINE_PLAN_OPS=0`` keeps repeats
    shipping, and so on.  The coordinator reads the constants per
    query — wrap the queries, not just the engine's construction — and
    workers never read them, so it holds for process pools too.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(executor_mod, name, value)
        yield


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Failover retries do not sleep under test: the backoff base is a
    constant of :mod:`repro.engine.shard` (10 ms in production)."""
    monkeypatch.setattr(shard_mod, "RETRY_BACKOFF_SECONDS", 0.0)


@pytest.fixture
def ship_every_tile():
    """Every tile ships to the pool as a task of its own."""
    with dispatch(MIN_SHIP_RECTS=0):
        yield


_T = TypeVar("_T")


def within(seconds: float, fn: Callable[[], _T]) -> _T:
    """``fn()`` on a daemon thread; the test fails if it is still
    running after ``seconds``, so a hang is a failure rather than a
    suite that never ends."""
    box: Dict[str, object] = {}

    def run() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def force_strategies(engines, forces) -> None:
    """Make each engine plan every query with its own forced strategy.

    ``Query.force`` is one value for a whole scatter; wrapping the
    shard engines' ``execute`` is how a test gets one shard answering
    from the index plan beside one answering from the partitioned
    path.
    """
    for engine, force in zip(engines, forces):
        def execute(query, *args, _run=engine.execute, _force=force,
                    **kwargs):
            return _run(dataclasses.replace(query, force=_force),
                        *args, **kwargs)
        engine.execute = execute


#: :func:`make_workload`'s mix: the share of queries that repeat an
#: earlier query verbatim (cache-hit traffic), and the share of
#: localized window queries among the fresh ones.
REPEAT_SHARE = 0.4
WINDOW_SHARE = 0.6


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


def make_env(scale: ScaleConfig = TEST_SCALE) -> SimEnv:
    """Non-fixture variant for hypothesis tests (fresh per example)."""
    return SimEnv(scale=scale, machines=ALL_MACHINES)


# -- seeded adversarial dataset generators (no new deps) ---------------------


def _uniform(rng: random.Random, n: int, id_base: int = 0):
    out = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * 0.04, rng.random() * 0.04
        out.append(Rect(x, min(1.0, x + w), y, min(1.0, y + h),
                        id_base + i))
    return out


def _clustered(rng: random.Random, n: int, id_base: int = 0):
    """A few dense gaussian blobs — hot tiles, cold elsewhere."""
    centers = [(rng.random(), rng.random()) for _ in range(3)]
    out = []
    for i in range(n):
        cx, cy = centers[i % len(centers)]
        x = min(0.98, max(0.0, rng.gauss(cx, 0.03)))
        y = min(0.98, max(0.0, rng.gauss(cy, 0.03)))
        w, h = rng.random() * 0.02, rng.random() * 0.02
        out.append(Rect(x, x + w, y, y + h, id_base + i))
    return out


def _skewed(rng: random.Random, n: int, id_base: int = 0):
    """Mass piled against x=0 — the cut balancer's stress case."""
    out = []
    for i in range(n):
        x = rng.random() ** 3
        y = rng.random()
        w, h = rng.random() * 0.03, rng.random() * 0.03
        out.append(Rect(x, min(1.0, x + w), y, min(1.0, y + h),
                        id_base + i))
    return out


def _degenerate(rng: random.Random, n: int, id_base: int = 0):
    """Duplicates, zero-area points, and strip-straddling slivers."""
    out = []
    for i in range(n):
        rid = id_base + i
        if out and i % 4 == 0:
            # Exact duplicate coordinates under a fresh id.
            prev = out[-1]
            out.append(Rect(prev.xlo, prev.xhi, prev.ylo, prev.yhi, rid))
        elif i % 5 == 0:
            x, y = rng.random(), rng.random()
            out.append(Rect(x, x, y, y, rid))  # zero-area point
        elif i % 7 == 0:
            # Full-width sliver: straddles every shard boundary.
            y = rng.random() * 0.99
            out.append(Rect(0.0, 1.0, y, y + 0.004, rid))
        else:
            x, y = rng.random(), rng.random()
            w, h = rng.random() * 0.03, rng.random() * 0.03
            out.append(Rect(x, min(1.0, x + w), y, min(1.0, y + h),
                            rid))
    return out


GENERATORS = {
    "uniform": _uniform,
    "clustered": _clustered,
    "skewed": _skewed,
    "degenerate": _degenerate,
}


# -- differential-testing harness --------------------------------------------


def brute_reference(
    rects_a: Sequence[Rect],
    rects_b: Optional[Sequence[Rect]] = None,
    window: Optional[Rect] = None,
) -> Set[Tuple[int, int]]:
    """The oracle pair set with the engine's exact semantics.

    ``rects_b=None`` is a self-join (one representative per unordered
    pair, ``rid_a < rid_b``, identity excluded); a ``window`` keeps a
    pair only when the rectangles' common intersection meets it — the
    same post-filter rule :func:`repro.engine.executor._filter_window`
    applies (:func:`filter_window_reference` is its loop).
    """
    if rects_b is None:
        pairs = {
            (x, y)
            for x, y in brute_force_pairs(rects_a, rects_a)
            if x < y
        }
        by_a = by_b = {r.rid: r for r in rects_a}
    else:
        pairs = brute_force_pairs(rects_a, rects_b)
        by_a = {r.rid: r for r in rects_a}
        by_b = {r.rid: r for r in rects_b}
    if window is not None:
        kept = set()
        for ida, idb in pairs:
            inter = intersection(by_a[ida], by_b[idb])
            if inter is not None and inter.intersects(window):
                kept.add((ida, idb))
        pairs = kept
    return pairs


@pytest.fixture
def assert_same_pairs(ship_every_tile):
    """Differential check: brute force == single engine == sharded.

    The returned callable runs one join (optionally windowed, or a
    self-join when ``rects_b`` is omitted) through the brute-force
    oracle, a single :class:`SpatialQueryEngine`, and
    :class:`ShardedEngine` at every requested shard count and pool
    kind — all shards of one engine sharing one worker pool — and
    asserts bit-identical sorted pair sets throughout, plus the
    shared-pool accounting invariant (per-shard client counters sum to
    the pool's totals).  ``replicas``/``faults`` replicate each shard
    and inject a seeded :class:`~repro.engine.faults.FaultPlan` into
    the sharded runs (fault rules re-arm per engine via
    ``plan_factory``), which is how the chaos differentials assert
    that replica failures never change pairs.  Returns the sorted
    reference pairs.
    """
    from repro.engine import Query, ShardedEngine, SpatialQueryEngine

    def check(
        rects_a: Sequence[Rect],
        rects_b: Optional[Sequence[Rect]] = None,
        *,
        window: Optional[Rect] = None,
        universe: Optional[Rect] = None,
        shard_counts: Sequence[int] = (1, 2, 4),
        pool_kinds: Sequence[str] = ("serial", "process"),
        workers: int = 2,
        force: Optional[str] = None,
        replicas: int = 1,
        plan_factory=None,
        expect_failovers: bool = False,
    ) -> List[Tuple[int, int]]:
        self_join = rects_b is None
        if universe is None:
            universe = mbr_of(list(rects_a) + list(rects_b or ()))
        ref = sorted(brute_reference(rects_a, rects_b, window))
        query = Query(
            relations=("a", "a") if self_join else ("a", "b"),
            window=window, force=force,
        )

        single = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=workers,
            cache_capacity=0,
        )
        single.register("a", rects_a, universe=universe)
        if not self_join:
            single.register("b", rects_b, universe=universe)
        got = sorted(single.execute(query).result.pairs)
        assert got == ref, (
            f"single engine diverged from brute force "
            f"({len(got)} vs {len(ref)} pairs)"
        )
        single.close()

        for kind in pool_kinds:
            for n_shards in shard_counts:
                faults = plan_factory() if plan_factory else None
                sharded = ShardedEngine(
                    shards=n_shards, scale=TEST_SCALE, machine=MACHINE_3,
                    workers=workers, pool_kind=kind, cache_capacity=0,
                    replicas=replicas, faults=faults,
                )
                sharded.register("a", rects_a, universe=universe)
                if not self_join:
                    sharded.register("b", rects_b, universe=universe)
                got = sorted(sharded.execute(query).result.pairs)
                assert got == ref, (
                    f"{n_shards}-shard {kind}-pool engine diverged "
                    f"({len(got)} vs {len(ref)} pairs)"
                )
                # Shared-pool accounting: every engine (all replicas)
                # submits through its own client, and the clients'
                # counters must sum to the pool's totals —
                # cross-shard traffic is never double- or
                # under-counted.
                for counter in ("tasks_dispatched", "tasks_inline",
                                "tiles_dispatched", "tiles_inline"):
                    per_shard = sum(
                        getattr(e.worker_pool, counter)
                        for e in sharded.all_engines
                    )
                    assert per_shard == getattr(sharded.pool, counter), (
                        f"{counter}: shard sum {per_shard} != pool "
                        f"total {getattr(sharded.pool, counter)}"
                    )
                snap = sharded.metrics_snapshot()
                assert snap["queries_served"] == 1
                assert snap["pairs_returned"] == len(ref)
                if expect_failovers and faults is not None:
                    fired = faults.total_injected
                    assert snap["failovers"] >= (1 if fired else 0), (
                        f"{n_shards}-shard {kind}-pool: "
                        f"{fired} faults fired but no failover counted"
                    )
                    assert snap["retries"] >= snap["failovers"]
                sharded.close()
                assert not sharded.pool.started
        return ref

    return check


def windowed_hit_reference(engine, window: Rect):
    """What a windowed query served from ``engine``'s one cached full
    distribution must return, from the reference prune.

    Every cached tile side is cut to the rectangles that meet
    ``window`` one ``intersects`` test at a time; a tile left empty on
    both sides is skipped, one empty on a single side is still swept;
    each tile goes through the python task body on the full grid, in
    partition order, and the window post-filter keeps a pair when the
    rectangles' common intersection meets the window.  Returns ``(kept
    pairs in emit order, sweep ops, tiles left one-sided)``.
    """
    (key, cached), = [
        (key, value)
        for key, value in engine.artifacts._entries.items()
        if key[-1] is None
    ]
    spec = (*key[1], key[2], key[3])

    def prune(tile):
        return [r for r in tile.decode() if r.intersects(window)]

    pairs: List[Tuple[int, int]] = []
    ops = one_sided = 0
    by_a: Dict[int, Rect] = {}
    by_b: Dict[int, Rect] = {}
    for part, tile_a, tile_b in cached:
        side_a = prune(tile_a)
        side_b = None if tile_b is None else prune(tile_b)
        if not side_a and not side_b:
            continue
        one_sided += side_b is not None and not (side_a and side_b)
        by_a.update((r.rid, r) for r in side_a)
        by_b.update((r.rid, r) for r in (
            side_a if side_b is None else side_b
        ))
        _, got, task_ops, _, _, _ = pbsm.sweep_tile(
            (part, spec, side_a, side_b, side_b is None, True, None)
        )
        pairs += got
        ops += task_ops
    kept = []
    for ida, idb in pairs:
        inter = intersection(by_a[ida], by_b[idb])
        if inter is not None and inter.intersects(window):
            kept.append((ida, idb))
    return kept, ops, one_sided


# -- the python reference executor -------------------------------------------
#
# The engine runs only the numpy kernels.  What they are held to is the
# python code they replaced: the bodies below (the executor's post-filters,
# row by row) and the core references (``pbsm.distribute``,
# ``pbsm.sweep_tile``, ``pq_join(kernel="python")``), swapped in for the
# executor's module globals by :func:`reference_executor`.


def prune_window_reference(cached, window: Rect) -> List[tuple]:
    """:func:`repro.engine.executor._prune_window`, one ``intersects``
    test a decoded rectangle: sides come back as ``Rect`` lists."""
    sides = [
        [[r for r in tile.decode() if r.intersects(window)]
         for tile in image.tiles]
        for image in cached.images
    ]
    return [
        (part, a, b) for part, a, b in cached.cut(sides)
        if len(a) or (b is not None and len(b))
    ]


def filter_window_reference(result, entries, window: Rect,
                            strip: Tuple[float, ...] = ()):
    """:func:`repro.engine.executor._filter_window`, one tuple at a time
    through ``by_id``: kept tuples come back as a list."""
    kept: List[tuple] = []
    unowned = 0
    for ids in result.pairs:
        rects = [entries[i].by_id[rid] for i, rid in enumerate(ids)]
        acc: Optional[Rect] = rects[0]
        for r in rects[1:]:
            acc = intersection(acc, r)
            if acc is None:
                break
        if acc is None or not acc.intersects(window):
            continue
        if strip and not pbsm._in_strip(max(acc.xlo, window.xlo), strip):
            unowned += 1
        else:
            kept.append(ids)
    result.detail["window_filtered"] = result.n_pairs - len(kept) - unowned
    if strip:
        result.detail["cross_shard_duplicates"] = unowned
    result.pairs = kept
    result.n_pairs = len(kept)
    return result


def own_results_reference(result, entries, strip: Tuple[float, ...],
                          window: Optional[Rect]):
    """:func:`repro.engine.executor._own_results`, one ``by_id`` lookup
    an id: kept tuples come back as a list."""
    floor = -float("inf") if window is None else window.xlo
    kept = [
        ids for ids in result.pairs
        if pbsm._in_strip(max(floor, *(entries[i].by_id[rid].xlo
                                       for i, rid in enumerate(ids))),
                          strip)
    ]
    result.detail["cross_shard_duplicates"] = result.n_pairs - len(kept)
    result.pairs = kept
    result.n_pairs = len(kept)
    return result


def reference_distribute(entry, parts, grid, window, allowance) -> int:
    """:func:`repro.engine.executor._distribute_columnar` as the
    per-rectangle :func:`repro.core.pbsm.distribute` over the entry's
    base stream (the partitions hold the allowance)."""
    return pbsm.distribute(entry.stream, parts, grid, window)


def reference_tile_task(payload: tuple) -> tuple:
    """:func:`repro.engine.executor.sweep_tile_task` through
    :func:`repro.core.pbsm.sweep_tile`: same payload, same refusal of a
    window in slot 6, same cancel check; pairs come back as a list."""
    if payload[6] is not None:
        raise ValueError("tile payloads carry no window (slot 6 must be "
                         "None)")
    executor_mod._check_cancel(payload)
    sides = tuple(executor_mod._resolved(side) for side in payload[2:4])
    return pbsm.sweep_tile(payload[:2] + sides + payload[4:])


def reference_tile_batch_task(payloads: tuple) -> tuple:
    """:func:`repro.engine.executor.sweep_tile_batch_task` as its tiles
    through :func:`reference_tile_task` back to back, pairs in one
    list."""
    count = ops = dups = unowned = windowed = 0
    pairs: Optional[list] = [] if payloads and payloads[0][5] else None
    for payload in payloads:
        c, got, o, d, u, w = reference_tile_task(payload)
        count += c
        ops += o
        dups += d
        unowned += u
        windowed += w
        if pairs is not None:
            pairs.extend(got)
    return (count, pairs, ops, dups, unowned, windowed)


def _python_run(run, in_a, in_b, rel_a, rel_b, disk, collect, kernel):
    return run(in_a, in_b, rel_a, rel_b, disk, collect, "python")


#: ``STRATEGIES`` with every row run by the python kernel, whatever the
#: executor asks for: a ``pq-index`` plan joins through ``IndexSource``.
REFERENCE_STRATEGIES = {
    name: dataclasses.replace(row, run=functools.partial(_python_run,
                                                         row.run))
    for name, row in STRATEGIES.items()
}


@contextlib.contextmanager
def reference_executor(on: bool = True):
    """Every engine built and run inside the block executes the python
    references instead of the numpy kernels.

    The executor resolves the distribute, the two tile tasks, the
    prune, the two post-filters and the strategy rows as its module
    globals at call time (the end-to-end bench rebinds the tile tasks
    the same way); here they are rebound to the references above.  The
    block must hold the engine's whole life — built, run and closed
    inside it — so a process pool forks with the references bound.
    Everything placement and accounting depend on stays the engine's
    own, so pairs, their order and ``sim.*`` must come out identical.
    ``on=False`` leaves the engine as it is (a test parametrized over
    both reads one line).
    """
    with pytest.MonkeyPatch.context() as patch:
        if on:
            for name, value in (
                ("_distribute_columnar", reference_distribute),
                ("sweep_tile_task", reference_tile_task),
                ("sweep_tile_batch_task", reference_tile_batch_task),
                ("_prune_window", prune_window_reference),
                ("_filter_window", filter_window_reference),
                ("_own_results", own_results_reference),
                ("STRATEGIES", REFERENCE_STRATEGIES),
            ):
                patch.setattr(executor_mod, name, value)
        yield
