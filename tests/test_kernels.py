"""Differential tests for the numpy kernels against the python reference.

The contract under test: the numpy kernel is *bit-identical* to the
pure-python reference — same pairs, same emit order, same ``cpu_ops``
and ``max_active_items`` accounting — at every level it plugs in
(batched sweep, tile task, whole engine over serial and process
pools).  At the engine level the reference is
:func:`tests.conftest.reference_executor`: the same engine with the
python bodies bound where the executor calls the kernels.  Alongside
parity, the suite pins kernel resolution semantics
(``auto``/``REPRO_KERNEL``/explicit, which the engine ignores) and the
hygiene of shared-memory tile shipping: segments are
reference-counted, survive worker crashes, and never outlive the
engine.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels, pbsm
from repro.core.columnar import (
    COLUMN_BYTES_PER_RECT,
    ColumnarTile,
    DistributionImage,
    PairColumns,
)
from repro.core.join_result import JoinResult
from repro.core.pbsm import (
    SpillablePartition,
    TileAllowance,
    TileGrid,
    _OpCounter,
    distribute,
)
from repro.core.pq_join import PQConfig
from repro.core.sweep import (
    ForwardSweep,
    forward_sweep_pairs_batched,
    sweep_join_batched,
)
from repro.data.datasets import DATASET_ORDER, build_dataset
from repro.engine import (
    Query,
    ResourceBudget,
    ShardedEngine,
    SpatialQueryEngine,
    WorkerPool,
)
from repro.engine import executor as executor_mod
from repro.engine.catalog import Catalog
from repro.engine.executor import sweep_tile_batch_task, sweep_tile_task
from repro.geom.rect import RECT_BYTES, Rect, intersection
from repro.rtree.insert import RTreeBuilder
from repro.rtree.rstar import RStarTreeBuilder
from repro.sim.scale import QUICK_SCALE
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.stream import Stream

from tests.conftest import (
    GENERATORS,
    TEST_SCALE,
    _clustered,
    _uniform,
    brute_reference,
    dispatch,
    filter_window_reference,
    force_strategies,
    make_env,
    prune_window_reference,
    reference_executor,
    reference_tile_batch_task,
    reference_tile_task,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

def _pair_rids(pairs):
    return [(a.rid, b.rid) for a, b in pairs]


# -- kernel resolution -------------------------------------------------------


class TestResolveKernel:
    def test_explicit_python(self):
        assert kernels.resolve_kernel("python") == "python"

    def test_bad_name_raises(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            kernels.resolve_kernel("fortran")

    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        assert kernels.resolve_kernel("auto") == "numpy"

    def test_env_var_forces_python_fallback(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
        assert kernels.resolve_kernel("auto") == "python"
        # ...but never overrides an explicit request.
        assert kernels.resolve_kernel("numpy") == "numpy"

    def test_repro_kernel_leaves_the_engine_on_numpy(self, monkeypatch):
        # The variable steers "auto" in core, never the engine: its
        # partitioned and pq-index plans run numpy under it.
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
        rng = random.Random(4)
        a = _uniform(rng, 200)
        b = _uniform(rng, 150, 10_000)
        with SpatialQueryEngine(scale=TEST_SCALE, workers=2,
                                pool_kind="serial") as engine:
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            for force in ("pbsm-grid", "pq-index"):
                out = engine.execute(Query(relations=("a", "b"),
                                           force=force))
                assert out.result.detail["kernel"] == "numpy", force
                assert isinstance(out.result.pairs, PairColumns)
                assert set(out.result.pairs) == brute_reference(a, b)
            assert "kernel" not in engine.metrics_snapshot()


# -- batched-sweep parity ----------------------------------------------------


class TestSweepParity:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_join_matches_python_exactly(self, name):
        rng = random.Random(hash(name) % 1000)
        a = GENERATORS[name](rng, 230)
        b = GENERATORS[name](rng, 170, 10_000)
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops

    def test_presorted_parity_and_validation(self):
        rng = random.Random(5)
        a = sorted(_uniform(rng, 200), key=lambda r: (r.ylo, r.xlo))
        b = sorted(_uniform(rng, 150, 10_000),
                   key=lambda r: (r.ylo, r.xlo))
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(
            a, b, env_py, presorted=True,
        )
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np, presorted=True,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops
        # A presorted=True claim over unsorted input is a caller bug:
        # the vectorized kernel rejects it instead of mis-sweeping.
        from repro.core.kernels import np_sweep
        shuffled = list(reversed(a))
        with pytest.raises(ValueError, match="not sorted by ylo"):
            np_sweep.sweep_pairs_batched(shuffled, b, _OpCounter(),
                                         presorted=True)

    def test_inverted_y_interval_falls_back(self):
        # yhi < ylo is outside the vectorized model; the dispatcher
        # must fall back to the python kernel, not crash or diverge.
        rng = random.Random(9)
        a = _uniform(rng, 120)
        a.append(Rect(0.4, 0.5, 0.6, 0.2, 9_999))  # inverted
        b = _uniform(rng, 90, 10_000)
        from repro.core.kernels import np_sweep
        assert np_sweep.sweep_pairs_batched(a, b, _OpCounter()) is None
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops

    @pytest.mark.parametrize("coord", range(4))
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_coordinates_fall_back(self, coord, value):
        # A NaN x-coordinate used to be swept — same pairs and ops as
        # the reference, in another order; non-finite input is declined
        # like an inverted one, by the batched and the grouped entry.
        from repro.core.kernels import np_sweep

        rng = random.Random(f"{coord}{value}")
        a = _uniform(rng, 60)
        b = _uniform(rng, 60, 10_000)
        odd = list(a[7])
        odd[coord] = float(value)
        a[7] = Rect(*odd)
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        assert np_sweep.sweep_pairs_batched(a, b, _OpCounter()) is None
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops
        tiles = [(0, ColumnarTile.from_rects(a), ColumnarTile.from_rects(b)),
                 (1, ColumnarTile.from_rects(b), ColumnarTile.from_rects(a))]
        spec = (0.0, 1.0, 0.0, 1.0, 1, 2)
        for group in (tiles[:1], tiles):
            assert np_sweep.sweep_tiles(group, False, spec, True) is None

    def test_columnar_tile_inputs(self):
        rng = random.Random(13)
        a = _clustered(rng, 260)
        b = _clustered(rng, 260, 10_000)
        ta = ColumnarTile.from_rects(a)
        tb = ColumnarTile.from_rects(b)
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", ta, tb, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops


# -- tile-task parity --------------------------------------------------------


class TestTileTaskParity:
    GRID_SPEC = (0.0, 1.0, 0.0, 1.0, 2, 4)  # 2x2 tiles, 4 partitions

    def _run(self, side_a, side_b, self_join, window=None):
        """The task and the reference over every partition; identical
        outcomes.  A window prunes the tile first, each with its own
        body."""
        sides = {"numpy": (side_a, side_b), "python": (side_a, side_b)}
        if window is not None:
            cached = DistributionImage([(0, side_a, side_b)])
            (_, *sides["numpy"]), = executor_mod._prune_window(cached,
                                                               window)
            (_, *sides["python"]), = prune_window_reference(cached, window)
        for part_id in range(self.GRID_SPEC[5]):
            out = {
                kernel: task((part_id, self.GRID_SPEC, *sides[kernel],
                              self_join, True, None, "numpy"))
                for kernel, task in (("python", reference_tile_task),
                                     ("numpy", sweep_tile_task))
            }
            assert out["numpy"] == out["python"], (
                f"kernel divergence on partition {part_id}"
            )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_columnar_join(self, name):
        rng = random.Random(len(name))
        ta = ColumnarTile.from_rects(GENERATORS[name](rng, 300))
        tb = ColumnarTile.from_rects(
            GENERATORS[name](rng, 240, 10_000),
        )
        self._run(ta, tb, False)

    def test_columnar_self_join(self):
        tile = ColumnarTile.from_rects(_clustered(random.Random(3), 320))
        self._run(tile, None, True)

    def test_windowed_join(self):
        rng = random.Random(21)
        ta = ColumnarTile.from_rects(_uniform(rng, 300))
        tb = ColumnarTile.from_rects(_uniform(rng, 240, 10_000))
        self._run(ta, tb, False, window=Rect(0.2, 0.7, 0.1, 0.6, 0))

    def test_rect_list_sides(self):
        rng = random.Random(27)
        self._run(_uniform(rng, 280), _uniform(rng, 200, 10_000), False)


# -- engine-level parity across pool kinds -----------------------------------


class TestEngineParity:
    @pytest.mark.parametrize("pool_kind", ("serial", "process"))
    def test_pairs_and_accounting_match(self, pool_kind):
        rng = random.Random(17)
        a = GENERATORS["clustered"](rng, 300)
        b = GENERATORS["skewed"](rng, 260, 10_000)
        ref = sorted(brute_reference(a, b))
        query = Query(relations=("a", "b"))
        outcomes = {}
        for kernel in ("python", "numpy"):
            with reference_executor(kernel == "python"), \
                    SpatialQueryEngine(
                        scale=TEST_SCALE, workers=2, pool_kind=pool_kind,
                        cache_capacity=0,
                    ) as engine:
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0):
                    out = engine.execute(query)
                outcomes[kernel] = (
                    list(out.result.pairs),
                    engine.metrics.sim_wall_seconds,
                    engine.metrics.cpu_ops,
                    engine.metrics_snapshot()["pages_read"],
                )
        assert sorted(outcomes["numpy"][0]) == ref
        # Same pairs in the same order AND the same simulated cost: op
        # accounting is kernel-invariant, only the wall clock may move.
        assert outcomes["numpy"] == outcomes["python"]


# -- shared-memory shipping hygiene ------------------------------------------


class TestShmShipping:
    def test_pack_view_roundtrip(self):
        rects = _uniform(random.Random(2), 120)
        tile = ColumnarTile.from_rects(rects)
        buf = bytearray(64 + len(tile) * COLUMN_BYTES_PER_RECT)
        written = tile.pack_into(buf, 64)
        assert written == len(tile) * COLUMN_BYTES_PER_RECT
        view = ColumnarTile.view_over(memoryview(buf), 64, len(tile))
        assert len(view) == len(tile)
        assert view.decode() == tile.decode()

    @pytest.fixture(autouse=True)
    def _ship_everything_by_shm(self):
        # Every tile a task of its own, every task above the shm floor.
        with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0):
            yield

    def _shm_engine(self):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, workers=2, pool_kind="process",
            cache_capacity=0,
        )
        rects = _clustered(random.Random(23), 400)
        engine.register("a", rects, universe=UNIT)
        return engine, rects

    def test_shm_and_pickle_agree_and_release(self):
        query = Query(relations=("a", "a"))
        results = {}
        for label in ("shm", "pickle"):
            engine, rects = self._shm_engine()
            if label == "pickle":
                # What a failed segment allocation leaves behind.
                engine.worker_pool.shm.enabled = False
            try:
                out = engine.execute(query)
                results[label] = sorted(out.result.pairs)
                shm = engine.worker_pool.shm
                if label == "shm":
                    assert shm.segments_created > 0
                else:
                    assert shm.segments_created == 0
            finally:
                engine.close()
            assert shm.open_segments == 0, "segments leaked past close"
        assert results["shm"] == results["pickle"]
        assert results["shm"] == sorted(brute_reference(rects))

    def test_worker_crash_leaks_nothing(self):
        query = Query(relations=("a", "a"))
        engine, rects = self._shm_engine()
        ref = sorted(brute_reference(rects))
        pool = engine.worker_pool.pool
        try:
            out = engine.execute(query)
            assert sorted(out.result.pairs) == ref
            assert pool.shm.segments_created > 0
            # The workers die between queries: the next query's shm
            # tasks find the pipes dead, and recovery re-runs them
            # inline against the coordinator's own segments, after a
            # demotion that must not leak a single one.
            for worker in list(pool._procs):
                os.kill(worker.proc.pid, signal.SIGKILL)
                worker.proc.join(30)
            with dispatch(INLINE_PLAN_OPS=0):
                out = engine.execute(query)
            assert sorted(out.result.pairs) == ref
            assert (pool.kind, pool.demotions) == ("serial", 1)
            assert pool.fallbacks >= 1
        finally:
            engine.close()
        shm = engine.worker_pool.shm
        assert shm.open_segments == 0
        assert shm.mapped_segments == 0
        leftovers = [
            n for n in os.listdir("/dev/shm")
            if n.startswith(f"repro-{os.getpid()}-")
        ] if os.path.isdir("/dev/shm") else []
        assert not leftovers, f"leaked shm files: {leftovers}"

    def test_tasks_below_the_floor_pickle(self):
        engine, _ = self._shm_engine()
        try:
            with dispatch(SHM_MIN_BYTES=10**9):
                engine.execute(Query(relations=("a", "a")))
            snap = engine.worker_pool.snapshot()["shm"]
            assert snap["segments_created"] == 0
            assert snap["bytes_packed"] == 0
        finally:
            engine.close()


# -- cold path: distribute + window post-filter parity -----------------------

#: Interior window (its clipped universe starts right of and above
#: many rectangles that still meet it, so ``v - universe.lo`` goes
#: negative), and one poking out of the data on two sides.
WINDOWS = {
    "full": None,
    "interior": Rect(0.31, 0.74, 0.22, 0.58, 0),
    "overhang": Rect(-0.5, 0.4, 0.6, 1.7, 0),
}

#: Budget totals as a function of the scan size ``want`` and ``p``:
#: never short; the scan estimate plus one extension step (boundary
#: replication beyond that spills); a third of the scan; and the
#: executor's minimum grant, where nearly everything spills.
BUDGETS = {
    "unbudgeted": lambda want, p: None,
    "roomy": lambda want, p: 10 * want,
    "one_step": lambda want, p: want + TileAllowance.EXTEND_BYTES,
    "third": lambda want, p: want // 3,
    "minimum": lambda want, p: p * RECT_BYTES,
}


def _place(kernel, relations, grid, window, budget_of, scale=TEST_SCALE):
    """Run one distribute implementation in a fresh machine room.

    Mirrors the executor's cold path around the call — shared tile
    grant, one partition list per side, spill re-read at materialize
    time — and returns everything the two implementations must agree
    on: tiles (contents and order), op charge, spill counts, the
    grant's final size, the budget's high-water mark and the
    simulated disk's ledger — every ``allocate`` / write / read call in
    order, and what the three machines made of them.
    """
    env = make_env(scale)
    disk = Disk(env)
    catalog = Catalog(disk, PageStore(disk, scale.index_page_bytes))
    entries = [
        catalog.register(f"r{i}", rects)
        for i, rects in enumerate(relations)
    ]
    want = sum(e.stream.data_bytes for e in entries)
    env.reset_counters()  # writing the base streams is set-up
    ledger = []
    for owner, name in ((disk, "allocate"), (env, "io_write"),
                        (env, "io_read")):
        def logged(*args, _call=getattr(owner, name), _name=name):
            ledger.append((_name, *args))
            return _call(*args)
        setattr(owner, name, logged)
    total = budget_of(want, grid.p)
    budget = grant = allowance = None
    if total is not None:
        budget = ResourceBudget(total)
        grant = budget.acquire("tiles", want,
                               minimum=grid.p * RECT_BYTES)
        allowance = TileAllowance(grant.bytes, grant=grant)
    ops = 0
    sides = []
    for i, entry in enumerate(entries):
        parts = [
            SpillablePartition(disk, f"t{i}.{j}", allowance=allowance)
            for j in range(grid.p)
        ]
        if kernel == "numpy":
            side_ops = executor_mod._distribute_columnar(
                entry, parts, grid, window, allowance
            )
        else:
            side_ops = distribute(entry.stream, parts, grid, window)
        ops += side_ops
        sides.append(parts)
    flat = [part for parts in sides for part in parts]
    return {
        "ops": ops,
        "spilled": [part.spilled_rects for part in flat],
        "tiles": [part.materialize_columnar().decode() for part in flat],
        "granted": grant.granted if grant else None,
        "high_water": budget.high_water_bytes if budget else None,
        "io": (env.page_reads, env.page_writes, env.bytes_read,
               env.bytes_written),
        "ledger": ledger,
        "machines": env.snapshots(),
    }


def _engine_outcome(kernel, a, b, window, workers, memory_bytes):
    """One forced ``pbsm-grid`` query on a fresh engine: the engine
    itself (``"numpy"``) or its python reference (``"python"``)."""
    with reference_executor(kernel == "python"), SpatialQueryEngine(
        scale=TEST_SCALE, workers=workers, pool_kind="serial",
        cache_capacity=0, artifact_cache_bytes=0,
        memory_bytes=memory_bytes,
    ) as engine:
        engine.register("a", a, universe=UNIT)
        if b is not None:
            engine.register("b", b, universe=UNIT)
        engine.prepare()
        env = engine.env
        env.reset_counters()  # index builds are not the query's
        out = engine.execute(Query(
            relations=("a", "a" if b is None else "b"),
            window=window, force="pbsm-grid",
        ))
        detail = out.result.detail
        return {
            "pairs": list(out.result.pairs),
            "spill": (detail["spilled_rects"], detail["spill_partitions"],
                      detail["tile_grant_bytes"]),
            "sim": (out.sim_wall_seconds, env.cpu_ops, env.page_reads,
                    env.page_writes, env.bytes_read, env.bytes_written),
            "high_water": engine.budget.high_water_bytes,
        }


class TestDistributeParity:
    """python ``pbsm.distribute`` vs the numpy kernel, bit for bit."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("p", (1, 3, 8, 16))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_placement_matches(self, kind, p, window, budget):
        rng = random.Random(f"{kind}-{p}-{window}-{budget}")
        a = GENERATORS[kind](rng, 240)
        # The degenerate generator's duplicates, zero-area points and
        # full-width slivers meet a second shape on the other side;
        # every other case is a self-join (one side, distributed once).
        relations = [a]
        if kind == "degenerate":
            relations.append(GENERATORS["skewed"](rng, 200, 10_000))
        win = WINDOWS[window]
        universe = UNIT if win is None else intersection(UNIT, win)
        grid = TileGrid(universe, 32, p)
        got = {
            kernel: _place(kernel, relations, grid, win, BUDGETS[budget])
            for kernel in ("python", "numpy")
        }
        assert got["numpy"] == got["python"]
        # Placement is complete: a rectangle reaches exactly the
        # partitions its tiles map to.
        for rects, tiles in zip(
            relations,
            (got["numpy"]["tiles"][i * p:(i + 1) * p]
             for i in range(len(relations))),
        ):
            expect = [[] for _ in range(p)]
            for r in rects:
                if win is None or r.intersects(win):
                    for t in grid.partitions_of(r):
                        expect[t].append(r)
            assert tiles == expect

    def test_extension_steps_then_spill(self):
        # The vacuity guard for the matrix above: this configuration
        # really does extend the grant and then run out mid-stream.
        rng = random.Random(5)
        a = GENERATORS["degenerate"](rng, 400)
        grid = TileGrid(UNIT, 32, 8)
        got = {
            kernel: _place(kernel, [a], grid, None, BUDGETS["one_step"])
            for kernel in ("python", "numpy")
        }
        assert got["numpy"] == got["python"]
        want = len(a) * RECT_BYTES
        assert got["numpy"]["granted"] == want + TileAllowance.EXTEND_BYTES
        assert sum(got["numpy"]["spilled"]) > 0
        assert got["numpy"]["io"][1] > 0  # spill blocks were written

    @pytest.mark.parametrize("shape", ("overlay", "windowed", "self"))
    @pytest.mark.parametrize("p", (1, 3, 8, 16))
    def test_flush_order_across_streams(self, p, shape):
        # Three rectangles to a block, base and spill streams alike,
        # and mostly full-width slivers, which every partition gets a
        # copy of: one base block's copies fill a block in nearly every
        # spill stream, each at its own copy, and the order of those
        # flushes is the order ``Disk.allocate`` hands out extents in.
        # What is compared is the literal call sequence.
        scale = dataclasses.replace(TEST_SCALE, stream_block_bytes=60)
        rng = random.Random(f"{p}-{shape}")

        def slivers(n, id_base):
            out = []
            for i in range(n):
                if i % 3 == 2:
                    x, y = rng.random() * 0.9, rng.random() * 0.9
                    out.append(Rect(x, x + 0.05, y, y + 0.05, id_base + i))
                else:
                    y = rng.random() * 0.99
                    out.append(Rect(0.0, 1.0, y, y + 0.004, id_base + i))
            return out

        relations = [slivers(90, 0)]
        if shape != "self":
            relations.append(slivers(70, 10_000))
        win = WINDOWS["interior"] if shape == "windowed" else None
        grid = TileGrid(UNIT if win is None else intersection(UNIT, win),
                        32, p)
        for budget in ("third", "minimum"):
            got = {
                kernel: _place(kernel, relations, grid, win,
                               BUDGETS[budget], scale)
                for kernel in ("python", "numpy")
            }
            assert got["numpy"] == got["python"]
        # Vacuity guard, at the minimum grant: every stream wrote
        # blocks, and wrote them between base block reads.
        ledger = got["numpy"]["ledger"]
        assert all(n > 3 for n in got["numpy"]["spilled"])
        first_write = ledger.index(
            next(e for e in ledger if e[0] == "io_write")
        )
        assert any(e[0] == "io_read" for e in ledger[first_write:])

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GENERATORS)),
        p=st.integers(1, 16),
        budget=st.sampled_from(sorted(BUDGETS)),
        block_rects=st.integers(1, 40),
        windowed=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_placement_property(self, kind, p, budget, block_rects,
                                windowed, seed):
        scale = dataclasses.replace(
            TEST_SCALE, stream_block_bytes=block_rects * RECT_BYTES
        )
        rng = random.Random(seed)
        relations = [GENERATORS[kind](rng, rng.randrange(1, 160)),
                     GENERATORS["degenerate"](rng, rng.randrange(1, 120),
                                              10_000)]
        win = WINDOWS["overhang"] if windowed else None
        grid = TileGrid(UNIT if win is None else intersection(UNIT, win),
                        32, p)
        assert (
            _place("numpy", relations, grid, win, BUDGETS[budget], scale)
            == _place("python", relations, grid, win, BUDGETS[budget],
                      scale)
        )

    def test_overflow_without_a_resident_tile_on_a_serial_pool(
            self, monkeypatch):
        # The whole grant goes to the corner tile the scan meets first,
        # so every other partition holds overflow only on both sides:
        # those materialize from nothing but the column blocks the
        # numpy distribute spilled.
        overflow_only = []
        materialize = SpillablePartition.materialize_columnar

        def spy(part):
            tile = materialize(part)
            if (part.packed is None and part._spill is not None
                    and part._spill.row_fed):
                overflow_only.append(len(tile))
            return tile

        monkeypatch.setattr(SpillablePartition, "materialize_columnar",
                            spy)
        rng = random.Random(77)
        a = [Rect(x, x + 0.001, x, x + 0.001, i)
             for i, x in enumerate(rng.random() / 40 for _ in range(140))]
        a += GENERATORS["degenerate"](rng, 200, 1_000)
        b = GENERATORS["uniform"](rng, 280, 10_000)
        got = _engine_outcome("numpy", a, b, None, 4, 2_600)
        assert overflow_only and min(overflow_only) > 0
        monkeypatch.undo()
        assert got == _engine_outcome("python", a, b, None, 4, 2_600)
        assert set(got["pairs"]) == brute_reference(a, b)

    @pytest.mark.parametrize("pool_kind", ("serial", "process"))
    def test_numpy_spill_never_boxes_a_rectangle(self, pool_kind,
                                                 monkeypatch):
        # A quarter of the data as budget: tiles spill and are re-read,
        # and neither the per-rectangle spill nor the per-rectangle
        # tile encode runs anywhere on the way.
        def boxed(*_args, **_kwargs):
            raise AssertionError("the numpy spill path built a Rect")

        monkeypatch.setattr(SpillablePartition, "spill", boxed)
        monkeypatch.setattr(ColumnarTile, "extend", boxed)
        rng = random.Random(43)
        a = GENERATORS["clustered"](rng, 500)
        b = GENERATORS["degenerate"](rng, 400, 10_000)
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, workers=2, pool_kind=pool_kind,
            cache_capacity=0, artifact_cache_bytes=0,
            memory_bytes=(len(a) + len(b)) * RECT_BYTES // 4,
        )
        try:
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            engine.prepare()
            with dispatch(MIN_SHIP_RECTS=300,
                          TILE_BATCH_BYTES=200 * RECT_BYTES):
                for relations, second in ((("a", "b"), b),
                                          (("a", "a"), None)):
                    for window in (None, WINDOWS["interior"]):
                        out = engine.execute(Query(
                            relations=relations, window=window,
                            force="pbsm-grid",
                        ))
                        assert set(out.result.pairs) == brute_reference(
                            a, second, window
                        )
                        if window is None:
                            assert out.result.detail["spilled_rects"] > 0
        finally:
            engine.close()

    def test_take_many_matches_single_takes(self):
        for total, free in ((1, 0), (45, 0), (200, 5120 * 2 + 19),
                            (1000, 10_000_000)):
            outcomes = []
            for bulk in (False, True):
                budget = ResourceBudget(total + free)
                grant = budget.acquire("tiles", total)
                allowance = TileAllowance(grant.bytes, grant=grant)
                if bulk:
                    taken = allowance.take_many(700)
                else:
                    taken = sum(
                        allowance.try_take(RECT_BYTES) for _ in range(700)
                    )
                outcomes.append((taken, allowance.remaining,
                                 allowance.total_bytes, grant.granted,
                                 budget.high_water_bytes))
            assert outcomes[0] == outcomes[1]
        assert TileAllowance(50).take_many(9) == 2  # no grant: no growth

    def test_partitions_of_is_ascending(self):
        # p = 16 collides in a set's 8-slot table: iteration order was
        # hash-table layout, which decided the spill victim.
        grid = TileGrid(UNIT, 32, 16)
        sliver = Rect(0.0, 1.0, 0.30, 0.34, 0)
        got = grid.partitions_of(sliver)
        assert got == sorted(set(got)) and len(got) == 16

    @pytest.mark.parametrize("memory", (10_000_000, 9_000, 2_600))
    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_engine_pairs_and_accounting(self, window, workers, memory):
        rng = random.Random(f"{window}-{workers}-{memory}")
        a = GENERATORS["degenerate"](rng, 260)
        b = GENERATORS["clustered"](rng, 240, 10_000)
        win = WINDOWS[window]
        for second in (b, None):
            got = {
                kernel: _engine_outcome(kernel, a, second, win, workers,
                                        memory)
                for kernel in ("python", "numpy")
            }
            assert got["numpy"] == got["python"]
            assert set(got["numpy"]["pairs"]) == brute_reference(
                a, second, win
            )
            assert len(set(got["numpy"]["pairs"])) == len(
                got["numpy"]["pairs"]
            )

    def test_a_declined_distribute_raises_untouched(self, disk, store):
        # Non-finite input is outside the kernels' model: they decline
        # it, and the catalog never admits it.
        from repro.core.kernels import np_distribute

        rects = _uniform(random.Random(2), 50)
        bad = rects[:7] + [Rect(0.2, float("inf"), 0.1, 0.3, 7)]
        image = np_distribute.ColumnImage(bad)
        grid = TileGrid(UNIT, 32, 8)
        assert np_distribute.distribute(image, grid, None) is None
        assert np_distribute.filter_window(
            [image, image], [(1, 2)], UNIT
        ) is None
        catalog = Catalog(disk, store)
        with pytest.raises(ValueError, match="rid=7"):
            catalog.register("a", bad, universe=UNIT)
        # A grid so thin beside the data it cuts that a tile index
        # overflows is the one decline a direct caller can still
        # provoke (a span whose own reciprocal overflows counts as
        # zero): it raises, having taken no allowance, read no block
        # and placed no copy.
        far = [Rect(r.xlo * 1e10, r.xhi * 1e10, r.ylo, r.yhi, r.rid)
               for r in rects]
        entry = catalog.register("a", far)
        thin = TileGrid(Rect(0.0, 1e-300, 0.0, 1.0, 0), 32, 8)
        assert np_distribute.distribute(entry.columns, thin, None) is None
        entry.stream  # built before the counters are read
        reads = disk.env.page_reads
        allowance = TileAllowance(10_000)
        parts = [SpillablePartition(disk, f"t{i}", allowance=allowance)
                 for i in range(8)]
        with pytest.raises(ValueError, match="declined relation 'a'"):
            executor_mod._distribute_columnar(entry, parts, thin, None,
                                              allowance)
        assert allowance.remaining == 10_000
        assert disk.env.page_reads == reads
        assert not any(len(part) for part in parts)

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        span=st.tuples(st.floats(0, 100), st.floats(0, 100)),
        t=st.integers(1, 40),
        p=st.integers(1, 20),
        corners=st.lists(
            st.tuples(st.floats(-200, 200), st.floats(0, 120),
                      st.floats(-200, 200), st.floats(0, 120)),
            min_size=1, max_size=30,
        ),
    )
    def test_tile_range_property(self, lo, span, t, p, corners):
        from repro.core.kernels import np_distribute

        if t * t < p:
            t = p
        universe = Rect(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1], 0)
        grid = TileGrid(universe, t, p)
        rects = [Rect(x, x + w, y, y + h, i)
                 for i, (x, w, y, h) in enumerate(corners)]
        image = np_distribute.ColumnImage(rects)
        try:
            expect = [grid.tile_range(r) for r in rects]
        except (OverflowError, ValueError):
            # A subnormal span makes ``t / span`` infinite and the
            # python ``int()`` raise: outside the kernel's model.
            assert np_distribute.distribute(image, grid, None) is None
            return
        ranges = np_distribute.tile_ranges(
            image.xlo, image.xhi, image.ylo, image.yhi, grid
        )
        assert [tuple(int(col[i]) for col in ranges)
                for i in range(len(rects))] == expect
        dist = np_distribute.distribute(image, grid, None)
        assert list(zip(dist.rows.tolist(), dist.parts.tolist())) == [
            (i, part)
            for i, r in enumerate(rects) for part in grid.partitions_of(r)
        ]
        assert dist.ops == len(rects) + len(dist.rows)

    def test_wide_rectangles_are_expanded_in_chunks(self, monkeypatch):
        from repro.core.kernels import np_distribute

        monkeypatch.setattr(np_distribute, "CHUNK_CANDIDATES", 50)
        rects = GENERATORS["degenerate"](random.Random(11), 300)
        grid = TileGrid(UNIT, 64, 7)
        dist = np_distribute.distribute(
            np_distribute.ColumnImage(rects), grid, None
        )
        assert list(zip(dist.rows.tolist(), dist.parts.tolist())) == [
            (i, part)
            for i, r in enumerate(rects) for part in grid.partitions_of(r)
        ]

    @pytest.mark.parametrize("arity", (2, 3))
    def test_filter_window_parity(self, arity, disk, store):
        rng = random.Random(arity)
        catalog = Catalog(disk, store)
        entries = []
        for i in range(arity):
            rects = GENERATORS["degenerate" if i == 0 else "uniform"](
                rng, 120, 1000 * i
            )
            # Duplicate ids with different coordinates: the last
            # registration wins, as in ``by_id``.
            rects.append(Rect(0.4, 0.6, 0.4, 0.6, rects[3].rid))
            rects.append(Rect(0.0, 0.01, 0.0, 0.01, rects[5].rid))
            entries.append(catalog.register(f"r{i}", rects))
        ids = [[r.rid for r in e.rects] for e in entries]
        tuples = [tuple(rng.choice(col) for col in ids)
                  for _ in range(1500)]
        window = Rect(0.25, 0.7, 0.3, 0.8, 0)
        got = {}
        for kernel, filter_window in (
                ("python", filter_window_reference),
                ("numpy", executor_mod._filter_window)):
            result = JoinResult(algorithm="x", n_pairs=len(tuples),
                                pairs=list(tuples), detail={})
            out = filter_window(result, entries, window)
            got[kernel] = (out.pairs, out.n_pairs, dict(out.detail))
        assert got["numpy"] == got["python"]
        assert 0 < got["numpy"][1] < len(tuples)

    def test_reregistering_replaces_the_image(self):
        rng = random.Random(23)
        a1 = GENERATORS["clustered"](rng, 200)
        a2 = GENERATORS["uniform"](rng, 260)  # same ids, new places
        b = GENERATORS["skewed"](rng, 180, 10_000)
        window = WINDOWS["interior"]
        queries = [Query(relations=("a", "b"), force="pbsm-grid"),
                   Query(relations=("a", "b"), window=window)]
        engines = [
            SpatialQueryEngine(scale=TEST_SCALE, workers=2,
                               pool_kind="serial"),
            ShardedEngine(shards=2, scale=TEST_SCALE, workers=2,
                          pool_kind="serial"),
        ]
        for engine in engines:
            try:
                engine.register("a", a1, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                engine.prepare()
                for q in queries:
                    assert set(engine.execute(q).result.pairs) == (
                        brute_reference(a1, b, q.window)
                    )
                # Mid-workload: no prepare(), the next query builds
                # the new entry's image itself.
                engine.register("a", a2, universe=UNIT)
                for q in queries:
                    assert set(engine.execute(q).result.pairs) == (
                        brute_reference(a2, b, q.window)
                    )
            finally:
                engine.close()
        entry = engines[0].catalog.get("a")
        assert len(entry.columns) == len(a2)

    def test_distribute_span_counts_the_copies(self):
        rng = random.Random(31)
        a = GENERATORS["degenerate"](rng, 200)
        b = GENERATORS["uniform"](rng, 200, 10_000)
        query = Query(relations=("a", "b"), force="pbsm-grid")
        copies = {}
        for kernel in ("python", "numpy"):
            with reference_executor(kernel == "python"), \
                    SpatialQueryEngine(
                        scale=TEST_SCALE, workers=2, pool_kind="serial",
                        cache_capacity=0, trace=True,
                        memory_bytes=10_000_000,
                    ) as engine:
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                cold = engine.execute(query).trace.find("distribute")
                warm = engine.execute(query).trace.find("distribute")
            copies[kernel] = cold.attrs["copies"]
            # Tiles came from the artifact cache: nothing distributed.
            assert warm.attrs["artifact_hit"] is True
            assert warm.attrs["copies"] == 0
        assert copies["numpy"] == copies["python"] > len(a) + len(b)


def _window_pruned(payloads, window):
    """``payloads`` as a windowed query reusing their distribution
    ships them: the executor's coordinator-side prune to ``window``
    (``None``: untouched)."""
    if window is None:
        return list(payloads)
    first = payloads[0]
    cached = DistributionImage((p[0], p[2], p[3]) for p in payloads)
    return [
        (part, first[1], a, b) + first[4:]
        for part, a, b in executor_mod._prune_window(cached, window)
    ]


def _tile_payloads(a, b, p, win):
    """Task payloads (no kernel yet) for the partitions of a 32 x 32
    grid over ``UNIT`` in which both sides hold something — pruned to
    ``win``, if given, as a windowed query reusing that full
    distribution ships them; ``b=None`` is a self-join."""
    grid = TileGrid(UNIT, 32, p)
    spec = (UNIT.xlo, UNIT.xhi, UNIT.ylo, UNIT.yhi, grid.t, p)

    def tiles(rects):
        out = [ColumnarTile() for _ in range(p)]
        for r in rects:
            for t in grid.partitions_of(r):
                out[t].append(r)
        return out

    tiles_a = tiles(a)
    tiles_b = tiles(b) if b is not None else [None] * p
    return _window_pruned([
        (i, spec, tiles_a[i], tiles_b[i], b is None, True, None)
        for i in range(p)
        if len(tiles_a[i]) and (b is None or len(tiles_b[i]))
    ], win)


# -- warm path: a cached distribution pruned to a window --------------------


def _decoded(tasks):
    """Pruned tasks with every side as a ``Rect`` list."""
    return [
        (part, list(a) if isinstance(a, list) else a.decode(),
         b if b is None or isinstance(b, list) else b.decode())
        for part, a, b in tasks
    ]


class TestPruneParity:
    """``_prune_window``: the image mask vs the row-by-row reference."""

    #: ``WINDOWS`` plus zero-area ones and one on tile edges (the
    #: grid of ``_tile_payloads`` is 32 x 32 over the unit square).
    EXTRA = {
        "point": Rect(0.3, 0.3, 0.6, 0.6, 0),
        "segment": Rect(0.1, 0.9, 0.55, 0.55, 0),
        "tile-edges": Rect(8 / 32, 20 / 32, 4 / 32, 16 / 32, 0),
        "everything": Rect(-1.0, 2.0, -1.0, 2.0, 0),
    }

    @pytest.mark.parametrize("window", sorted(set(WINDOWS) - {"full"})
                             + sorted(EXTRA))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_bodies_agree(self, kind, window):
        payloads = TestPairColumnsParity()._payloads(kind, "full")
        cached = DistributionImage((p[0], p[2], p[3]) for p in payloads)
        win = WINDOWS.get(window) or self.EXTRA[window]
        ref = prune_window_reference(cached, win)
        got = executor_mod._prune_window(cached, win)
        assert all(type(side) is list for task in ref for side in task[1:]
                   if side is not None)
        assert _decoded(got) == ref
        if window == "everything":
            # Nothing pruned: the cached tiles themselves, which keep
            # their shared-memory packing.
            assert got == list(cached)

    @settings(max_examples=80, deadline=None)
    @given(
        tiles=st.lists(
            st.tuples(*[st.lists(
                st.tuples(st.integers(0, 8), st.integers(0, 2),
                          st.integers(0, 8), st.integers(0, 2)),
                max_size=12,
            )] * 2),
            min_size=1, max_size=5,
        ),
        corners=st.tuples(st.integers(0, 8), st.integers(0, 3),
                          st.integers(0, 8), st.integers(0, 3)),
        self_join=st.booleans(),
    )
    def test_random_images(self, tiles, corners, self_join):
        # An eighth-grid, so windows share edges with rectangles and
        # have zero width or height; tiles are empty or one-sided.
        def rects(cells, base):
            return ColumnarTile.from_rects(
                Rect(x / 8, (x + w) / 8, y / 8, (y + h) / 8, base + i)
                for i, (x, w, y, h) in enumerate(cells)
            )

        x, w, y, h = corners
        window = Rect(x / 8, (x + w) / 8, y / 8, (y + h) / 8, 0)
        cached = DistributionImage(
            (t, rects(a, 100 * t), None if self_join else rects(b, 50))
            for t, (a, b) in enumerate(tiles)
        )
        ref = prune_window_reference(cached, window)
        assert _decoded(executor_mod._prune_window(cached, window)) == ref
        for part, a, b in ref:
            assert a or b, "a task left empty on both sides is dropped"

    @pytest.mark.parametrize("kernel", ("python", "numpy"))
    def test_a_window_in_the_payload_is_refused(self, kernel):
        task, batch_task = {
            "python": (reference_tile_task, reference_tile_batch_task),
            "numpy": (sweep_tile_task, sweep_tile_batch_task),
        }[kernel]
        tile = ColumnarTile.from_rects(_uniform(random.Random(4), 40))
        payload = (0, (0.0, 1.0, 0.0, 1.0, 1, 1), tile, None, True, True,
                   Rect(0.2, 0.6, 0.2, 0.6, 0), "numpy")
        with pytest.raises(ValueError, match="slot 6"):
            task(payload)
        with pytest.raises(ValueError, match="slot 6"):
            batch_task((payload[:6] + (None, "numpy"), payload))


# -- columnar pairs: the kernel's output format ------------------------------


class TestPairColumnsParity:
    """The tile tasks' columns vs the reference's tuples, in order."""

    P = 4

    def _payloads(self, kind, window):
        """One task payload per non-empty partition of a real grid."""
        rng = random.Random(f"pairs-{kind}-{window}")
        a = GENERATORS[kind](rng, 600)
        b = (GENERATORS["skewed"](rng, 500, 10_000)
             if kind == "degenerate" else None)
        return _tile_payloads(a, b, self.P, WINDOWS[window])

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_solo_tiles(self, kind, window):
        payloads = self._payloads(kind, window)
        assert payloads
        total = 0
        for payload in payloads:
            ref = pbsm.sweep_tile(payload)
            got = sweep_tile_task(payload + ("numpy",))
            assert type(ref[1]) is list
            assert isinstance(got[1], PairColumns)
            assert got[1].ids.shape == (ref[0], 2)
            assert list(got[1]) == ref[1], "same pairs, same order"
            assert (got[0], got[2], got[3]) == (ref[0], ref[2], ref[3])
            total += ref[0]
        assert total, "vacuous: no tile owned a pair"

    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_a_declined_group_raises(self, kind):
        payloads = [p + ("numpy",) for p in self._payloads(kind, "full")]
        assert len(payloads) > 1
        # The batch is the solo tiles back to back...
        solo = [sweep_tile_task(p) for p in payloads]
        got = sweep_tile_batch_task(tuple(payloads))
        assert isinstance(got[1], PairColumns)
        assert list(got[1]) == [pair for out in solo for pair in out[1]]
        assert got[0] == len(got[1]) > 0
        # ...and one inverted y-interval, which the catalog would have
        # refused, makes the kernel decline the tile and any group
        # holding it: the task raises, it does not fall back.
        payloads[-1] = _inverted(payloads[-1])
        with pytest.raises(ValueError, match="declined"):
            sweep_tile_task(payloads[-1])
        with pytest.raises(ValueError, match="declined"):
            sweep_tile_batch_task(tuple(payloads))

    def test_batch_outcome_shapes(self):
        tile = ColumnarTile.from_rects(_uniform(random.Random(1), 30))
        spec = (0.0, 1.0, 0.0, 1.0, 1, 1)
        for task, kind in ((reference_tile_batch_task, list),
                           (sweep_tile_batch_task, PairColumns)):
            counted = task((
                (0, spec, tile, None, True, False, None, "numpy"),
            ))
            assert counted[1] is None and counted[0] > 0
            collected = task((
                (0, spec, tile, None, True, True, None, "numpy"),
            ))
            assert type(collected[1]) is kind
            assert len(collected[1]) == collected[0] == counted[0]
            assert task(()) == (0, None, 0, 0, 0)

    @pytest.mark.parametrize("pool_kind", ("serial", "process"))
    def test_engine_returns_columns_in_the_python_order(self, pool_kind):
        rng = random.Random(31)
        a = GENERATORS["clustered"](rng, 900)
        b = GENERATORS["skewed"](rng, 700, 10_000)
        window = WINDOWS["interior"]
        got = {}
        for kernel in ("python", "numpy"):
            with reference_executor(kernel == "python"), \
                    SpatialQueryEngine(
                        scale=TEST_SCALE, workers=2, pool_kind=pool_kind,
                        cache_capacity=4,
                    ) as engine:
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                # Small tiles batch, the trailing ones sweep inline.
                with dispatch(MIN_SHIP_RECTS=600,
                              TILE_BATCH_BYTES=400 * RECT_BYTES):
                    outs = [
                        engine.execute(Query(
                            relations=("a", "b"), window=w,
                            force="pbsm-grid",
                        ))
                        for w in (None, window, None)
                    ]
                got[kernel] = [o.result.pairs for o in outs]
                assert outs[2].from_cache
                # A hit shares the immutable columns.
                assert outs[2].result.pairs is outs[0].result.pairs
                if pool_kind != "serial":
                    assert outs[0].result.detail["tile_batches"] > 0
        # The reference gathers columns too, windowed or not: its tile
        # task tests the window, and no post-filter builds a list.
        assert all(isinstance(p, PairColumns)
                   for p in got["python"] + got["numpy"])
        assert [list(p) for p in got["numpy"]] == [
            list(p) for p in got["python"]
        ]
        assert set(got["python"][0]) == brute_reference(a, b)
        assert set(got["python"][1]) == brute_reference(a, b, window)


# -- k tiles, one kernel call ------------------------------------------------


def _inverted(payload):
    """``payload`` with one ``yhi < ylo`` rectangle added to side A."""
    bad = ColumnarTile.from_rects(
        payload[2].decode() + [Rect(0.4, 0.5, 0.6, 0.2, 99_999)]
    )
    return payload[:2] + (bad,) + payload[3:]


def _compacting_segment(rng, n, run, tall, base):
    """One sweep's ``(A, B)`` rectangles, drawn to make the active lists
    compact again and again.

    Events come in runs of up to ``run`` same-side rectangles; half of
    the rectangles (a coin flip each) are short, three grid steps at
    most, so a long run piles up dead entries on its own side, and the
    rest reach up to ``tall`` steps.  ``ylo`` climbs a quarter-grid by coin flips and ``xlo`` sits
    on an eighth-grid: ties inside a side, across sides and in ``xlo``.
    Each side comes back shuffled.
    """
    a, b = [], []
    on_a = rng.random() < 0.5
    step = left = 0
    for i in range(n):
        if not left:
            left = rng.randint(1, run)
            on_a = not on_a
        left -= 1
        step += rng.random() < 0.5
        high = rng.randint(0, tall if rng.random() < 0.5 else 3)
        xlo = rng.randint(0, 16) / 8
        (a if on_a else b).append(Rect(
            xlo, xlo + rng.randint(0, 4) / 8, step / 4,
            (step + high) / 4, base + i,
        ))
    rng.shuffle(a)
    rng.shuffle(b)
    return a, b


def _reference_compactions(a, b):
    """The reference sweep of ``a`` against ``b``, logged: the side of
    every event in merge order (True: A) and the event each compaction
    followed."""
    sides, at, lists = [], [], []

    class Logged(ForwardSweep):
        def insert(self, r):
            sides.append(self is lists[0])
            super().insert(r)

        def compact(self, sweep_y):
            if self is lists[0]:  # once per compaction of the pair
                at.append(len(sides) - 1)
            super().compact(sweep_y)

    def make():
        lists.append(Logged())
        return lists[-1]

    key = lambda r: (r.ylo, r.xlo)  # noqa: E731
    sweep_join_batched(iter(sorted(a, key=key)), iter(sorted(b, key=key)),
                       make, _OpCounter())
    return sides, at


class TestSegmentedSweepParity:
    """``sweep_tiles`` over a group vs the python body tile by tile."""

    def _check(self, payloads):
        """Pairs, order, count, ops, dups and strip drops per tile, at
        the kernel and through both task entry points."""
        from repro.core.kernels import np_sweep

        first = payloads[0]
        refs = [pbsm.sweep_tile(p) for p in payloads]
        tiles = [(p[0], p[2], p[3]) for p in payloads]
        got = np_sweep.sweep_tiles(tiles, first[4], first[1], True)
        assert got is not None, "the kernel declined a valid group"
        counts, pairs, ops, dups, unowned = got
        assert [counts, ops, dups, unowned] == [
            [ref[i] for ref in refs] for i in (0, 2, 3, 4)
        ]
        assert isinstance(pairs, PairColumns)
        assert list(pairs) == [pair for ref in refs for pair in ref[1]]
        assert np_sweep.sweep_tiles(
            tiles, first[4], first[1], False
        ) == (counts, None, ops, dups, unowned)
        assert sweep_tile_batch_task(
            tuple(p + ("numpy",) for p in payloads)
        ) == (sum(counts), pairs, sum(ops), sum(dups), sum(unowned))
        for payload, ref in zip(payloads, refs):  # k = 1, same kernel
            solo = sweep_tile_task(payload + ("numpy",))
            assert isinstance(solo[1], PairColumns)
            assert (solo[0], list(solo[1]), *solo[2:]) == ref
        return refs

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_pair_columns_datasets(self, kind, window):
        # Self-joins (uniform, clustered), a join (degenerate) and, with
        # a window, windowed reuse of a full distribution (pruned first).
        payloads = TestPairColumnsParity()._payloads(kind, window)
        assert len(payloads) > 1
        refs = self._check(payloads)
        assert sum(ref[0] for ref in refs), "vacuous: no pair owned"

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("p", (1, 3, 8, 16))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_distribute_datasets(self, kind, p, window):
        rng = random.Random(f"{kind}-{p}-{window}")
        a = GENERATORS[kind](rng, 240)
        b = (GENERATORS["skewed"](rng, 200, 10_000)
             if kind == "degenerate" else None)
        win = WINDOWS[window]
        payloads = _tile_payloads(a, b, p, win)
        if not payloads:
            # The prune left nothing to ship: the window meets none of
            # the rectangles.
            assert not any(r.intersects(win) for r in a + (b or []))
            return
        self._check(payloads)

    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_a_strip_keeps_what_its_shard_owns(self, kind):
        # A shard's strip after the grid's six numbers: both kernels
        # keep the pairs whose reference x lies in [lo, hi), in the
        # order they had, and count the rest apart from the partition
        # duplicates; two strips meeting at a cut split every tile.
        payloads = TestPairColumnsParity()._payloads(kind, "full")
        whole = [pbsm.sweep_tile(p) for p in payloads]
        assert all(out[4] == 0 for out in whole)
        xs = sorted(r.xlo for p in payloads for r in p[2].decode())
        cut = xs[len(xs) // 2]
        kept = {}
        for strip in ((-math.inf, cut), (cut, math.inf)):
            kept[strip] = self._check(
                [(p[0], (*p[1], *strip)) + p[2:] for p in payloads]
            )
        left, right = kept.values()
        for full, a, b in zip(whole, left, right):
            assert a[3] == b[3] == full[3]
            assert a[0] + a[4] == b[0] + b[4] == full[0]
            assert a[0] + b[0] == full[0]
            assert sorted(a[1] + b[1]) == sorted(full[1])
            assert [p for p in full[1] if p in set(a[1])] == a[1]
        assert sum(a[4] for a in left) and sum(b[4] for b in right), (
            "vacuous: the cut split nothing"
        )

    def test_side_forms(self):
        # Columns, shared-memory refs to them and Rect lists, mixed in
        # one group, are one input to the kernel.
        payloads = TestPairColumnsParity()._payloads("degenerate", "full")
        ref = reference_tile_batch_task(
            tuple(p + ("numpy",) for p in payloads)
        )
        pool = WorkerPool(2, kind="process")
        try:
            shm = pool.shm.refs_for(
                [side for p in payloads for side in p[2:4]]
            )
            assert shm is not None
            forms = {
                "columns": payloads,
                "lists": [p[:2] + (p[2].decode(), p[3].decode()) + p[4:]
                          for p in payloads],
                "shm": [p[:2] + tuple(shm[2 * i:2 * i + 2]) + p[4:]
                        for i, p in enumerate(payloads)],
            }
            forms["mixed"] = [
                forms[form][i] for i, form in zip(
                    range(len(payloads)), ("shm", "lists", "columns") * 2
                )
            ]
            for form, group in forms.items():
                got = sweep_tile_batch_task(
                    tuple(p + ("numpy",) for p in group)
                )
                assert isinstance(got[1], PairColumns), form
                assert (got[0], list(got[1]), *got[2:]) == ref, form
        finally:
            pool.shutdown()

    def test_edge_tiles(self):
        spec = (0.0, 1.0, 0.0, 1.0, 2, 4)  # part = the tile itself
        # Every ylo (and most xlo) drawn from five values: ties inside
        # a side, across sides and across tiles; a fifth of the
        # rectangles are points or segments.
        rng = random.Random(8)
        steps = [0.0, 0.125, 0.25, 0.375, 0.5]

        def tied(n, base):
            return [
                Rect(x, x + rng.choice((0.0, 0.0625, 0.3)),
                     y, y + rng.choice((0.0, 0.125, 0.3)), base + i)
                for i, (x, y) in enumerate(
                    (rng.choice(steps), rng.choice(steps))
                    for _ in range(n)
                )
            ]

        # One rectangle over all four tiles, replicated into each, and
        # a pair that meets only across two tiles' segments.
        wide_a = Rect(0.1, 0.9, 0.1, 0.9, 500)
        wide_b = Rect(0.2, 0.8, 0.2, 0.8, 10_500)
        lone_a = Rect(0.3, 0.4, 0.3, 0.4, 501)
        lone_b = Rect(0.3, 0.4, 0.3, 0.4, 10_501)
        tile = ColumnarTile.from_rects
        group = [
            (0, tile(tied(70, 0) + [wide_a]), tile(tied(60, 10_000)
                                                   + [wide_b])),
            (1, ColumnarTile(), ColumnarTile()),            # empty
            (2, tile([wide_a, lone_a]), ColumnarTile()),    # one-sided
            (3, ColumnarTile(), tile([wide_b, lone_b])),    # the other
            (1, tile([wide_a] + tied(40, 100)), tile([wide_b])),
            (2, tile([wide_a]), tile([wide_b] + tied(40, 10_100))),
        ]
        payloads = [(part, spec, a, b, False, True, None)
                    for part, a, b in group]
        refs = self._check(payloads)
        assert [ref[0] for ref in refs[1:4]] == [0, 0, 0]
        owners = [ref[1].count((500, 10_500)) for ref in refs]
        assert owners == [1, 0, 0, 0, 0, 0]  # its reference point
        # Pruned to a window first: the empty tile is dropped, the
        # one-sided ones still sweep (and charge their sorts).
        pruned = _window_pruned(payloads, Rect(0.1, 0.45, 0.1, 0.45, 0))
        assert [p[0] for p in pruned] == [0, 2, 3, 1, 2]
        refs = self._check(pruned)
        assert [ref[0] for ref in refs[1:3]] == [0, 0]
        assert refs[1][2] > 0 and refs[2][2] > 0
        owners = [ref[1].count((500, 10_500)) for ref in refs]
        assert owners == [1, 0, 0, 0, 0]
        # The same tiles against themselves, and a group of nothing.
        self._check([
            (part, spec, a, None, True, True, None) for part, a, _ in group
        ])
        self._check([(part, spec, ColumnarTile(), ColumnarTile(), False,
                      True, None) for part in (0, 3)])

    def test_compaction_schedule_restarts_per_tile(self):
        # Tall rectangles keep the active lists long: the replay has to
        # compact, double its threshold, and forget both at the next
        # tile (the small tile after a dense one compacts at 64 again).
        def tall(rng, n, base):
            return [
                Rect(x, x + 0.01, y, y + 0.6, base + i)
                for i, (x, y) in enumerate(
                    (rng.random(), 0.4 * rng.random()) for _ in range(n)
                )
            ]

        rng = random.Random(12)
        sides = [(tall(rng, n, 1000 * t), tall(rng, n, 1000 * t + 500))
                 for t, n in enumerate((150, 40, 90))]
        peaks = [
            forward_sweep_pairs_batched(a, b, _OpCounter())[1]
            .max_active_items for a, b in sides
        ]
        assert peaks[0] > 2 * peaks[1] > 128 and peaks[2] > 2 * peaks[1]
        spec = (0.0, 1.0, 0.0, 1.0, 1, 1)
        self._check([
            (0, spec, ColumnarTile.from_rects(a), ColumnarTile.from_rects(b),
             False, True, None)
            for a, b in sides
        ])

    def test_an_inverted_tile_declines_the_whole_group(self):
        from repro.core.kernels import np_sweep

        payloads = TestPairColumnsParity()._payloads("clustered", "full")
        payloads[1] = _inverted(payloads[1])
        first = payloads[0]
        assert np_sweep.sweep_tiles(
            [(p[0], p[2], p[3]) for p in payloads],
            first[4], first[1], True,
        ) is None
        # (``test_a_declined_group_raises`` holds the tasks raising on
        # it.)  A window over the data (x from 0.7 up) but not the
        # rectangle (x 0.4-0.5) prunes it before either sweep, and the
        # group sweeps again.
        away = Rect(0.6, 1.0, 0.0, 1.0, 0)
        refs = self._check(_window_pruned(payloads, away))
        assert sum(ref[0] for ref in refs), "vacuous: no pair owned"

    @pytest.mark.parametrize("entry", ("task", "batched", "segmented"))
    def test_ids_above_2_53_survive_a_rect_list(self, entry):
        # Rect-list sides used to pass through one float64 array.
        big = 2 ** 53 + 1
        a = [Rect(0.0, 1.0, 0.0, 1.0, big)]
        b = [Rect(0.5, 1.5, 0.5, 1.5, 7)]
        spec = (0.0, 2.0, 0.0, 2.0, 1, 1)
        payload = (0, spec, a, b, False, True, None, "numpy")
        if entry == "task":
            pairs = sweep_tile_task(payload)[1]
        elif entry == "segmented":
            pairs = sweep_tile_batch_task((payload, payload))[1][:1]
        else:
            found, _ = kernels.sweep_pairs_batched(
                "numpy", a, b, _OpCounter(),
            )
            pairs = _pair_rids(found)
        assert list(pairs) == [(big, 7)]

    @settings(max_examples=60, deadline=None)
    @given(
        tiles=st.lists(
            st.tuples(*[st.lists(
                st.tuples(st.integers(0, 8), st.integers(0, 3),
                          st.integers(0, 8), st.integers(0, 3)),
                max_size=48,
            )] * 2),
            min_size=2, max_size=5,
        ),
        parts=st.lists(st.integers(0, 3), min_size=5, max_size=5),
        self_join=st.booleans(),
        windowed=st.booleans(),
    )
    def test_random_groups(self, tiles, parts, self_join, windowed):
        # Coordinates on an eighth-grid: ties and zero areas everywhere.
        from repro.core.kernels import np_sweep

        def rects(corners, base):
            return [Rect(x / 8, (x + w) / 8, y / 8, (y + h) / 8, base + i)
                    for i, (x, w, y, h) in enumerate(corners)]

        sides = [
            (rects(ca, 1000 * t), rects(cb, 1000 * t + 500))
            for t, (ca, cb) in enumerate(tiles)
        ]
        spec = (0.0, 1.375, 0.0, 1.375, 2, 4)
        window = Rect(0.25, 0.8, 0.1, 0.9, 0) if windowed else None
        payloads = _window_pruned([
            (part, spec, ColumnarTile.from_rects(a),
             None if self_join else ColumnarTile.from_rects(b),
             self_join, True, None)
            for part, (a, b) in zip(parts, sides)
        ], window)
        if payloads:  # (a window may prune every tile away)
            self._check(payloads)
        # The replay alone, against the python sweep's own stats (the
        # tile tasks never report ``max_active_items``).
        ca, tile_a = np_sweep._gather([a for a, _ in sides])
        cb, tile_b = np_sweep._gather([b for _, b in sides])
        m = np_sweep._Merged(
            ca, cb, *np_sweep._segment_keys(ca, tile_a, cb, tile_b)
        )
        bounds = [0]
        for a, b in sides:
            bounds.append(bounds[-1] + len(a) + len(b))
        expect = []
        for a, b in sides:
            _, stats = forward_sweep_pairs_batched(a, b, _OpCounter())
            expect.append((stats.cpu_ops, stats.max_active_items))
        assert np_sweep._simulate_ops(m.is_a, m.end, bounds) == expect

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.integers(0, 1500), st.integers(1, 400),
                      st.integers(0, 300)),
            min_size=1, max_size=6,
        ),
        shape=st.sampled_from(("join", "self-join", "presorted")),
        wide_key=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_replay_and_merge_order_property(self, segments, shape,
                                             wide_key, seed):
        # Groups that compact often (mid-run, on a run's last event,
        # after empty segments) against the reference sweep of each
        # segment alone and python's sort of the merge key; a wide key
        # forces the lexsort an int64-overflowing key would take.
        from repro.core.kernels import np_sweep

        presorted = shape == "presorted"
        rng = random.Random(seed)
        sides = []
        for t, (n, run, tall) in enumerate(segments):
            a, b = _compacting_segment(rng, n, run, tall, 10_000 * t)
            if shape == "self-join":
                a = b = a + b
            elif presorted:  # by ylo alone: equal ylo keep index order
                a.sort(key=lambda r: r.ylo)
                b.sort(key=lambda r: r.ylo)
            sides.append((a, b))
        expect_ops, expect_pairs = [], []
        for a, b in sides:
            pairs, stats = forward_sweep_pairs_batched(
                a, b, _OpCounter(), presorted=presorted,
            )
            expect_ops.append((stats.cpu_ops, stats.max_active_items))
            expect_pairs.append(_pair_rids(pairs))

        ca, tile_a = np_sweep._gather([a for a, _ in sides])
        cb, tile_b = (
            (ca, tile_a) if shape == "self-join"
            else np_sweep._gather([b for _, b in sides])
        )
        keys = (
            (ca[2:4], cb[2:4]) if len(sides) == 1
            else np_sweep._segment_keys(ca, tile_a, cb, tile_b)
        )
        with pytest.MonkeyPatch.context() as mp:
            if wide_key:
                mp.setattr(np_sweep, "_KEY_BOUND", 0)
            m = np_sweep._Merged(ca, cb, *keys, presorted=presorted)
        bounds = [0]
        for a, b in sides:
            bounds.append(bounds[-1] + len(a) + len(b))

        # Merge order: (tile, ylo, side, xlo, index within the side).
        events = sorted(
            (t, r.ylo, side, 0.0 if presorted else r.xlo, i, r.rid)
            for side, column in enumerate((
                [(t, r) for t, (a, _) in enumerate(sides) for r in a],
                [(t, r) for t, (_, b) in enumerate(sides) for r in b],
            ))
            for i, (t, r) in enumerate(column)
        )
        assert list(zip(m.is_a.tolist(), m.rid.tolist())) == [
            (e[2] == 0, e[5]) for e in events
        ]
        assert np_sweep._simulate_ops(m.is_a, m.end, bounds) == expect_ops
        a_idx, b_idx, seg = np_sweep._pairs(m, bounds)
        got = [[] for _ in sides]
        for t, ra, rb in zip(seg.tolist(), m.rid[a_idx].tolist(),
                             m.rid[b_idx].tolist()):
            got[t].append((ra, rb))
        assert got == expect_pairs

    def test_compacting_segments_compact_where_the_replay_is_hard(self):
        # The property above is only as strong as its inputs: segments
        # drawn like its own compact more than once each, some of them
        # in the middle of a run of one side and some on the last event
        # of a run longer than one.
        rng = random.Random(2)
        mid_run = run_end = 0
        for run, tall in ((400, 100), (60, 60), (3, 300)):
            sides, at = _reference_compactions(
                *_compacting_segment(rng, 1500, run, tall, 0)
            )
            assert len(at) >= 2
            for i in at:
                last = i + 1 == len(sides) or sides[i + 1] != sides[i]
                first = i == 0 or sides[i - 1] != sides[i]
                run_end += last and not first
                mid_run += not (first or last)
        assert mid_run > 10 and run_end >= 2

    @pytest.mark.parametrize("pool_kind", ("serial", "process"))
    def test_numpy_path_never_runs_the_python_sweep(self, pool_kind,
                                                    monkeypatch):
        # Solo tiles, shipped groups and the inline remainder all go
        # through the kernel: neither a python sweep nor a decoded
        # ``Rect`` list anywhere between the catalog and the pairs.
        # (``tests/test_serve.py::test_numpy_engine_answers_without_
        # boxing_a_pair`` holds an HTTP query to the same.)
        def boxed(*_args, **_kwargs):
            raise AssertionError("the numpy path fell back to python")

        monkeypatch.setattr(pbsm, "forward_sweep_pairs_batched", boxed)
        monkeypatch.setattr(ColumnarTile, "decode", boxed)
        rng = random.Random(41)
        a = GENERATORS["clustered"](rng, 500)
        b = GENERATORS["skewed"](rng, 400, 10_000)
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, workers=2, pool_kind=pool_kind,
            cache_capacity=0,
        )
        try:
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            with dispatch(MIN_SHIP_RECTS=300,
                          TILE_BATCH_BYTES=200 * RECT_BYTES):
                for relations, second in ((("a", "b"), b),
                                          (("a", "a"), None)):
                    # A cold window, the overlay, and another window
                    # off the overlay's cached tiles (the tasks prune).
                    for window in (WINDOWS["interior"], None,
                                   WINDOWS["overhang"]):
                        out = engine.execute(Query(
                            relations=relations, window=window,
                            force="pbsm-grid",
                        ))
                        assert set(out.result.pairs) == brute_reference(
                            a, second, window
                        )
                snap = engine.worker_pool.snapshot()
            assert snap["tiles_inline"] > snap["tasks_inline"] > 0
            if pool_kind != "serial":
                assert snap["tiles_dispatched"] > snap["tasks_dispatched"]
        finally:
            engine.close()


# -- the indexed half: PQ traversal + striped sweep parity -------------------


def _hilbert(store, rects, name):
    from repro.rtree.bulk_load import bulk_load

    return bulk_load(store, rects, name=name)


def _inserted(builder_cls):
    def build(store, rects, name):
        builder = builder_cls(store, name=name)
        builder.extend(rects)
        return builder.finish()
    return build


TREE_SHAPES = {
    "hilbert": _hilbert,
    "guttman": _inserted(RTreeBuilder),
    "rstar": _inserted(RStarTreeBuilder),
}


def _grid_rects(rng, n, id_base=0, cells=8, zero_area=False):
    """Corners on a coarse grid: equal ``ylo`` keys within a leaf,
    across leaves, and between a rectangle and a queued node's MBR —
    with page ids (0 .. a few dozen) on both sides of the push sequence
    numbers (0 .. n)."""
    out = []
    for i in range(n):
        x, y = rng.randrange(cells), rng.randrange(cells)
        w, h = ((0, 0) if zero_area and i % 3 == 0
                else (rng.randrange(3), rng.randrange(3)))
        out.append(Rect(x / cells, (x + w) / cells, y / cells,
                        (y + h) / cells, id_base + i))
    return out


def _pq_outcomes(kernel, rects_a, rects_b, joins, build=_hilbert,
                 scale=TEST_SCALE):
    """``pq_join`` once per entry of ``joins`` (its keyword arguments)
    over one pair of trees in a fresh machine room, counters reset
    before each, and everything the two implementations must agree on:
    the literal sequence of charged page reads (both trees:
    ``PageStore.read`` is what ``read_node`` calls) interleaved with
    every ``env.charge``, the result record, and what the three
    machines made of the run.  An ``inputs`` entry maps ``(disk, tree
    a, tree b)`` to the two join inputs."""
    from repro.core.pq_join import pq_join

    env = make_env(scale)
    disk = Disk(env)
    store = PageStore(disk, scale.index_page_bytes)
    tree_a = build(store, rects_a, "a")
    tree_b = build(store, rects_b, "b")
    ledger = []

    def read(page_id, _read=store.read):
        ledger.append(("read", page_id))
        return _read(page_id)

    def charge(category, ops, _charge=env.charge):
        if ops > 0:  # SimEnv.charge drops the rest
            ledger.append((category, ops))
        return _charge(category, ops)

    store.read = read
    env.charge = charge
    outcomes = []
    for join_args in joins:
        join_args = dict(join_args)
        inputs = join_args.pop("inputs", lambda _disk, a, b: (a, b))
        input_a, input_b = inputs(disk, tree_a, tree_b)
        env.reset_counters()  # builds (and input set-up) are not the join's
        del ledger[:]
        result = pq_join(input_a, input_b, disk, collect_pairs=True,
                         kernel=kernel, **join_args)
        detail = dict(result.detail)
        outcomes.append({
            "ledger": list(ledger),
            "ran": detail.pop("kernel"),
            "detail": detail,
            "memory": result.max_memory_bytes,
            "n_pairs": result.n_pairs,
            "pairs": list(result.pairs),
            "columns": isinstance(result.pairs, PairColumns),
            "machines": env.snapshots(),
            "io": (env.page_reads, env.bytes_read, env.cpu_ops),
        })
    return outcomes


def _assert_index_parity(rects_a, rects_b, joins, expect_ran="numpy",
                         **kwargs):
    got = _pq_outcomes("numpy", rects_a, rects_b, joins, **kwargs)
    ref = _pq_outcomes("python", rects_a, rects_b, joins, **kwargs)
    for one, other in zip(got, ref):
        assert other["ran"] == "python" and not other["columns"]
        assert one["ran"] == expect_ran
        assert one["columns"] == (expect_ran == "numpy")
        for name in other:
            if name not in ("ran", "columns"):
                assert one[name] == other[name], name
    return got


def _pruned(window, **config):
    """Join arguments of a query window: both sides pruned to it."""
    return dict(universe=window, window_a=window, window_b=window,
                config=PQConfig(prune=True, **config))


#: Prune windows for the unit-square datasets: a plain interior one,
#: one hugging the bottom edge (where clipped rectangles and every MBR
#: on the way down share ``ylo == 0``), a sliver, and one poking out.
INDEX_WINDOWS = {
    "interior": Rect(0.31, 0.74, 0.22, 0.58, 0),
    "bottom": Rect(0.0, 0.6, 0.0, 0.3, 0),
    "sliver": Rect(0.5, 0.5, 0.0, 1.0, 0),
    "overhang": Rect(-0.5, 0.4, 0.6, 1.7, 0),
}

SWEEP_STRUCTURES = (
    ("striped", None), ("striped", 1), ("striped", 7), ("striped", 300),
    ("forward", None),
)


class TestIndexSourceParity:
    """python ``IndexSource`` + ``sweep_join`` vs ``np_index``, exactly."""

    @pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
    @pytest.mark.parametrize("kind", ("uniform", "clustered",
                                      "degenerate"))
    def test_pruned_windows(self, kind, shape):
        rng = random.Random(f"{kind}-{shape}")
        a = GENERATORS[kind](rng, 260)
        b = GENERATORS["skewed"](rng, 180, 10_000)
        windows = [INDEX_WINDOWS[name] for name in sorted(INDEX_WINDOWS)]
        got = _assert_index_parity(
            a, b, [_pruned(win) for win in windows],
            build=TREE_SHAPES[shape],
        )
        # The pairs a window query keeps are all there.
        for win, outcome in zip(windows, got):
            assert brute_reference(a, b, win) <= set(outcome["pairs"])
        assert any(o["detail"]["pages_read_a"] > 1 for o in got)

    @pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
    def test_unpruned_and_every_sweep_structure(self, shape):
        rng = random.Random(shape)
        a = GENERATORS["degenerate"](rng, 300)
        b = GENERATORS["clustered"](rng, 250, 10_000)
        # Without a universe the strips span the two root MBRs.
        got = _assert_index_parity(a, b, [
            dict(universe=universe,
                 config=PQConfig(structure=structure, nstrips=nstrips))
            for structure, nstrips in SWEEP_STRUCTURES
            for universe in (None, UNIT)
        ], build=TREE_SHAPES[shape])
        for outcome in got:
            assert set(outcome["pairs"]) == brute_reference(a, b)

    @pytest.mark.parametrize("shape", sorted(TREE_SHAPES))
    @pytest.mark.parametrize("zero_area", (False, True))
    def test_tied_keys_take_the_reference_order(self, shape, zero_area,
                                                monkeypatch):
        # Grid corners: a ylo value is shared by rectangles of several
        # open leaves (push order decides) and by rectangles and queued
        # nodes (``seq <= page id`` decides, and page ids 0 .. ~60 sit
        # inside the sequence numbers' range).
        from repro.core.kernels import np_index

        groups = []
        replay = np_index._replay_ties

        def spy(values, *args):
            groups.append(len(values))
            return replay(values, *args)

        monkeypatch.setattr(np_index, "_replay_ties", spy)
        rng = random.Random(f"{shape}-{zero_area}")
        a = _grid_rects(rng, 240, zero_area=zero_area)
        b = _grid_rects(rng, 200, 10_000, cells=6, zero_area=zero_area)
        win = Rect(0.125, 0.75, 0.25, 0.875, 0)
        got = _assert_index_parity(
            a, b, [dict(universe=UNIT), _pruned(win)],
            build=TREE_SHAPES[shape],
        )
        assert set(got[0]["pairs"]) == brute_reference(a, b)
        assert set(got[1]["pairs"]) >= brute_reference(a, b, win)
        assert len(groups) == 4 and min(groups) > 1

    def test_a_node_key_ties_a_queued_rectangle_on_either_side(self):
        # Three leaves under one root, by hand.  Leaf 0 holds ylo 0.0,
        # 0.5, 0.5; leaves 1 and 2 are queued under the keys (0.5, page
        # 1) and (0.5, page 2).  The rectangles of ylo 0.5 reach the
        # head of the data queue with sequence numbers 1, 2, 3: 1 <= 1
        # goes before leaf 1, 2 does not; 2 <= 2 goes before leaf 2, 3
        # does not.  So the leaves are read after 0, 2 and 3 emits — a
        # data-first rule would read them after 0, 3 and 4.
        from repro.core.kernels import np_index
        from repro.core.sources import IndexSource
        from repro.rtree.node import Node
        from repro.rtree.rtree import RTree

        def build(store, rects, name):
            if name == "b":
                return _hilbert(store, rects, name)
            pages = store.allocate_many(4)
            entries = []
            for page, group in zip(pages, (rects[0:3], rects[3:5],
                                           rects[5:7])):
                node = Node(page, 0, list(group))
                store.write(page, node)
                box = node.mbr()
                entries.append(Rect(box.xlo, box.xhi, box.ylo, box.yhi,
                                    page))
            store.write(pages[3], Node(pages[3], 1, entries))
            return RTree(store, pages[3], 2, len(rects),
                         [pages[:3], pages[3:]], name=name)

        a = [Rect(0.0, 0.1, 0.0, 0.2, 0), Rect(0.2, 0.3, 0.5, 0.6, 1),
             Rect(0.4, 0.5, 0.5, 0.9, 2),
             Rect(0.1, 0.2, 0.5, 0.7, 3), Rect(0.6, 0.7, 0.8, 0.9, 4),
             Rect(0.3, 0.4, 0.5, 0.8, 5), Rect(0.8, 0.9, 0.9, 1.0, 6)]
        b = [Rect(0.0, 1.0, 0.45, 0.55, 100),
             Rect(0.0, 1.0, 0.85, 0.95, 101)]
        store = PageStore(Disk(make_env()), TEST_SCALE.index_page_bytes)
        tree = build(store, a, "a")
        emitted_at_read = []
        emitted = []
        store.read = lambda page, _read=store.read: (
            emitted_at_read.append((page, len(emitted))) or _read(page))
        for rect in IndexSource(tree):
            emitted.append(rect.rid)
        assert emitted_at_read == [(3, 0), (0, 0), (1, 2), (2, 3)]
        assert emitted == [0, 1, 2, 3, 5, 4, 6]
        plan = np_index._traverse(tree, None)
        assert list(zip(plan.pages, plan.before)) == emitted_at_read
        assert plan.cols[4].tolist() == emitted
        _assert_index_parity(a, b, [dict(universe=UNIT)], build=build)

    def test_one_leaf_empty_prune_and_disjoint_root(self):
        rng = random.Random(3)
        few = _uniform(rng, 9)  # capacity 12: the root is the only leaf
        many = _uniform(rng, 200, 10_000)
        got = _assert_index_parity(few, many, [dict(universe=UNIT)])
        assert got[0]["detail"]["pages_read_a"] == 1
        _assert_index_parity(few, few, [_pruned(UNIT)])
        # Nothing left after the prune: the window meets both root
        # MBRs and no rectangle (the data leaves that corner empty).
        corner = [r for r in many if r.xlo > 0.3 or r.ylo > 0.3]
        hole = Rect(0.0, 0.25, 0.0, 0.25, 0)
        got = _assert_index_parity(corner, corner, [_pruned(hole)])
        assert got[0]["n_pairs"] == 0
        assert got[0]["detail"]["pages_read_a"] > 0
        # Root disjoint from the window: no read, no charge at all —
        # on one side, then on both.
        far = Rect(2.0, 3.0, 2.0, 3.0, 0)
        one, both = _assert_index_parity(many, few, [
            dict(universe=UNIT, config=PQConfig(prune=True),
                 window_a=UNIT, window_b=far),
            dict(config=PQConfig(prune=True), window_a=far, window_b=far),
        ])
        assert one["detail"]["pages_read_a"] == 0
        assert one["detail"]["pages_read_b"] > 0
        assert both["ledger"] == [] and both["memory"] == 0

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_quick_scale_datasets_unpruned(self, name):
        ds = build_dataset(name, QUICK_SCALE)
        got = _assert_index_parity(
            ds.roads, ds.hydro, [dict(universe=ds.universe)],
            scale=QUICK_SCALE,
        )
        assert got[0]["n_pairs"] > 0

    @settings(max_examples=80, deadline=None)
    @given(
        corners=st.tuples(*[st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 3),
                      st.integers(0, 8), st.integers(0, 3)),
            min_size=1, max_size=70,
        )] * 2),
        shape=st.sampled_from(sorted(TREE_SHAPES)),
        page_bytes=st.sampled_from((68, 108, 256)),
        window=st.one_of(st.none(), st.tuples(
            st.integers(0, 8), st.integers(0, 4),
            st.integers(0, 8), st.integers(0, 4))),
        structure=st.sampled_from(("striped", "forward")),
        nstrips=st.sampled_from((None, 1, 3, 50)),
    )
    def test_random_small_trees(self, corners, shape, page_bytes, window,
                                structure, nstrips):
        # An eighth-grid again (ties everywhere), fanouts of 3, 5 and
        # 12, so a few dozen rectangles make three-level trees.
        a, b = (
            [Rect(x / 8, (x + w) / 8, y / 8, (y + h) / 8, base + i)
             for i, (x, w, y, h) in enumerate(side)]
            for base, side in zip((0, 1000), corners)
        )
        win = None
        if window is not None:
            x, w, y, h = window
            win = Rect(x / 8, (x + w) / 8, y / 8, (y + h) / 8, 0)
        got = _assert_index_parity(
            a, b, [dict(
                config=PQConfig(structure=structure, nstrips=nstrips,
                                prune=win is not None),
                window_a=win, window_b=win,
            )],
            build=TREE_SHAPES[shape],
            scale=dataclasses.replace(TEST_SCALE,
                                      index_page_bytes=page_bytes),
        )
        assert set(got[0]["pairs"]) >= brute_reference(a, b, win)

    def test_declined_inputs_are_the_reference(self):
        rng = random.Random(8)
        a = _uniform(rng, 120)
        b = _uniform(rng, 90, 10_000)
        nan = float("nan")
        inf = float("inf")
        # (Hilbert packing cannot place a non-finite centre: those two
        # trees are built by insertion.)
        for bad, shape in ((Rect(0.1, 0.2, 0.3, 0.2, 999), "hilbert"),
                           (Rect(0.2, 0.1, 0.3, 0.4, 999), "hilbert"),
                           (Rect(0.1, 0.2, 0.3, inf, 999), "guttman"),
                           (Rect(0.1, 0.2, nan, 0.4, 999), "guttman")):
            for sides in ((a + [bad], b), (b, a + [bad])):
                _assert_index_parity(*sides, [dict(universe=UNIT)],
                                     expect_ran="python",
                                     build=TREE_SHAPES[shape])
        _assert_index_parity(a, b, [
            dict(universe=UNIT, config=PQConfig(queue_memory_items=4)),
            dict(universe=UNIT, inputs=lambda disk, ta, tb: (
                ta, Stream.from_rects(disk, list(tb.iter_all())))),
            dict(universe=Rect(0.0, inf, 0.0, 1.0, 0),
                 config=PQConfig(nstrips=4)),
        ], expect_ran="python")
        for kernel in ("python", "numpy"):
            with pytest.raises(ValueError, match="at least one strip"):
                _pq_outcomes(kernel, a, b, [dict(
                    universe=UNIT, config=PQConfig(nstrips=0))])
            with pytest.raises(ValueError, match="unknown sweep"):
                _pq_outcomes(kernel, a, b, [dict(
                    universe=UNIT, config=PQConfig(structure="radial"))])


class TestIndexKernelServing:
    """The kernel where queries reach it: under the engine."""

    @pytest.mark.parametrize("sharded", (False, True))
    def test_numpy_index_plans_never_box_a_rectangle(self, sharded,
                                                     monkeypatch):
        # Forced ``pq-index`` windows and the overlay: no generator,
        # no merge loop, no striped probe anywhere, and the pairs stay
        # columns from the kernel through the window filter to the
        # result cache.
        import sys

        from repro.core import sweep as sweep_mod
        from repro.core.sources import IndexSource

        # (``repro.core.pq_join`` the attribute is the function.)
        pq_join_mod = sys.modules["repro.core.pq_join"]

        def boxed(*_args, **_kwargs):
            raise AssertionError("a numpy index plan fell back to python")

        monkeypatch.setattr(IndexSource, "__iter__", boxed)
        monkeypatch.setattr(sweep_mod.StripedSweep, "probe", boxed)
        monkeypatch.setattr(sweep_mod, "_sweep", boxed)
        monkeypatch.setattr(sweep_mod, "sweep_join", boxed)
        monkeypatch.setattr(pq_join_mod, "sweep_join", boxed)
        rng = random.Random(47)
        a = GENERATORS["clustered"](rng, 500)
        b = GENERATORS["degenerate"](rng, 400, 10_000)
        if sharded:
            engine = ShardedEngine(
                shards=2, scale=TEST_SCALE, workers=2, pool_kind="serial",
                cache_capacity=4,
            )
            force_strategies(engine.all_engines,
                             ["pq-index"] * len(engine.all_engines))
            force = None
        else:
            engine = SpatialQueryEngine(
                scale=TEST_SCALE, workers=2, pool_kind="serial",
                cache_capacity=4,
            )
            force = "pq-index"
        try:
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            engine.prepare()
            for window in (WINDOWS["interior"], INDEX_WINDOWS["bottom"],
                           WINDOWS["overhang"], None):
                query = Query(relations=("a", "b"), window=window,
                              force=force)
                out = engine.execute(query)
                assert isinstance(out.result.pairs, PairColumns)
                assert set(out.result.pairs) == brute_reference(a, b, window)
                if not sharded:
                    assert out.result.detail["strategy"] == "pq-index"
                    assert out.result.detail["kernel"] == "numpy"
                hit = engine.execute(query)
                assert hit.from_cache
                assert isinstance(hit.result.pairs, PairColumns)
                assert hit.result.pairs == out.result.pairs
            assert set(engine.metrics_snapshot()["per_strategy"]) == {
                "pq-index"
            }
        finally:
            engine.close()

    def test_prepare_builds_leaf_columns_once_every_index_is_written(self):
        rng = random.Random(59)
        a = _uniform(rng, 200)
        b = _uniform(rng, 150, 10_000)
        for sharded in (False, True):
            cls = ShardedEngine if sharded else SpatialQueryEngine
            extra = {"shards": 2} if sharded else {}
            with cls(scale=TEST_SCALE, workers=1, pool_kind="serial",
                     **extra) as engine:
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                engine.prepare()
                for single in (engine.all_engines if sharded
                               else [engine]):
                    writes = single.catalog.store.writes
                    for name in ("a", "b"):
                        built = single.catalog.get(name).tree._leaf_columns
                        # Current: the first pq-index query builds
                        # nothing.
                        assert built is not None and built[0] == writes

    def test_engine_accounting_matches_the_python_kernel(self):
        rng = random.Random(53)
        a = GENERATORS["uniform"](rng, 600)
        b = GENERATORS["skewed"](rng, 500, 10_000)
        outcomes = {}
        for kernel in ("python", "numpy"):
            with reference_executor(kernel == "python"), \
                    SpatialQueryEngine(scale=TEST_SCALE, workers=2,
                                       pool_kind="serial",
                                       cache_capacity=0) as engine:
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                engine.prepare()
                engine.env.reset_counters()
                runs = []
                for window in (WINDOWS["interior"], None):
                    out = engine.execute(Query(
                        relations=("a", "b"), window=window,
                        force="pq-index",
                    ))
                    detail = dict(out.result.detail)
                    # The reference joins through ``IndexSource``.
                    assert detail.pop("kernel") == kernel
                    runs.append((list(out.result.pairs), detail,
                                 out.sim_wall_seconds))
                outcomes[kernel] = (runs, engine.env.snapshots(),
                                    engine.env.cpu_ops,
                                    engine.env.page_reads)
        assert outcomes["numpy"] == outcomes["python"]

    @pytest.mark.parametrize("shape", ("guttman", "rstar"))
    def test_leaf_columns_follow_an_insert(self, shape):
        # The builders edit a node's entries in place: a tree handle
        # whose leaf columns were built before an insert must not join
        # from the old rows.
        from repro.core.pq_join import pq_join

        rng = random.Random(shape)
        a = _uniform(rng, 150)
        b = _uniform(rng, 120, 10_000)
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        builder = {"guttman": RTreeBuilder,
                   "rstar": RStarTreeBuilder}[shape](store, name="a")
        builder.extend(a)
        tree_a = builder.finish()
        tree_b = _hilbert(store, b, "b")

        def joined(kernel):
            result = pq_join(tree_a, tree_b, disk, universe=UNIT,
                             collect_pairs=True, kernel=kernel)
            assert result.detail["kernel"] == kernel
            return list(result.pairs)

        assert set(joined("numpy")) == brute_reference(a, b)
        before = tree_a.leaf_columns()
        # One more rectangle, meeting plenty of b, into a leaf with
        # room: same pages, same root, one page written.
        extra = Rect(0.2, 0.7, 0.3, 0.6, 999)
        builder.insert(extra)
        assert builder.finish().pages_per_level == tree_a.pages_per_level
        assert tree_a.leaf_columns() is not before
        got = joined("numpy")
        assert got == joined("python")
        assert set(got) == brute_reference(a + [extra], b)
        assert any(ida == 999 for ida, _ in got)
        # Nothing written since: the rebuilt columns are kept.
        assert tree_a.leaf_columns() is tree_a.leaf_columns()
