"""Sharded scatter/gather serving: differential and property tests.

The headline contract: :class:`ShardedEngine` must return bit-identical
pair sets to the single-engine and brute-force references on every
workload — random, skewed, clustered, degenerate, windowed, self-join,
forced-strategy, multiway — at every shard count, with all shards
sharing one :class:`WorkerPool`.  The ``assert_same_pairs`` fixture in
``conftest.py`` is the harness; the property tests here feed it seeded
adversarial data.  Alongside correctness, the suite pins the
shared-pool lifecycle (ref-counted close, per-client accounting,
broken-pool demotion) and cross-engine isolation (budgets, artifact
caches, interleaved and concurrent workloads).
"""

from __future__ import annotations

import inspect
import math
import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.columnar import ColumnarTile, PairColumns
from repro.core.histogram import DEFAULT_GRID
from repro.core.join_result import JoinResult
from repro.engine import (
    AdmissionError,
    Query,
    ServingFrontend,
    ShardedEngine,
    SpatialQueryEngine,
    WorkerPool,
)
from repro.engine.query import FORCEABLE
from repro.engine.shard import balanced_cuts, gather_pairs
from repro.geom.rect import Rect, intersection
from repro.sim.machines import MACHINE_3

from tests.conftest import (
    GENERATORS,
    TEST_SCALE,
    _clustered,
    _degenerate,
    _skewed,
    _uniform,
    brute_reference,
    dispatch,
    force_strategies,
    make_workload,
    reference_executor,
    windowed_hit_reference,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

#: The datasets here are tiny: without this nothing would reach the
#: shared pool whose accounting and lifecycle the module tests.
pytestmark = pytest.mark.usefixtures("ship_every_tile")


def _make_sharded(shards: int, **kw) -> ShardedEngine:
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("workers", 2)
    kw.setdefault("pool_kind", "serial")
    kw.setdefault("cache_capacity", 0)
    return ShardedEngine(shards=shards, **kw)


def _make_single(pool=None, **kw) -> SpatialQueryEngine:
    kw.setdefault("scale", TEST_SCALE)
    kw.setdefault("machine", MACHINE_3)
    kw.setdefault("workers", 2)
    kw.setdefault("cache_capacity", 0)
    return SpatialQueryEngine(worker_pool=pool, **kw)


def test_sharded_signature_tracks_the_single_engine():
    # ShardedEngine re-declares the engine parameters it forwards; a
    # default changed on one side only would make ``--shards 2`` a
    # different deployment, and a tile-dispatch threshold must not
    # come back as a parameter on either.
    single = inspect.signature(SpatialQueryEngine.__init__).parameters
    sharded = inspect.signature(ShardedEngine.__init__).parameters
    shared = (set(single) & set(sharded)) - {"self"}
    assert {"workers", "memory_bytes", "pool_kind"} <= shared
    for name in sorted(shared):
        assert sharded[name].default == single[name].default, name
    deleted = {"min_ship_rects", "tile_batch_bytes", "shm_min_bytes",
               "inline_plan_ops", "histogram_grid", "scatter_threads",
               "replica_timeout_seconds", "slow_threshold_seconds",
               "cache_bytes", "retry_backoff_seconds", "artifact_dir",
               "result_store_bytes", "auto_index", "kernel"}
    assert not deleted & (set(single) | set(sharded))
    assert "slow_log_capacity" not in sharded
    assert (len(single) - 1, len(sharded) - 1) == (11, 11)
    # Admission grants are the static per-class table.
    assert "adaptive_grants" not in inspect.signature(
        ServingFrontend.__init__).parameters


# -- sharding geometry -------------------------------------------------------


class TestShardingGeometry:
    def test_balanced_cuts_split_uniform_mass_evenly(self):
        rng = random.Random(1)
        rects = _uniform(rng, 400)
        cuts = balanced_cuts(rects, UNIT, 4, grid=32)
        assert len(cuts) == 3
        assert cuts == sorted(cuts)
        # Uniform mass: cuts land near the quartiles.
        for cut, expect in zip(cuts, (0.25, 0.5, 0.75)):
            assert abs(cut - expect) < 0.1

    def test_degenerate_mass_collapses_cuts(self):
        # All centers in one column: every cut lands at the same spot
        # and the excess shards simply stay empty.
        rects = [Rect(0.1, 0.12, y / 100, y / 100 + 0.01, y)
                 for y in range(50)]
        cuts = balanced_cuts(rects, UNIT, 4, grid=32)
        assert len(set(cuts)) == 1

    def test_outer_strips_are_unbounded(self):
        sharded = _make_sharded(3)
        sharded.register("a", _uniform(random.Random(2), 100),
                         universe=UNIT)
        lo0, _ = sharded.strip_of(0)
        _, hi2 = sharded.strip_of(2)
        assert lo0 == float("-inf") and hi2 == float("inf")
        # A later relation lying entirely outside the first one's
        # universe still lands in a shard.
        far = [Rect(5.0 + i * 0.01, 5.02 + i * 0.01, 0.1, 0.2, 900 + i)
               for i in range(10)]
        sharded.register("far", far)
        assert sharded._present["far"][2]
        sharded.close()

    def test_strip_of_before_register_raises_clearly(self):
        sharded = _make_sharded(2)
        with pytest.raises(RuntimeError, match="no relation is registered"):
            sharded.strip_of(1)
        sharded.close()

    def test_window_prunes_nonoverlapping_shards(self):
        rng = random.Random(3)
        sharded = _make_sharded(4)
        sharded.register("a", _uniform(rng, 200), universe=UNIT)
        sharded.register("b", _uniform(rng, 150, 10_000), universe=UNIT)
        corner = Rect(0.9, 0.99, 0.9, 0.99, 0)
        out = sharded.execute(Query(relations=("a", "b"), window=corner))
        detail = out.result.detail
        assert detail["shards_pruned"], "a corner window must prune shards"
        assert len(detail["shards_queried"]) < 4
        sharded.close()


# -- differential suite ------------------------------------------------------


class TestDifferential:
    """Brute force == single engine == ShardedEngine(1, 2, 4 shards)."""

    def test_full_join(self, assert_same_pairs):
        rng = random.Random(7)
        ref = assert_same_pairs(_uniform(rng, 250),
                                _uniform(rng, 120, 10_000))
        assert ref, "the differential reference must not be empty"

    def test_windowed_join(self, assert_same_pairs):
        rng = random.Random(8)
        assert_same_pairs(
            _uniform(rng, 250), _uniform(rng, 120, 10_000),
            window=Rect(0.2, 0.55, 0.15, 0.6, 0),
        )

    def test_self_join(self, assert_same_pairs):
        rng = random.Random(9)
        ref = assert_same_pairs(_clustered(rng, 200))
        assert all(x < y for x, y in ref)

    @pytest.mark.parametrize("force", FORCEABLE)
    def test_forced_strategies(self, assert_same_pairs, force):
        rng = random.Random(10)
        a = _uniform(rng, 200)
        b = _uniform(rng, 100, 10_000)
        assert_same_pairs(a, b, force=force, shard_counts=(2, 3),
                          pool_kinds=("serial",))

    @pytest.mark.parametrize("relations, force, window", [
        (("a", "b"), "nested-loop", None),
        (("a", "a"), "pq-index", None),
        (("a", "b"), None, Rect(0.1, math.nan, 0.1, 0.6, 0)),
    ], ids=("unknown-force", "self-join-force", "nan-window"))
    def test_bad_force_never_reaches_a_replica(self, relations, force,
                                               window):
        # A malformed request is the caller's error, not a replica
        # failure: it must not cost retries, backoff or health.
        rng = random.Random(14)
        sharded = _make_sharded(2, replicas=2)
        sharded.register("a", _uniform(rng, 80), universe=UNIT)
        sharded.register("b", _uniform(rng, 60, 10_000), universe=UNIT)
        with pytest.raises(ValueError, match="accepted|NaN"):
            sharded.execute(Query(relations=relations, force=force,
                                  window=window))
        snap = sharded.metrics_snapshot()
        assert (snap["replica_failures"], snap["retries"]) == (0, 0)
        assert snap["replica_health"] == [[1.0, 1.0], [1.0, 1.0]]
        sharded.close()

    def test_multiway_join(self):
        rng = random.Random(11)
        a = _uniform(rng, 90)
        b = _uniform(rng, 70, 10_000)
        c = _uniform(rng, 60, 20_000)
        ref = _multiway_reference(a, b, c)
        query = Query(relations=("a", "b", "c"))
        single = _make_single()
        for name, rects in (("a", a), ("b", b), ("c", c)):
            single.register(name, rects, universe=UNIT)
        assert set(map(tuple, single.execute(query).result.pairs)) == ref
        single.close()
        for shards in (2, 4):
            sharded = _make_sharded(shards)
            for name, rects in (("a", a), ("b", b), ("c", c)):
                sharded.register(name, rects, universe=UNIT)
            got = set(map(tuple, sharded.execute(query).result.pairs))
            assert got == ref, f"{shards}-shard multiway diverged"
            sharded.close()

    def test_count_only_query_dedups_across_shards(self):
        rng = random.Random(12)
        a = _degenerate(rng, 150)
        b = _degenerate(rng, 120, 10_000)
        ref = brute_reference(a, b)
        for shards in (2, 4):
            sharded = _make_sharded(shards)
            sharded.register("a", a, universe=UNIT)
            sharded.register("b", b, universe=UNIT)
            out = sharded.execute(
                Query(relations=("a", "b"), collect_pairs=False)
            )
            assert out.result.pairs is None
            assert out.result.n_pairs == len(ref), (
                "count-only results must be boundary-deduplicated"
            )
            sharded.close()

    def test_refined_join_matches_single_engine(self):
        rng = random.Random(13)
        a = _uniform(rng, 120)
        b = _uniform(rng, 90, 10_000)
        # Exact diagonals for half the rectangles; the rest fall back
        # to the MBR verdict — both behaviours must shard identically.
        geom_a = {r.rid: [(r.xlo, r.ylo), (r.xhi, r.yhi)]
                  for r in a if r.rid % 2 == 0}
        geom_b = {r.rid: [(r.xlo, r.yhi), (r.xhi, r.ylo)]
                  for r in b if r.rid % 2 == 0}
        query = Query(relations=("a", "b"), refine=True)
        single = _make_single()
        single.register("a", a, universe=UNIT, geometries=geom_a)
        single.register("b", b, universe=UNIT, geometries=geom_b)
        ref = sorted(single.execute(query).result.pairs)
        single.close()
        for shards in (2, 4):
            sharded = _make_sharded(shards)
            sharded.register("a", a, universe=UNIT, geometries=geom_a)
            sharded.register("b", b, universe=UNIT, geometries=geom_b)
            assert sorted(sharded.execute(query).result.pairs) == ref
            sharded.close()


def _multiway_reference(a, b, c, window=None):
    ref = set()
    for ra in a:
        for rb in b:
            i1 = intersection(ra, rb)
            if i1 is None:
                continue
            for rc in c:
                i2 = intersection(i1, rc)
                if i2 is not None and (window is None
                                       or i2.intersects(window)):
                    ref.add((ra.rid, rb.rid, rc.rid))
    return ref


class TestGatherParity:
    """The gather against brute force and the python reference.

    Every shard keeps only the pairs it owns, so a collected gather is
    the shards' answers back to back: its pairs are compared as sets
    with brute force, checked free of duplicates, and compared as
    sequences with the reference executor's, which concatenate in the
    same order.
    """

    WINDOW = Rect(0.2, 0.55, 0.15, 0.6, 0)
    RIGHT = Rect(0.6, 0.95, 0.15, 0.6, 0)

    @staticmethod
    def _data():
        rng = random.Random(77)
        return {
            # Full-width slivers straddle every cut: cross-shard
            # duplicates are guaranteed from two shards up.
            "a": _degenerate(rng, 220),
            "b": _degenerate(rng, 160, 10_000),
            "c": _uniform(rng, 70, 20_000),
            # Lives where nothing of "far" reaches: an empty result.
            "near": [Rect(0.1, 0.2, 0.1, 0.2, 30_000)],
            "far": [Rect(0.8, 0.9, 0.8, 0.9, 40_000)],
        }

    def _cases(self, data):
        a, b, c = data["a"], data["b"], data["c"]
        return [
            (Query(relations=("a", "b")), brute_reference(a, b)),
            (Query(relations=("a", "a")), brute_reference(a)),
            (Query(relations=("a", "b"), window=self.WINDOW),
             brute_reference(a, b, self.WINDOW)),
            # An index plan's window (and strip) is the post-filter's;
            # a partitioned plan's is its tile kernel's.
            (Query(relations=("a", "b"), window=self.WINDOW,
                   force="pq-index"),
             brute_reference(a, b, self.WINDOW)),
            # Refined: the strip test runs after refinement, on the
            # reference x clipped to a window right of the first cut.
            (Query(relations=("a", "b"), window=self.RIGHT, refine=True),
             brute_reference(a, b, self.RIGHT)),
            (Query(relations=("a", "b"), collect_pairs=False),
             brute_reference(a, b)),
            (Query(relations=("a", "b", "c")),
             _multiway_reference(a, b, c)),
            (Query(relations=("near", "far")), set()),
        ]

    def _serve(self, shards, pool_kind, reference=False):
        data = self._data()
        with reference_executor(reference), \
                _make_sharded(shards, pool_kind=pool_kind) as engine:
            for name, rects in data.items():
                engine.register(name, rects, universe=UNIT)
            return [(query, ref, engine.execute(query).result,
                     [e.metrics.sim_wall_seconds for e in engine.engines])
                    for query, ref in self._cases(data)]

    @pytest.mark.parametrize("pool_kind", ("serial", "process"))
    @pytest.mark.parametrize("shards", (1, 2, 4))
    def test_every_query_shape(self, shards, pool_kind):
        served = self._serve(shards, pool_kind)
        for query, ref, result, _ in served:
            what = f"{query.describe()} on {shards} {pool_kind} shards"
            assert result.n_pairs == len(ref), what
            if not query.collect_pairs:
                assert result.pairs is None
                continue
            assert isinstance(result.pairs, PairColumns), what
            assert result.pairs.ids.shape == (
                len(ref), len(query.relations)
            ), what
            assert set(result.pairs) == ref, what
        dups = served[0][2].detail["cross_shard_duplicates"]
        assert (dups > 0) == (shards > 1), "straddlers must be counted"
        # The python reference: the same answers in the same order, the
        # same duplicate accounting and the same simulated time a shard.
        for (query, _, result, sim), (_, _, want, want_sim) in zip(
            served, self._serve(shards, pool_kind, reference=True)
        ):
            assert want.n_pairs == result.n_pairs
            for key in ("cross_shard_duplicates", "shard_pairs",
                        "shards_queried", "shards_pruned"):
                assert want.detail[key] == result.detail[key], key
            if query.collect_pairs:
                assert list(want.pairs) == list(result.pairs)
            assert want_sim == sim

    def test_shards_answering_with_different_strategies(self):
        data = self._data()
        ref = brute_reference(data["a"], data["b"])
        for forced in (("pq-index", "pbsm-grid"), ("pbsm-grid", "pq-index")):
            engine = _make_sharded(2)
            try:
                engine.register("a", data["a"], universe=UNIT)
                engine.register("b", data["b"], universe=UNIT)
                force_strategies(engine.engines, forced)
                result = engine.execute(Query(relations=("a", "b"))).result
                assert [
                    result.detail["shard_strategies"][k] for k in (0, 1)
                ] == list(forced)
                assert len(result.pairs) == len(ref)
                assert set(result.pairs) == ref
                assert result.detail["cross_shard_duplicates"] > 0
            finally:
                engine.close()

    @pytest.mark.parametrize("collect", (True, False))
    def test_gather_pairs_mixes_lists_and_columns(self, collect):
        # Disjoint parts, as shards that keep only what they own hand
        # in: concatenated in order, counted by summing.
        rng = random.Random(3)
        triples = [(rng.randrange(40), rng.randrange(-9, 9),
                    rng.randrange(10**6, 10**6 + 5)) for _ in range(900)]
        parts = [triples[:300], PairColumns.from_pairs(triples[300:600], 3),
                 [], PairColumns.empty(3), triples[600:]]
        results = [
            JoinResult(algorithm="shard", n_pairs=len(part),
                       pairs=part if collect else None)
            for part in parts
        ]
        pairs, n = gather_pairs(results, 3, collect)
        assert n == len(triples)
        if collect:
            assert type(pairs) is PairColumns
            assert pairs == triples
        else:
            assert pairs is None
        assert gather_pairs([], 2, True) == ([], 0)
        assert gather_pairs([], 2, False) == (None, 0)


# -- ownership: each shard keeps what its strip owns ------------------------

#: Coordinates on a 1/64 lattice: every other line is one
#: ``balanced_cuts`` can put a cut on (it cuts on the histogram grid).
LATTICE = 64
assert LATTICE % DEFAULT_GRID == 0


def _on_lattice(cells, id_base: int):
    return [
        Rect(x / LATTICE, min(LATTICE, x + w) / LATTICE,
             y / LATTICE, min(LATTICE, y + h) / LATTICE, id_base + i)
        for i, (x, w, y, h) in enumerate(cells)
    ]


def _cell(x_lo: int = 0, x_hi: int = LATTICE):
    """One lattice rectangle's ``(x, width, y, height)``; width 0 is a
    zero-width rectangle on a lattice line."""
    return st.tuples(st.integers(x_lo, x_hi), st.integers(0, 12),
                     st.integers(0, LATTICE), st.integers(0, 12))


class TestOwnership:
    """A shard keeps a result only when its reference point lies in the
    shard's own strip, so the shards' answers are disjoint."""

    @pytest.mark.parametrize("force", (None, "pq-index"))
    @pytest.mark.parametrize("shards", (2, 4))
    def test_count_only_shards_collect_nothing(self, shards, force):
        # The partitioned plan counts in its kernels; a pq-index shard
        # collects for its post-filter and drops the ids after it.
        data = TestGatherParity._data()
        a, b = data["a"], data["b"]
        engine = _make_sharded(shards)
        seen = []
        try:
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            for shard in engine.engines:
                def execute(query, *args, _run=shard.execute, **kwargs):
                    out = _run(query, *args, **kwargs)
                    seen.append((query.collect_pairs, out.result.pairs))
                    return out
                shard.execute = execute
            counted = engine.execute(Query(
                relations=("a", "b"), collect_pairs=False, force=force,
            )).result
            assert len(seen) == shards
            assert all(not collect and pairs is None
                       for collect, pairs in seen)
            assert counted.pairs is None
            assert counted.n_pairs == len(brute_reference(a, b))
            collected = engine.execute(Query(
                relations=("a", "b"), force=force,
            )).result
            assert set(collected.pairs) == brute_reference(a, b)
            for key in ("cross_shard_duplicates", "shard_pairs"):
                assert counted.detail[key] == collected.detail[key], key
            assert counted.detail["cross_shard_duplicates"] > 0
        finally:
            engine.close()

    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
    ])
    @given(data=st.data())
    def test_edge_of_cut_differential(self, data):
        draw = data.draw
        shards = draw(st.sampled_from((2, 4)), label="shards")
        shape = draw(st.sampled_from(("pairwise", "self", "multiway")),
                     label="shape")
        # A relation crowded into one histogram column collapses the
        # cuts: strips of zero width that own nothing.
        crowded = draw(st.booleans(), label="crowded")
        a = _on_lattice(draw(st.lists(
            _cell(40, 41) if crowded else _cell(), min_size=1, max_size=14,
        ), label="a"), 0)
        cuts = balanced_cuts(a, UNIT, shards, DEFAULT_GRID)

        def snapped(id_base):
            # Rectangles and zero-width rectangles put on the cuts.
            rects = _on_lattice(draw(st.lists(_cell(), min_size=1,
                                              max_size=12)), id_base)
            for cut in draw(st.lists(st.sampled_from(cuts), max_size=4)):
                y = draw(st.integers(0, LATTICE)) / LATTICE
                width = draw(st.sampled_from((0.0, 1 / LATTICE)))
                rects.append(Rect(cut, min(1.0, cut + width), y,
                                  min(1.0, y + 4 / LATTICE),
                                  id_base + len(rects)))
            return rects

        b = snapped(10_000)
        c = snapped(20_000)
        window = None
        if draw(st.booleans(), label="windowed"):
            x, w, y, h = draw(_cell(), label="window")
            xlo, xhi = x / LATTICE, min(LATTICE, x + 2 * w) / LATTICE
            edge = draw(st.sampled_from(("none", "xlo", "xhi")))
            cut = draw(st.sampled_from(cuts))
            if edge == "xlo":
                xlo, xhi = cut, max(cut, xhi)
            elif edge == "xhi":
                xlo, xhi = min(xlo, cut), cut
            window = Rect(xlo, xhi, y / LATTICE,
                          min(LATTICE, y + 2 * h) / LATTICE, 0)
        forces = (None, "pq-index", "pbsm-grid")
        if shape == "self":
            relations, inputs = ("a", "a"), (a,)
            ref = brute_reference(a, None, window)
            forces = (None, "pbsm-grid")
        elif shape == "pairwise":
            relations, inputs = ("a", "b"), (a, b)
            ref = brute_reference(a, b, window)
        else:
            relations, inputs = ("a", "b", "c"), (a, b, c)
            ref = _multiway_reference(a, b, c, window)
            forces = (None,)
        refine = shape == "pairwise" and draw(st.booleans(), label="refine")
        collect = (window is not None or refine
                   or draw(st.booleans(), label="collect"))
        query = Query(relations=relations, window=window, refine=refine,
                      collect_pairs=collect)

        shard_forces = [draw(st.sampled_from(forces), label="force")
                        for _ in range(shards)]
        outcomes = []
        for reference in (False, True):
            with reference_executor(reference), \
                    _make_sharded(shards) as engine:
                for name, rects in zip("abc", (a, b, c)):
                    engine.register(name, rects, universe=UNIT)
                assert engine._cuts == cuts
                force_strategies(engine.engines, shard_forces)
                result = engine.execute(query).result
                participating, _ = engine.plan_shards(query)
                outcomes.append((
                    None if result.pairs is None else list(result.pairs),
                    {key: result.detail[key] for key in (
                        "cross_shard_duplicates", "shard_pairs",
                        "shard_strategies")},
                    [e.metrics.sim_wall_seconds for e in engine.engines],
                ))
        # The python reference: same pairs in the same order, same
        # ownership accounting, same simulated time a shard.
        assert outcomes[0] == outcomes[1]

        assert result.n_pairs == len(ref)
        if collect:
            assert len(result.pairs) == len(ref)
            assert set(result.pairs) == ref
        else:
            assert result.pairs is None
        assert sum(result.detail["shard_pairs"].values()) == result.n_pairs
        # Every participating shard that holds all of a result's
        # rectangles finds it; all but the owner's copy are the
        # cross-shard duplicates.
        by_id = {r.rid: r for rects in inputs for r in rects}
        strips = [engine.strip_of(k) for k in participating]
        raw = sum(
            all(by_id[rid].xhi >= lo and by_id[rid].xlo <= hi
                for rid in ids)
            for ids in ref for lo, hi in strips
        )
        assert result.detail["cross_shard_duplicates"] == raw - len(ref)


# -- the window at emission: the tile kernels filter a windowed plan --------


def _window_cell():
    """A lattice window's ``(x, width, y, height)``, zero-area ones
    included."""
    return st.tuples(st.integers(0, LATTICE), st.integers(0, 24),
                     st.integers(0, LATTICE), st.integers(0, 24))


def _corner_pairs(window: Rect, corners, id_base: int):
    """Two rectangles a window corner apart, one pair a corner: ``a``
    crosses the corner (it meets the window), ``b`` lies beyond it, and
    they overlap only outside the window.  (Two rectangles that both
    meet a window can never intersect outside it — the x and y
    intervals of each pair and the window meet pairwise, so all three
    meet — which is why a pruned tile never drops a pair.)"""
    step = 1 / LATTICE
    a, b = [], []
    for i, (right, top) in enumerate(corners):
        x = window.xhi if right else window.xlo
        y = window.yhi if top else window.ylo
        sx = 1 if right else -1
        sy = 1 if top else -1
        a.append(Rect(*sorted((x - sx * step, x + 3 * sx * step)),
                      *sorted((y - sy * step, y + 3 * sy * step)),
                      id_base + i))
        b.append(Rect(*sorted((x + sx * step, x + 2 * sx * step)),
                      *sorted((y + sy * step, y + 2 * sy * step)),
                      id_base + 100 + i))
    return a, b


def _grid_tiles(a, b, grid):
    """``(part_id, side_a, side_b)`` for every partition of ``grid``
    holding something on both sides (``b=None``: a self-join)."""
    def cut(rects):
        out = [[] for _ in range(grid.p)]
        for r in rects:
            for part in grid.partitions_of(r):
                out[part].append(r)
        return out

    tiles_a = cut(a)
    tiles_b = cut(b) if b is not None else [None] * grid.p
    return [
        (i, ColumnarTile.from_rects(tiles_a[i]),
         None if b is None else ColumnarTile.from_rects(tiles_b[i]))
        for i in range(grid.p)
        if tiles_a[i] and (b is None or tiles_b[i])
    ]


class TestWindowAtEmission:
    """A windowed partitioned plan's tile kernels test the window where
    they emit a pair, and on a shard its strip on the reference x
    clipped to the window: ``np_sweep.sweep_tiles`` against
    ``pbsm.sweep_tile``, and the engine against its reference executor
    and the window oracle."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_differential(self, data):
        from repro.core import pbsm
        from repro.core.kernels import np_sweep
        from repro.core.pbsm import TileGrid

        draw = data.draw
        x, w, y, h = draw(_window_cell(), label="window")
        window = Rect(x / LATTICE, min(LATTICE, x + w) / LATTICE,
                      y / LATTICE, min(LATTICE, y + h) / LATTICE, 0)
        self_join = draw(st.booleans(), label="self_join")
        a = _on_lattice(draw(st.lists(_cell(), max_size=14)), 0)
        b = _on_lattice(draw(st.lists(_cell(), max_size=14)), 1_000)
        # The one shape the test drops: pairs meeting outside the window.
        extra_a, extra_b = _corner_pairs(window, draw(st.lists(
            st.tuples(st.booleans(), st.booleans()), max_size=4,
        ), label="corners"), 5_000)
        a += extra_a
        (a if self_join else b).extend(extra_b)
        grid = TileGrid(UNIT, draw(st.sampled_from((1, 2, 4, 8))),
                        draw(st.integers(1, 5)))
        strip = draw(st.sampled_from((
            (), (0.0, 0.5), (0.25, 0.75), (0.5, float("inf")),
            (-float("inf"), x / LATTICE),
        )), label="strip")
        pruned = draw(st.booleans(), label="pruned")
        if pruned:
            a = [r for r in a if r.intersects(window)]
            b = [r for r in b if r.intersects(window)]
        tiles = _grid_tiles(a, None if self_join else b, grid)
        if not tiles:
            return
        spec = (UNIT.xlo, UNIT.xhi, UNIT.ylo, UNIT.yhi, grid.t, grid.p,
                *strip, *(() if draw(st.booleans(), label="unwindowed")
                          else window[:4]))
        refs = [pbsm.sweep_tile((part, spec, side_a, side_b, self_join,
                                 True)) for part, side_a, side_b in tiles]
        got = np_sweep.sweep_tiles(tiles, self_join, spec, True)
        counts, pairs, ops, dups, unowned, windowed = got
        assert [counts, ops, dups, unowned, windowed] == [
            [ref[i] for ref in refs] for i in (0, 2, 3, 4, 5)
        ]
        assert list(pairs) == [pair for ref in refs for pair in ref[1]]
        if pruned:
            assert not any(windowed), "a pruned tile dropped a pair"

    def test_corner_pairs_are_dropped(self):
        from repro.core import pbsm
        from repro.core.kernels import np_sweep

        window = Rect(0.25, 0.5, 0.25, 0.5, 0)
        a, b = _corner_pairs(window, [(False, False), (False, True),
                                      (True, False), (True, True)], 0)
        assert all(r.intersects(window) for r in a)
        assert not any(r.intersects(window) for r in b)
        spec = (0.0, 1.0, 0.0, 1.0, 1, 1, 0.0, 0.3, *window[:4])
        tile = (0, ColumnarTile.from_rects(a), ColumnarTile.from_rects(b))
        out = np_sweep.sweep_tiles([tile], False, spec, True)
        assert out == ([0], PairColumns.empty(), out[2], [0], [0], [4])
        assert pbsm.sweep_tile((0, spec, *tile[1:], False, True)) == (
            0, [], out[2][0], 0, 0, 4)

    @settings(max_examples=25, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
    ])
    @given(data=st.data())
    def test_engine_differential(self, data):
        draw = data.draw
        shards = draw(st.sampled_from((0, 1, 2, 4)), label="shards")
        self_join = draw(st.booleans(), label="self_join")
        reuse = draw(st.booleans(), label="reuse")
        a = _on_lattice(draw(st.lists(_cell(), min_size=1, max_size=16),
                             label="a"), 0)
        b = _on_lattice(draw(st.lists(_cell(), min_size=1, max_size=16),
                             label="b"), 10_000)
        x, w, y, h = draw(_window_cell(), label="window")
        xlo, xhi = x / LATTICE, min(LATTICE, x + w) / LATTICE
        if shards > 1:
            cuts = balanced_cuts(a, UNIT, shards, DEFAULT_GRID)
            cut = draw(st.sampled_from(cuts), label="cut")
            edge = draw(st.sampled_from(("xlo", "xhi", "both")))
            if edge in ("xlo", "both"):
                xlo, xhi = cut, max(cut, xhi)
            if edge in ("xhi", "both"):
                xlo, xhi = min(xlo, cut), cut
        window = Rect(xlo, xhi, y / LATTICE,
                      min(LATTICE, y + h) / LATTICE, 0)
        relations = ("a", "a") if self_join else ("a", "b")
        query = Query(relations=relations, window=window,
                      force="pbsm-grid")

        outcomes = []
        for reference in (False, True):
            with reference_executor(reference), _make_windowed(
                shards, memory_bytes=20_000_000 if reuse else None,
            ) as (engine, details):
                engine.register("a", a, universe=UNIT)
                engine.register("b", b, universe=UNIT)
                if reuse:
                    engine.execute(Query(relations=relations,
                                         force="pbsm-grid"))
                    for seen in details:
                        seen.clear()
                result = engine.execute(query).result
                answered = [d for seen in details for d in seen]
                hits = [d["artifact_hit"] for d in answered]
                assert hits == [reuse] * len(answered)
                outcomes.append((
                    list(result.pairs),
                    [{key: d.get(key) for key in (
                        "window_filtered", "cross_shard_duplicates",
                        "duplicates_eliminated", "sweep_ops_total")}
                     for d in answered],
                    [e.metrics.sim_wall_seconds for e in _engines(engine)],
                ))
        assert outcomes[0] == outcomes[1]
        assert len(result.pairs) == len(set(result.pairs))
        assert set(result.pairs) == brute_reference(
            a, None if self_join else b, window
        )
        for d in answered:
            assert d["window_filtered"] == 0  # pruned tiles: see above
            assert ("cross_shard_duplicates" in d) == (shards > 1)

    @pytest.mark.parametrize("shards", (0, 2))
    def test_partitioned_windows_never_reach_filter_window(
        self, shards, monkeypatch,
    ):
        from repro.core.kernels import np_distribute

        calls = []
        real = np_distribute.filter_window

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(np_distribute, "filter_window", spy)
        data = TestGatherParity._data()
        a, b = data["a"], data["b"]
        window = TestGatherParity.WINDOW
        with _make_windowed(shards, memory_bytes=20_000_000) as (
            engine, details,
        ):
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            for relations, ref in ((("a", "b"), brute_reference(a, b,
                                                                window)),
                                   (("a", "a"), brute_reference(
                                       a, None, window))):
                # Cold, then from the cached full distribution.
                for full_first in (False, True):
                    if full_first:
                        engine.execute(Query(relations=relations,
                                             force="pbsm-grid"))
                    got = engine.execute(Query(
                        relations=relations, window=window,
                        force="pbsm-grid",
                    )).result
                    assert set(got.pairs) == ref
            assert calls == []
            assert {d["artifact_hit"] for seen in details
                    for d in seen} == {False, True}
            # An index plan's window is still the post-filter's.
            got = engine.execute(Query(relations=("a", "b"), window=window,
                                       force="pq-index")).result
            assert set(got.pairs) == brute_reference(a, b, window)
            assert calls and all(w == window for w in calls)


class _make_windowed:
    """An engine for the window tests, and the ``detail`` of every
    answer its shard engines give (one engine when ``shards`` is 0):
    ``with _make_windowed(shards) as (engine, details)``.  ``details``
    holds one list an engine, in shard order (shards answer a scatter
    in any order)."""

    def __init__(self, shards: int, memory_bytes=None) -> None:
        kw = {} if memory_bytes is None else {"memory_bytes": memory_bytes}
        self.engine = (_make_sharded(shards, **kw) if shards
                       else _make_single(pool_kind="serial", **kw))
        self.details = []
        for shard in _engines(self.engine):
            seen = []
            self.details.append(seen)

            def execute(query, *args, _run=shard.execute, _seen=seen,
                        **kwargs):
                out = _run(query, *args, **kwargs)
                _seen.append(out.result.detail)
                return out
            shard.execute = execute

    def __enter__(self):
        return self.engine, self.details

    def __exit__(self, *exc) -> None:
        self.engine.close()


def _engines(engine):
    """The engines that execute: a sharded engine's shards, or itself."""
    return engine.engines if isinstance(engine, ShardedEngine) else [engine]


# -- randomized property tests (the test-archetype headline) -----------------


class TestShardCountInvariance:
    """Seeded property tests: results never depend on the shard count."""

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_join_invariance(self, kind, seed, assert_same_pairs):
        rng = random.Random(seed)
        gen = GENERATORS[kind]
        assert_same_pairs(gen(rng, 130), gen(rng, 100, 10_000),
                          pool_kinds=("serial",))

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    @pytest.mark.parametrize("seed", [5, 17])
    def test_window_invariance(self, kind, seed, assert_same_pairs):
        rng = random.Random(seed)
        gen = GENERATORS[kind]
        a = gen(rng, 130)
        b = gen(rng, 100, 10_000)
        # A random window, sometimes degenerate-thin.
        x = rng.random() * 0.7
        y = rng.random() * 0.7
        w = rng.random() * 0.4 + (0.0 if seed % 2 else 0.001)
        h = rng.random() * 0.4
        assert_same_pairs(a, b, window=Rect(x, x + w, y, y + h, 0),
                          pool_kinds=("serial",))

    @pytest.mark.parametrize("kind", ["skewed", "degenerate"])
    def test_self_join_invariance(self, kind, assert_same_pairs):
        rng = random.Random(23)
        assert_same_pairs(GENERATORS[kind](rng, 160),
                          pool_kinds=("serial",))

    def test_invariance_across_pool_kinds(self, assert_same_pairs):
        # One cross-product sweep with real process pools: shard
        # count x pool kind must not change a single pair.
        rng = random.Random(29)
        assert_same_pairs(_skewed(rng, 140), _skewed(rng, 110, 10_000),
                          pool_kinds=("serial", "process"))


class TestWindowedReuse:
    """Each shard serves a window from its own cached full
    distribution, pruned on its coordinator exactly as the row-by-row
    reference prune does."""

    HOLE = Rect(0.40, 0.46, 0.40, 0.46, 0)

    @pytest.mark.parametrize("self_join", (False, True),
                             ids=("pairwise", "self-join"))
    @pytest.mark.parametrize("kernel", ("python", "numpy"))
    def test_matches_the_reference_prune(self, kernel, self_join):
        # ``python``: the reference executor, whose prune and sweep are
        # the row-by-row bodies the numpy engine is held to.
        rng = random.Random(37)
        a, b = ([r for r in rects if not r.intersects(self.HOLE)]
                for rects in (_uniform(rng, 300), _uniform(rng, 200,
                                                           10_000)))
        with reference_executor(kernel == "python"), _make_sharded(
            2, memory_bytes=20_000_000,
        ) as sharded:
            self._check_windows(sharded, a, b, self_join)

    def _check_windows(self, sharded, a, b, self_join):
        sharded.register("a", a, universe=UNIT)
        sharded.register("b", b, universe=UNIT)
        relations = ("a", "a") if self_join else ("a", "b")
        sharded.execute(Query(relations=relations, force="pbsm-grid"))
        cut = sharded.strip_of(0)[1]
        windows = {
            "nothing": Rect(0.41, 0.45, 0.41, 0.45, 0),
            "everything": Rect(-1.0, 2.0, -1.0, 2.0, 0),
            "on-the-cut": Rect(cut, cut, 0.1, 0.9, 0),     # zero area
            "straddles-the-cut": Rect(cut - 0.1, cut + 0.1, 0.2, 0.7, 0),
            "tile-edges": Rect(8 / 32, 20 / 32, 4 / 32, 16 / 32, 0),
            "one-strip": Rect(cut + 0.05, cut + 0.3, 0.3, 0.5, 0),
        }
        engines = sharded.engines
        for name, window in windows.items():
            before = [e.env.cpu_ops for e in engines]
            hits = [e.artifacts.hits for e in engines]
            result = sharded.execute(Query(
                relations=relations, window=window, force="pbsm-grid",
            )).result
            want, ops = set(), 0
            for k in result.detail["shards_queried"]:
                assert engines[k].artifacts.hits == hits[k] + 1, name
                pairs, shard_ops, _ = windowed_hit_reference(engines[k],
                                                             window)
                want.update(pairs)
                ops += shard_ops
            assert len(result.pairs) == len(want), name
            assert set(result.pairs) == want, name
            assert sum(e.env.cpu_ops for e in engines) - sum(before) == ops
            assert want == brute_reference(
                a, None if self_join else b, window
            ), name
        assert result.detail["shards_pruned"], "one-strip pruned none"


# -- shared pool lifecycle ---------------------------------------------------


class TestSharedPoolLifecycle:
    def _registered(self, pool, seed, name="a", **kw):
        rng = random.Random(seed)
        rects = _uniform(rng, 200, seed * 1000)
        engine = _make_single(pool=pool, **kw)
        engine.register(name, rects, universe=UNIT)
        return engine, rects

    def test_a_borrowing_engines_close_leaves_the_pool_started(self):
        pool = WorkerPool(2, kind="process")
        e1, r1 = self._registered(pool, 1)
        e2, r2 = self._registered(pool, 2)
        q = Query(relations=("a", "a"))
        e1.execute(q)
        e2.execute(q)
        assert pool.started
        e1.close()
        e2.close()
        assert pool.started, "only the pool's creator stops it"
        # Both engines keep serving correct answers on it.
        window = Rect(0.1, 0.9, 0.1, 0.9, 0)
        for engine, rects in ((e1, r1), (e2, r2)):
            out = engine.execute(Query(relations=("a", "a"),
                                       window=window))
            assert set(out.result.pairs) == brute_reference(
                rects, window=window)
        assert pool.pools_created == 1
        pool.shutdown()
        assert not pool.started

    def test_client_counters_sum_to_pool_totals(self):
        pool = WorkerPool(2, kind="process")
        e1, _ = self._registered(pool, 3)
        e2, _ = self._registered(pool, 4)
        q = Query(relations=("a", "a"))
        # Cost-aware dispatch off: the point here is per-client counter
        # attribution, which needs e2's third (windowed) query to ship
        # rather than inline off the full plan's measured cost.
        with dispatch(INLINE_PLAN_OPS=0):
            e1.execute(q)
            e2.execute(q)
            e2.execute(Query(relations=("a", "a"),
                             window=Rect(0.0, 0.5, 0.0, 0.5, 0)))
        for counter in ("tasks_dispatched", "tasks_inline",
                        "tiles_dispatched", "tiles_inline"):
            total = getattr(pool, counter)
            clients = (getattr(e1.worker_pool, counter)
                       + getattr(e2.worker_pool, counter))
            assert clients == total, counter
        assert e2.worker_pool.tasks_dispatched > (
            e1.worker_pool.tasks_dispatched
        ), "per-client counters must attribute traffic, not mirror it"
        pool.shutdown()

    def test_broken_pool_demotion_is_shared_but_loses_no_query(self):
        pool = WorkerPool(2, kind="process")
        e1, r1 = self._registered(pool, 5)
        e2, r2 = self._registered(pool, 6)
        # Simulate a broken process pool observed by e1's executor.
        recovered = e1.worker_pool.recover(len, (1, 2, 3))
        assert recovered == 3, "the lost task is recomputed inline"
        assert pool.kind == "serial", "demotion is pool-wide"
        assert pool.fallbacks == 1
        # Both engines keep serving bit-correct results, inline.
        q = Query(relations=("a", "a"))
        assert set(e1.execute(q).result.pairs) == brute_reference(r1)
        assert set(e2.execute(q).result.pairs) == brute_reference(r2)
        pool.shutdown()

    def test_close_query_close_stops_recreated_executor(self):
        # The engine created its pool, so its close stops it; a drained
        # engine that serves again starts the pool again, and the next
        # close stops that one instead of leaking worker processes.
        # Cost-aware dispatch off: the repeat must ship to restart the
        # pool.
        engine = _make_single(pool_kind="process")
        engine.register("a", _uniform(random.Random(71), 200),
                        universe=UNIT)
        q = Query(relations=("a", "a"))
        engine.execute(q)
        assert engine.worker_pool.started
        engine.close()
        assert not engine.worker_pool.started
        with dispatch(INLINE_PLAN_OPS=0):
            engine.execute(q)  # starts the pool again
        assert engine.worker_pool.started
        assert engine.worker_pool.pools_created == 2
        engine.close()
        assert not engine.worker_pool.started

    def test_sharded_close_is_idempotent(self):
        sharded = _make_sharded(3, pool_kind="process")
        sharded.register("a", _uniform(random.Random(7), 150),
                         universe=UNIT)
        sharded.execute(Query(relations=("a", "a")))
        assert sharded.pool.started
        # A replica's close leaves the shared pool to its owner.
        sharded.engines[0].close()
        assert sharded.pool.started
        sharded.close()
        assert not sharded.pool.started
        sharded.close()  # second close must be a no-op
        assert not sharded.pool.started


# -- cross-engine isolation on one pool --------------------------------------


class TestSharedPoolIsolation:
    def _pair(self, pool_kind="process"):
        pool = WorkerPool(2, kind=pool_kind)
        rng = random.Random(31)
        r1 = _clustered(rng, 180)
        r2 = _skewed(rng, 180, 50_000)
        # Roomy budgets: tiles stay resident, so partition artifacts
        # are retained and the invalidation-isolation check has
        # something to (not) invalidate.
        e1 = _make_single(pool=pool, memory_bytes=512_000)
        e2 = _make_single(pool=pool, memory_bytes=512_000)
        e1.register("a", r1, universe=UNIT)
        e2.register("a", r2, universe=UNIT)
        return pool, e1, e2, r1, r2

    def test_interleaved_workloads_no_crosstalk(self):
        pool, e1, e2, r1, r2 = self._pair()
        ref1 = brute_reference(r1)
        ref2 = brute_reference(r2)
        q = Query(relations=("a", "a"))
        for _ in range(3):
            assert set(e1.execute(q).result.pairs) == ref1
            assert set(e2.execute(q).result.pairs) == ref2
        # Budgets are private slices: separate ledgers, both exercised.
        assert e1.budget is not e2.budget
        assert e1.budget.high_water_bytes > 0
        assert e2.budget.high_water_bytes > 0
        # Artifact caches are private: invalidating one engine's
        # relation never touches the sibling's warm artifacts.
        assert e1.artifacts is not e2.artifacts
        e2_entries = len(e2.artifacts)
        e1.register("a", r1, universe=UNIT)  # version bump on e1 only
        assert e1.artifacts.invalidations > 0
        assert e2.artifacts.invalidations == 0
        assert len(e2.artifacts) == e2_entries
        assert set(e2.execute(q).result.pairs) == ref2
        pool.shutdown()

    def test_concurrent_submission_is_correct(self):
        pool, e1, e2, r1, r2 = self._pair()
        ref1 = brute_reference(r1)
        ref2 = brute_reference(r2)
        q = Query(relations=("a", "a"))
        failures = []

        def worker(engine, ref):
            try:
                for _ in range(4):
                    if set(engine.execute(q).result.pairs) != ref:
                        failures.append("pair mismatch")
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(e1, ref1)),
                   threading.Thread(target=worker, args=(e2, ref2))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        # Shared totals survived concurrent submission intact.
        assert (e1.worker_pool.tasks_dispatched
                + e2.worker_pool.tasks_dispatched
                == pool.tasks_dispatched)
        assert (e1.worker_pool.tasks_inline
                + e2.worker_pool.tasks_inline == pool.tasks_inline)
        pool.shutdown()

    def test_shard_fallback_does_not_poison_sibling_results(self):
        sharded = _make_sharded(2, pool_kind="process")
        rng = random.Random(37)
        rects = _uniform(rng, 220)
        sharded.register("a", rects, universe=UNIT)
        # Shard 0's executor observes a broken pool mid-query; the
        # demotion is shared, but shard 1's results must stay exact.
        sharded.engines[0].worker_pool.recover(len, ())
        assert sharded.pool.kind == "serial"
        out = sharded.execute(Query(relations=("a", "a")))
        assert set(out.result.pairs) == brute_reference(rects)
        sharded.close()


# -- sharded serving behaviour -----------------------------------------------


class TestShardedServing:
    def test_top_level_cache_skips_scatter(self):
        sharded = _make_sharded(3, cache_capacity=8)
        rng = random.Random(41)
        sharded.register("a", _uniform(rng, 150), universe=UNIT)
        sharded.register("b", _uniform(rng, 100, 10_000), universe=UNIT)
        q = Query(relations=("a", "b"))
        first = sharded.execute(q)
        executed = sum(e.metrics.queries_executed
                       for e in sharded.engines)
        second = sharded.execute(q)
        assert not first.from_cache and second.from_cache
        assert second.result.pair_set() == first.result.pair_set()
        assert sum(e.metrics.queries_executed
                   for e in sharded.engines) == executed, (
            "a top-level hit must not touch any shard"
        )
        # A hit cannot poison later hits: a list is a private copy,
        # columns are shared with the cache but refuse writes.
        pairs = second.result.pairs
        if isinstance(pairs, list):
            pairs.clear()
        else:
            with pytest.raises(ValueError, match="read-only"):
                pairs.ids[:] = -1
        assert sharded.execute(q).result.pair_set() == (
            first.result.pair_set()
        )
        sharded.close()

    def test_count_only_repeat_served_from_cache(self):
        sharded = _make_sharded(2, cache_capacity=8)
        rng = random.Random(79)
        sharded.register("a", _uniform(rng, 150), universe=UNIT)
        q = Query(relations=("a", "a"), collect_pairs=False)
        first = sharded.execute(q)
        second = sharded.execute(q)
        assert not first.from_cache and second.from_cache
        assert second.result.n_pairs == first.result.n_pairs
        assert second.result.pairs is None
        sharded.close()

    def test_reregister_invalidates_only_that_relation(self):
        sharded = _make_sharded(2, cache_capacity=8)
        rng = random.Random(43)
        a1 = _uniform(rng, 150)
        b = _uniform(rng, 100, 10_000)
        sharded.register("a", a1, universe=UNIT)
        sharded.register("b", b, universe=UNIT)
        q = Query(relations=("a", "b"))
        sharded.execute(q)
        a2 = _uniform(random.Random(99), 150)
        sharded.register("a", a2, universe=UNIT)
        out = sharded.execute(q)
        assert not out.from_cache, "re-registration must orphan the hit"
        assert set(out.result.pairs) == brute_reference(a2, b)
        sharded.close()

    def test_admission_error_propagates_from_shard_slice(self):
        # The total would fit one engine, but each slice is below the
        # minimum grant — the shard's admission control must refuse.
        sharded = _make_sharded(4, memory_bytes=4096)
        rng = random.Random(47)
        sharded.register("a", _uniform(rng, 200), universe=UNIT)
        with pytest.raises(AdmissionError):
            sharded.execute(Query(relations=("a", "a")))
        sharded.close()

    def test_workload_on_sharded_engine(self):
        rng = random.Random(53)
        roads = _uniform(rng, 220)
        hydro = _uniform(rng, 160, 10_000)
        queries = make_workload(UNIT, 14, seed=5)

        answers = []
        for engine in (_make_single(cache_capacity=16),
                       _make_sharded(3, cache_capacity=16)):
            engine.register("roads", roads, universe=UNIT)
            engine.register("hydro", hydro, universe=UNIT)
            answers.append([set(engine.execute(q).result.pairs)
                            for q in queries])
            m = engine.metrics_snapshot()
            engine.close()

        assert answers[0] == answers[1], (
            "a serial replay must see identical answers sharded"
        )
        assert m["sim_wall_seconds"] > 0
        assert m["shards"] == 3
        assert m["shards_pruned_total"] > 0, "windows must prune shards"
        assert m["queries_served"] == 14
        assert m["cache_hits"] > 0, "repeats must hit the top cache"
        assert m["budget_total_bytes"] == sum(
            e.budget.total_bytes for e in engine.engines
        )

    def test_metrics_snapshot_aggregates_consistently(self):
        sharded = _make_sharded(4)
        rng = random.Random(59)
        sharded.register("a", _uniform(rng, 250), universe=UNIT)
        sharded.register("b", _uniform(rng, 180, 10_000), universe=UNIT)
        critical_paths = [
            sharded.execute(q).sim_wall_seconds
            for q in (Query(relations=("a", "b")),
                      Query(relations=("a", "a")),
                      Query(relations=("a", "b"),
                            window=Rect(0.0, 0.4, 0.0, 0.4, 0)))
        ]
        snap = sharded.metrics_snapshot()
        assert snap["queries_served"] == 3
        # Physical counters are shard sums.
        assert snap["pages_read"] == sum(
            e.metrics.pages_read for e in sharded.engines
        )
        # The deployment's sim clock is the scatter critical path
        # (LPT makespan per query), bounded by the per-shard sum —
        # shards overlap on the shared pool, they do not queue behind
        # each other.  The raw sum survives under its own key.
        shard_sum = sum(
            e.metrics.sim_wall_seconds for e in sharded.engines
        )
        assert snap["sim_wall_shard_sum_seconds"] == pytest.approx(
            shard_sum
        )
        assert 0.0 < snap["sim_wall_seconds"] <= shard_sum + 1e-12
        assert snap["sim_wall_seconds"] == pytest.approx(
            sum(critical_paths)
        )
        assert snap["scatter_lanes"] >= 2
        # Dispatch attribution closes: per-shard rows sum to the pool.
        per_shard = snap["per_shard"]
        assert len(per_shard) == 4
        for counter in ("tasks_dispatched", "tiles_dispatched",
                        "tasks_inline", "tiles_inline"):
            assert sum(row[counter] for row in per_shard) == (
                snap["worker_pool"][counter]
            ), counter
        assert len(snap["worker_pool"]["per_client"]) == 4
        sharded.close()

    def test_explain_shows_scatter_plan(self):
        sharded = _make_sharded(2)
        rng = random.Random(61)
        sharded.register("a", _uniform(rng, 120), universe=UNIT)
        sharded.register("b", _uniform(rng, 90, 10_000), universe=UNIT)
        text = sharded.explain(Query(relations=("a", "b")))
        assert "Sharded : 2 shards" in text
        assert text.count("Chosen") == 2
        sharded.close()

    def test_drop_and_unknown_relation(self):
        sharded = _make_sharded(2)
        rng = random.Random(67)
        sharded.register("a", _uniform(rng, 100), universe=UNIT)
        sharded.drop("a")
        with pytest.raises(KeyError, match="unknown relation"):
            sharded.execute(Query(relations=("a", "a")))
        with pytest.raises(KeyError, match="unknown relation"):
            sharded.drop("a")
