"""The serving engine: catalog, optimizer, executor, caches, metrics."""

from __future__ import annotations

import math

import pytest

from repro.core.brute import brute_force_pairs
from repro.core.columnar import ColumnarTile, DistributionImage, PairColumns
from repro.data.generator import uniform_rects
from repro.engine import (
    AdmissionError,
    Query,
    ResultCache,
    ShardedEngine,
    SpatialQueryEngine,
    WorkerPool,
)
from repro.geom.rect import Rect, intersection
from repro.sim.machines import MACHINE_3

from repro.engine.pool import DeadlineExceeded
from repro.engine.query import FORCEABLE

from repro.engine.cache import artifact_bytes
from repro.core.planner import STRATEGIES

from tests.conftest import (
    TEST_SCALE,
    brute_reference,
    dispatch,
    make_workload,
    reference_executor,
    windowed_hit_reference,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def make_engine(workers: int = 1, cache_capacity: int = 16,
                n_a: int = 300, n_b: int = 120,
                region: Rect = UNIT) -> SpatialQueryEngine:
    engine = SpatialQueryEngine(
        scale=TEST_SCALE, machine=MACHINE_3, workers=workers,
        cache_capacity=cache_capacity,
    )
    a = uniform_rects(n_a, region, 0.02, seed=1)
    b = uniform_rects(n_b, region, 0.03, seed=2, id_base=100_000)
    engine.register("a", a, universe=region)
    engine.register("b", b, universe=region)
    engine._test_rects = (a, b)  # stashed for equivalence checks
    return engine


class TestCatalog:
    def test_register_and_lazy_build(self):
        engine = make_engine()
        entry = engine.catalog.get("a")
        assert not entry.has_tree
        assert entry.tree.num_objects == 300
        assert entry.has_tree
        assert engine.catalog.indexes_built == 1
        # Second access reuses the built tree.
        assert entry.tree is entry.tree
        assert engine.catalog.indexes_built == 1

    def test_reregister_bumps_version(self):
        engine = make_engine()
        v1 = engine.catalog.get("a").version
        engine.register("a", engine._test_rects[0], universe=UNIT)
        assert engine.catalog.get("a").version > v1

    def test_unknown_relation(self):
        engine = make_engine()
        with pytest.raises(KeyError, match="unknown relation"):
            engine.catalog.get("nope")

    def test_empty_relation_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="no rectangles"):
            engine.register("empty", [])

    def test_index_persistence_roundtrip(self, tmp_path):
        engine = make_engine()
        path = str(tmp_path / "a.rpqt")
        engine.catalog.save_index("a", path)
        other = make_engine()
        tree = other.catalog.load_index("a", path)
        assert tree.num_objects == 300
        assert other.catalog.get("a").has_tree


#: What ``register`` refuses, by name: one bad rectangle (rid 7, with
#: a second bad one after it: the message names the first) or a bad
#: universe over good rectangles.
_INF, _NAN = math.inf, math.nan
BAD_RELATIONS = {
    "inf": Rect(0.2, _INF, 0.1, 0.3, 7),
    "nan": Rect(0.2, 0.3, _NAN, 0.3, 7),
    "inverted-x": Rect(0.5, 0.4, 0.1, 0.3, 7),
    "inverted-y": Rect(0.2, 0.3, 0.6, 0.2, 7),
    "universe": Rect(0.0, _INF, 0.0, 1.0, 0),
}


def _bad_registration(bad: str, good):
    """``(rects, universe, message)`` of the ``bad`` case over ``good``."""
    if bad == "universe":
        return good, BAD_RELATIONS[bad], r"relation 'a': universe"
    rects = list(good)
    rects[7] = BAD_RELATIONS[bad]
    rects[9] = Rect(0.5, 0.4, 0.6, 0.2, rects[9].rid)
    return rects, UNIT, r"relation 'a': rectangle rid=7 "


class TestRegisterRefusesWhatTheKernelsDecline:
    """A non-finite or inverted rectangle, or a non-finite universe, is
    refused at ``register`` with the relation and the first bad rid
    named, and leaves the engine exactly as it was."""

    @staticmethod
    def _engine(sharded: bool):
        if sharded:
            return ShardedEngine(shards=2, scale=TEST_SCALE,
                                 machine=MACHINE_3, workers=2,
                                 pool_kind="serial", cache_capacity=8)
        return SpatialQueryEngine(scale=TEST_SCALE, machine=MACHINE_3,
                                  workers=2, pool_kind="serial",
                                  cache_capacity=8)

    @staticmethod
    def _state(engine, sharded: bool):
        engines = engine.all_engines if sharded else [engine]
        state = [
            (e.catalog.names(), e.catalog.versions_of(e.catalog.names()),
             [list(e.catalog.get(n).rects) for n in e.catalog.names()],
             len(e.cache), len(e.artifacts._entries))
            for e in engines
        ]
        if sharded:
            state.append((engine._cuts, dict(engine._versions),
                          engine.boundary_replicas, len(engine.cache)))
        return state

    @pytest.mark.parametrize("sharded", (False, True),
                             ids=("single", "sharded"))
    @pytest.mark.parametrize("bad", sorted(BAD_RELATIONS))
    def test_a_bad_relation_changes_nothing(self, bad, sharded):
        a = uniform_rects(300, UNIT, 0.02, seed=1)
        b = uniform_rects(120, UNIT, 0.03, seed=2, id_base=100_000)
        rects, universe, message = _bad_registration(bad, a)
        query = Query(relations=("a", "b"), force="pbsm-grid")
        with self._engine(sharded) as fresh:
            empty = self._state(fresh, sharded)
        with self._engine(sharded) as engine:
            # Refused before anything else: no relation, no cuts.
            with pytest.raises(ValueError, match=message):
                engine.register("a", rects, universe=universe)
            assert self._state(engine, sharded) == empty
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)
            served = engine.execute(query).result.pair_set()
            assert served == brute_reference(a, b)
            before = self._state(engine, sharded)
            # Refused again over a registered relation: versions,
            # rectangles, caches and cuts all stay.
            with pytest.raises(ValueError, match=message):
                engine.register("a", rects, universe=universe)
            assert self._state(engine, sharded) == before
            hit = engine.execute(query)
            assert hit.from_cache and hit.result.pair_set() == served
            # And a valid registration still goes through.
            moved = uniform_rects(300, UNIT, 0.02, seed=5)
            engine.register("a", moved, universe=UNIT)
            out = engine.execute(query)
            assert not out.from_cache
            assert out.result.pair_set() == brute_reference(moved, b)

    #: Finite rectangles that are subnormally thin, by name: ``(rects,
    #: universe)``.  50 zero-width ones at x = 0 and one 5e-324 wide
    #: span a universe whose reciprocal width overflows; 51 that are
    #: 1e-310 wide in the unit square give the striped sweep a strip
    #: count ratio that overflows.
    THIN = {
        "thin-universe": (
            [Rect(0.0, 0.0, i / 50, i / 50 + 0.01, i) for i in range(50)]
            + [Rect(0.0, 5e-324, 0.3, 0.4, 50)], None),
        "subnormal-width": (
            [Rect(0.0, 1e-310, i / 51, i / 51 + 0.01, i)
             for i in range(51)], UNIT),
    }

    @pytest.mark.parametrize("sharded", (False, True),
                             ids=("single", "sharded"))
    @pytest.mark.parametrize("case", sorted(THIN))
    def test_a_subnormal_span_is_answered(self, case, sharded):
        rects, universe = self.THIN[case]
        a, b = rects[::2], rects[1::2]
        with self._engine(sharded) as engine:
            engine.register("a", a, universe=universe)
            engine.register("b", b, universe=universe)
            for force in ("pq-index", "pbsm-grid", None):
                got = engine.execute(Query(relations=("a", "b"),
                                           force=force)).result
                assert got.pair_set() == brute_reference(a, b), force
            got = engine.execute(Query(relations=("a", "a"))).result
            assert got.pair_set() == brute_reference(a)


class TestQueryValidation:
    def test_needs_two_relations(self):
        with pytest.raises(ValueError, match="at least two"):
            Query(relations=("a",))

    def test_pairwise_self_join_allowed(self):
        q = Query(relations=("a", "a"))
        assert q.is_self_join and not q.is_multiway

    def test_multiway_self_join_rejected(self):
        with pytest.raises(ValueError, match="self-join"):
            Query(relations=("a", "b", "a"))

    def test_windowed_count_only_rejected(self):
        with pytest.raises(ValueError, match="post-filter"):
            Query(relations=("a", "b"), window=UNIT, collect_pairs=False)

    def test_multiway_refine_rejected(self):
        with pytest.raises(ValueError, match="pairwise"):
            Query(relations=("a", "b", "c"), refine=True)

    def test_multiway_force_rejected(self):
        with pytest.raises(ValueError, match="pairwise"):
            Query(relations=("a", "b", "c"), force="pq-index")

    def test_unknown_force_rejected_at_construction(self):
        # Refused before any engine (or shard replica) sees it, with
        # the names that would have been accepted.
        with pytest.raises(ValueError, match="nested-loop") as err:
            Query(relations=("a", "b"), force="nested-loop")
        assert all(name in str(err.value) for name in FORCEABLE)
        # The strategy table's other rows run through
        # unified_spatial_join, not the engine.
        assert FORCEABLE == ("pq-index", "pbsm-grid")
        for name in STRATEGIES:
            if name not in FORCEABLE:
                with pytest.raises(ValueError, match="pq-index, pbsm-grid"):
                    Query(relations=("a", "b"), force=name)

    @pytest.mark.parametrize("coord", range(4))
    def test_nan_window_rejected_at_construction(self, coord):
        # The kernels model no NaN: refused before any engine (or shard
        # replica) sees it.  An infinite window is a valid one.
        bounds = [0.1, 0.6, 0.1, 0.6]
        bounds[coord] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            Query(relations=("a", "b"), window=Rect(*bounds, 0))
        assert Query(relations=("a", "b"),
                     window=Rect(-math.inf, math.inf, 0.1, 0.6, 0))

    # Every row of the strategy table, forceable or not: a self-join
    # names the one plan it takes.
    @pytest.mark.parametrize("force", list(STRATEGIES))
    def test_self_join_force_rejected_at_construction(self, force):
        with pytest.raises(ValueError, match="accepted: pbsm-grid"):
            Query(relations=("a", "a"), force=force)
        assert Query(relations=("a", "a"), force="pbsm-grid").is_self_join


class TestExecution:
    def test_full_join_matches_brute_force(self):
        engine = make_engine()
        a, b = engine._test_rects
        out = engine.execute(Query(relations=("a", "b")))
        assert not out.from_cache
        assert out.result.pair_set() == brute_force_pairs(a, b)

    def test_windowed_join_matches_filtered_brute_force(self):
        engine = make_engine()
        a, b = engine._test_rects
        window = Rect(0.2, 0.5, 0.1, 0.6, 0)
        out = engine.execute(Query(relations=("a", "b"), window=window))
        # Brute-force reference with the same window semantics: the
        # pair's common intersection must meet the window.
        by_id_a = {r.rid: r for r in a}
        by_id_b = {r.rid: r for r in b}
        expected = set()
        for ra_id, rb_id in brute_force_pairs(a, b):
            inter = intersection(by_id_a[ra_id], by_id_b[rb_id])
            if inter is not None and inter.intersects(window):
                expected.add((ra_id, rb_id))
        assert out.result.pair_set() == expected
        assert "window_filtered" in out.result.detail

    def test_partitioned_matches_direct(self):
        serial = make_engine(workers=1)
        parallel = make_engine(workers=4)
        q = Query(relations=("a", "b"))
        res_s = serial.execute(q).result
        res_p = parallel.execute(q).result
        assert res_p.detail["strategy"] == "pbsm-grid"
        assert res_p.pair_set() == res_s.pair_set()
        assert res_p.detail["sweep_ops_critical"] <= (
            res_p.detail["sweep_ops_total"]
        )
        assert res_p.detail["parallel_cpu_seconds_saved"] >= 0.0

    def test_forced_strategy_respected(self):
        engine = make_engine()
        chosen = engine.optimizer.compile(Query(relations=("a", "b")))
        other, = set(FORCEABLE) - {chosen.strategy}
        out = engine.execute(Query(relations=("a", "b"), force=other))
        assert out.result.detail["strategy"] == other

    def test_empty_window_shortcut(self):
        engine = make_engine()
        far = Rect(5.0, 6.0, 5.0, 6.0, 0)
        out = engine.execute(Query(relations=("a", "b"), window=far))
        assert out.result.n_pairs == 0
        assert out.plan.mode == "empty"
        # The empty plan touches no data at all.
        assert engine.metrics.pages_read == 0

    def test_multiway_query(self):
        engine = make_engine()
        c = uniform_rects(80, UNIT, 0.05, seed=3, id_base=200_000)
        engine.register("c", c, universe=UNIT)
        out = engine.execute(Query(relations=("a", "b", "c")))
        assert out.plan.mode == "multiway"
        assert out.result.n_pairs >= 0
        assert all(len(t) == 3 for t in out.result.pairs)

    def test_forced_engine_strategy_priced(self):
        engine = make_engine()
        engine.prepare()
        window = Rect(0.1, 0.6, 0.1, 0.6, 0)
        out = engine.execute(
            Query(relations=("a", "b"), window=window, force="pq-index")
        )
        assert out.result.detail["strategy"] == "pq-index"
        assert math.isfinite(out.plan.estimate.io_seconds)
        out = engine.execute(Query(relations=("a", "b"),
                                   force="pbsm-grid"))
        assert out.result.detail["strategy"] == "pbsm-grid"
        assert math.isfinite(
            out.result.detail["estimated_io_seconds"]
        )

    @pytest.mark.parametrize(
        "window", [None, Rect(0.1, 0.6, 0.1, 0.6, 0)],
        ids=["whole", "window"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("force", FORCEABLE)
    def test_forced_plan_reports_the_estimate_it_was_priced_by(
            self, force, workers, window):
        # The plan is priced once; the result reports that price.
        engine = make_engine(workers=workers)
        out = engine.execute(
            Query(relations=("a", "b"), window=window, force=force)
        )
        estimate = out.plan.estimate.io_seconds
        assert math.isfinite(estimate)
        assert out.result.detail["estimated_io_seconds"] == estimate
        assert out.result.detail["strategy"] == force
        engine.close()

    def test_multiway_accounting_ignores_built_indexes(self):
        # The cascade is priced on the streams and runs on them, so a
        # prepared engine (trees built) is charged what a fresh one is.
        # Simulated seconds are not compared: the index builds leave
        # the disk head elsewhere, which moves the first seek.
        def run(prepare):
            engine = make_engine(cache_capacity=0)
            engine.register("c", uniform_rects(80, UNIT, 0.05, seed=3,
                                               id_base=200_000),
                            universe=UNIT)
            if prepare:
                engine.prepare()
            # Build what the plan reads on both engines up front, so
            # the deltas below are the join's alone.
            for name in ("a", "b", "c"):
                entry = engine.catalog.get(name)
                entry.stream, entry.histogram  # noqa: B018
            env = engine.env
            before = (env.page_reads, env.page_writes, env.cpu_ops)
            out = engine.execute(Query(relations=("a", "b", "c")))
            engine.close()
            deltas = (env.page_reads - before[0],
                      env.page_writes - before[1],
                      env.cpu_ops - before[2])
            return deltas, sorted(map(tuple, out.result.pairs))

        assert run(prepare=False) == run(prepare=True)

    def test_lazy_builds_charged_to_first_query(self):
        # No prepare(): the first query triggers stream/index/histogram
        # construction, and those pages must appear in its metrics.
        engine = make_engine()
        engine.execute(Query(relations=("a", "b")))
        assert engine.metrics.pages_read == engine.env.page_reads
        assert engine.metrics.pages_written == engine.env.page_writes

    def test_refinement_filters_pairs(self):
        engine = SpatialQueryEngine(scale=TEST_SCALE, machine=MACHINE_3)
        # Two crossing segments and two parallel (non-crossing) ones
        # whose MBRs all intersect pairwise.
        geoms_a = {1: [(0.0, 0.0), (1.0, 1.0)]}
        geoms_b = {
            10: [(0.0, 1.0), (1.0, 0.0)],   # crosses a#1
            11: [(0.0, 0.1), (0.8, 0.9)],   # parallel-ish, no crossing
        }
        rect_a = [Rect(0.0, 1.0, 0.0, 1.0, 1)]
        rect_b = [Rect(0.0, 1.0, 0.0, 1.0, 10),
                  Rect(0.0, 0.9, 0.0, 1.0, 11)]
        engine.register("a", rect_a, universe=UNIT, geometries=geoms_a)
        engine.register("b", rect_b, universe=UNIT, geometries=geoms_b)
        filtered = engine.execute(Query(relations=("a", "b")))
        refined = engine.execute(
            Query(relations=("a", "b"), refine=True)
        )
        assert filtered.result.n_pairs == 2
        assert refined.result.pair_set() == {(1, 10)}
        assert refined.result.detail["refined_out"] == 1


class TestResultCache:
    def test_repeat_query_is_cache_hit(self):
        engine = make_engine()
        q = Query(relations=("a", "b"))
        first = engine.execute(q)
        pages_after_first = engine.metrics.pages_read
        second = engine.execute(q)
        assert not first.from_cache and second.from_cache
        assert second.result.n_pairs == first.result.n_pairs
        assert second.result.detail.get("cache_hit") is True
        # Served from memory: no further I/O.
        assert engine.metrics.pages_read == pages_after_first
        assert engine.metrics.cache_hits == 1

    def test_reregistration_invalidates(self):
        engine = make_engine()
        q = Query(relations=("a", "b"))
        engine.execute(q)
        engine.register("a", engine._test_rects[0], universe=UNIT)
        out = engine.execute(q)
        assert not out.from_cache

    def test_equivalent_windows_share_entries(self):
        engine = make_engine()
        w1 = Rect(0.1, 0.4, 0.1, 0.4, 0)
        w2 = Rect(0.1, 0.4, 0.1, 0.4, 99)  # same region, different id
        engine.execute(Query(relations=("a", "b"), window=w1))
        out = engine.execute(Query(relations=("a", "b"), window=w2))
        assert out.from_cache

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("k1", 1)
        cache.put("k2", 2)
        assert cache.get("k1") == 1  # refresh k1
        cache.put("k3", 3)           # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") == 1 and cache.get("k3") == 3
        assert cache.evictions == 1

    def test_peek_counts_and_refreshes_nothing(self):
        cache = ResultCache(capacity=2)
        cache.put("k1", 1)
        cache.put("k2", 2)
        assert cache.peek("k1") == 1 and cache.peek("k9") is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("k3", 3)  # k1 is still the least recently used
        assert cache.peek("k1") is None and cache.peek("k2") == 2

    def test_zero_capacity_never_caches(self):
        engine = make_engine(cache_capacity=0)
        q = Query(relations=("a", "b"))
        engine.execute(q)
        assert not engine.execute(q).from_cache

    def test_caller_mutation_cannot_corrupt_cache(self):
        engine = make_engine()
        engine.register("c", uniform_rects(80, UNIT, 0.05, seed=3,
                                           id_base=200_000), universe=UNIT)
        # The one plan that hands back a tuple list: columns (a
        # pbsm-grid or pq-index answer) cannot be mutated.
        q = Query(relations=("a", "b", "c"))
        first = engine.execute(q)
        n = first.result.n_pairs
        assert isinstance(first.result.pairs, list) and n > 0
        first.result.pairs.clear()          # caller abuses its copy
        first.result.detail["strategy"] = "vandalized"
        second = engine.execute(q)
        assert second.from_cache
        assert len(second.result.pairs) == n
        assert second.result.detail["strategy"] != "vandalized"
        # ...and mutating the hit's copy leaves the cache intact too.
        second.result.pairs.clear()
        third = engine.execute(q)
        assert len(third.result.pairs) == n


class TestMemoryGovernance:
    def test_spill_path_matches_in_memory_results(self):
        # A budget far below the tile footprint (420 rects x 20 B plus
        # replication) forces partitioned tiles to spill; the answer
        # must be identical to the roomy run and the spill counters
        # must say it happened.
        roomy = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            memory_bytes=1_000_000,
        )
        tight_budget = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            memory_bytes=3000,
        )
        a = uniform_rects(300, UNIT, 0.02, seed=1)
        b = uniform_rects(120, UNIT, 0.03, seed=2, id_base=100_000)
        for engine in (roomy, tight_budget):
            engine.register("a", a, universe=UNIT)
            engine.register("b", b, universe=UNIT)

        q = Query(relations=("a", "b"), force="pbsm-grid")
        ref = roomy.execute(q).result
        out = tight_budget.execute(q).result
        assert out.pair_set() == ref.pair_set()
        assert out.detail["spilled_rects"] > 0
        assert out.detail["spill_partitions"] > 0
        assert tight_budget.metrics.spilled_rects == (
            out.detail["spilled_rects"]
        )
        assert tight_budget.metrics.spill_queries == 1
        # The roomy engine never spilled.
        assert ref.detail["spilled_rects"] == 0

    def test_admission_control_rejects_impossible_queries(self):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, memory_bytes=2000,
        )
        a = uniform_rects(100, UNIT, 0.02, seed=1)
        b = uniform_rects(50, UNIT, 0.03, seed=2, id_base=100_000)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        with pytest.raises(AdmissionError, match="minimum grant"):
            engine.execute(Query(relations=("a", "b")))
        assert engine.metrics.queries_rejected == 1
        assert engine.metrics.queries_executed == 0

    def test_budget_high_water_in_snapshot(self):
        engine = make_engine(workers=2)
        engine.execute(Query(relations=("a", "b"), force="pbsm-grid"))
        snap = engine.metrics_snapshot()
        assert snap["budget_total_bytes"] == engine.budget.total_bytes
        assert 0 < snap["budget_high_water_bytes"]
        assert "tiles" in snap["budget_high_water_by_category"]
        assert snap["result_cache_bytes"] == engine.cache.bytes_used
        assert snap["result_cache_bytes"] > 0  # the result was cached

    def test_explain_shows_memory_verdict(self):
        engine = make_engine(workers=2)
        engine.prepare()
        text = engine.explain(
            Query(relations=("a", "b"), force="pbsm-grid")
        )
        assert "Memory" in text and "budget" in text

    def test_cache_bytes_bound_enforced_end_to_end(self):
        # A byte-capped cache admits the small windowed result but
        # refuses to hold the big overlay: 2 pairs against 85, which
        # is 544 against 1 872 bytes as columns, 768 against 11 392 as
        # a tuple list.
        engine = SpatialQueryEngine(scale=TEST_SCALE, machine=MACHINE_3)
        engine.cache.max_bytes = 1024
        a = uniform_rects(300, UNIT, 0.02, seed=1)
        b = uniform_rects(120, UNIT, 0.03, seed=2, id_base=100_000)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        small = Query(relations=("a", "b"),
                      window=Rect(0.1, 0.25, 0.1, 0.25, 0))
        big = Query(relations=("a", "b"))
        engine.execute(big)
        engine.execute(small)
        assert engine.cache.oversized_rejections >= 1
        assert engine.cache.bytes_used <= 1024
        assert engine.execute(small).from_cache
        assert not engine.execute(big).from_cache

    @pytest.mark.parametrize("kernel", ("python", "numpy"))
    def test_pair_count_bound_ignores_the_representation(
            self, kernel, monkeypatch):
        # MAX_CACHED_PAIRS counts pairs: a list (the python reference's
        # pq-index join) and columns (the numpy one) stop being cached
        # at the same result size.
        from repro.engine import engine as engine_mod

        with reference_executor(kernel == "python"):
            self._check_pair_count_bound(kernel, engine_mod, monkeypatch)

    def _check_pair_count_bound(self, kernel, engine_mod, monkeypatch):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            pool_kind="serial",
        )
        engine.register("a", uniform_rects(300, UNIT, 0.02, seed=1),
                        universe=UNIT)
        engine.register("b", uniform_rects(120, UNIT, 0.03, seed=2,
                                           id_base=100_000),
                        universe=UNIT)
        q = Query(relations=("a", "b"), force="pq-index")
        monkeypatch.setattr(engine_mod, "MAX_CACHED_PAIRS", 0)
        n = engine.execute(q).result.n_pairs
        assert n > 1 and len(engine.cache) == 0
        monkeypatch.setattr(engine_mod, "MAX_CACHED_PAIRS", n - 1)
        assert not engine.execute(q).from_cache
        assert len(engine.cache) == 0
        monkeypatch.setattr(engine_mod, "MAX_CACHED_PAIRS", n)
        assert not engine.execute(q).from_cache
        hit = engine.execute(q)
        assert hit.from_cache and len(hit.result.pairs) == n
        assert type(hit.result.pairs) is (
            list if kernel == "python" else PairColumns
        )
        engine.close()


class TestSelfJoin:
    def test_self_join_matches_brute_force(self):
        engine = make_engine(workers=2)
        a, _ = engine._test_rects
        out = engine.execute(Query(relations=("a", "a")))
        expected = {
            (ra.rid, rb.rid)
            for i, ra in enumerate(a)
            for rb in a[i + 1:]
            if ra.intersects(rb)
        }
        assert out.result.pair_set() == expected
        assert out.result.detail["strategy"] == "pbsm-grid"
        assert out.result.detail["self_join"] is True
        # Each unordered pair appears exactly once, ordered rid_a < rid_b.
        assert all(x < y for x, y in out.result.pairs)

    def test_self_join_single_worker(self):
        serial = make_engine(workers=1)
        parallel = make_engine(workers=4)
        q = Query(relations=("a", "a"))
        assert (serial.execute(q).result.pair_set()
                == parallel.execute(q).result.pair_set())

    def test_windowed_self_join(self):
        engine = make_engine(workers=2)
        a, _ = engine._test_rects
        window = Rect(0.2, 0.6, 0.2, 0.6, 0)
        out = engine.execute(Query(relations=("a", "a"), window=window))
        expected = set()
        for i, ra in enumerate(a):
            for rb in a[i + 1:]:
                inter = intersection(ra, rb)
                if inter is not None and inter.intersects(window):
                    expected.add((min(ra.rid, rb.rid),
                                  max(ra.rid, rb.rid)))
        assert out.result.pair_set() == expected

    def test_self_join_is_cacheable(self):
        engine = make_engine(workers=2)
        q = Query(relations=("a", "a"))
        first = engine.execute(q)
        second = engine.execute(q)
        assert not first.from_cache and second.from_cache
        assert second.result.n_pairs == first.result.n_pairs

    def test_self_join_rejects_foreign_force(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="pbsm-grid"):
            engine.execute(Query(relations=("a", "a"), force="pq-index"))


class TestMultiwayPricing:
    def test_cascaded_estimate_uses_histograms(self):
        engine = make_engine()
        c = uniform_rects(80, UNIT, 0.05, seed=3, id_base=200_000)
        engine.register("c", c, universe=UNIT)
        plan = engine.optimizer.compile(Query(relations=("a", "b", "c")))
        assert plan.strategy == "pq-multiway"
        assert "cascaded pairwise" in plan.estimate.detail
        assert "histogram intermediates" in plan.estimate.detail
        assert plan.estimate.io_seconds > 0

    def test_larger_cascade_costs_more(self):
        engine = make_engine()
        c = uniform_rects(80, UNIT, 0.05, seed=3, id_base=200_000)
        d = uniform_rects(60, UNIT, 0.05, seed=4, id_base=300_000)
        engine.register("c", c, universe=UNIT)
        engine.register("d", d, universe=UNIT)
        three = engine.optimizer.compile(
            Query(relations=("a", "b", "c"))
        ).estimate.io_seconds
        four = engine.optimizer.compile(
            Query(relations=("a", "b", "c", "d"))
        ).estimate.io_seconds
        assert four > three

    def test_mixed_universes_still_priced(self):
        # Relations registered on different universes force fresh
        # histograms on the union MBR.
        engine = make_engine()
        shifted = Rect(0.5, 1.5, 0.5, 1.5, 0)
        c = uniform_rects(80, shifted, 0.05, seed=3, id_base=200_000)
        engine.register("c", c, universe=shifted)
        plan = engine.optimizer.compile(Query(relations=("a", "b", "c")))
        assert plan.estimate.io_seconds > 0


class TestMetricsAndWorkload:
    def test_snapshot_accounts_queries(self):
        engine = make_engine()
        q = Query(relations=("a", "b"))
        engine.execute(q)
        engine.execute(q)
        snap = engine.metrics_snapshot()
        assert snap["queries_served"] == 2
        assert snap["queries_executed"] == 1
        assert snap["cache_hits"] == 1
        assert snap["cache_hit_rate"] == 0.5
        assert snap["pages_read"] > 0
        assert snap["sim_wall_seconds"] > 0
        assert snap["per_strategy"]  # at least one strategy recorded

    def test_explain_names_candidates_and_choice(self):
        engine = make_engine()
        text = engine.explain(Query(relations=("a", "b")))
        assert "Candidates:" in text
        assert "Chosen" in text
        # The two serving candidates, and only those.
        assert "pq-index" in text and "pbsm-grid" in text
        assert "sssj" not in text and "pq-mixed" not in text

    def test_workload_runs_and_reports(self):
        queries = make_workload(UNIT, 12, seed=3)
        snap = self._replay(queries, workers=2, cache_capacity=32)
        assert snap["queries_served"] == 12
        assert snap["sim_wall_seconds"] > 0
        # The serving layer's reason to exist, on the simulated clock:
        # the same workload takes longer on one worker with no result
        # cache than with either of them, and answers the same.  Both
        # worker counts plan pbsm-grid, so the second worker pays only
        # where tasks ship: on 3 000 x 1 200 rectangles they do, on the
        # 300 x 120 above nothing reaches MIN_SHIP_RECTS and two
        # workers' eight partitions only add replication.
        cold_1, cold_k, warm_1 = snaps = [
            self._replay(queries, workers, capacity, n_a=3000, n_b=1200)
            for workers, capacity in ((1, 0), (2, 0), (1, 32))
        ]
        assert cold_k["sim_wall_seconds"] < cold_1["sim_wall_seconds"]
        assert warm_1["sim_wall_seconds"] < cold_1["sim_wall_seconds"]
        assert warm_1["cache_hits"] > 0
        assert len({s["pairs_returned"] for s in snaps}) == 1

    @staticmethod
    def _replay(queries, workers, cache_capacity, **data):
        """A fresh engine's snapshot after serving ``queries`` serially."""
        engine = make_engine(workers=workers, cache_capacity=cache_capacity,
                             **data)
        # make_workload targets relations named roads/hydro.
        engine.register("roads", engine._test_rects[0], universe=UNIT)
        engine.register("hydro", engine._test_rects[1], universe=UNIT)
        with engine:
            for q in queries:
                engine.execute(q)
            return engine.metrics_snapshot()


class TestParallelPool:
    """Persistent worker pool: equality, shipping, fallback, accounting."""

    def test_process_pool_matches_serial_random_workloads(
            self, ship_every_tile):
        rng_seeds = [(31, 32), (41, 42)]
        for sa, sb in rng_seeds:
            a = uniform_rects(350, UNIT, 0.02, seed=sa)
            b = uniform_rects(150, UNIT, 0.035, seed=sb, id_base=100_000)
            serial = SpatialQueryEngine(
                scale=TEST_SCALE, machine=MACHINE_3, workers=3,
                cache_capacity=0, pool_kind="serial",
            )
            proc = SpatialQueryEngine(
                scale=TEST_SCALE, machine=MACHINE_3, workers=3,
                cache_capacity=0, pool_kind="process",
            )
            for e in (serial, proc):
                e.register("a", a, universe=UNIT)
                e.register("b", b, universe=UNIT)
            q = Query(relations=("a", "b"), force="pbsm-grid")
            rs = serial.execute(q).result
            rp = proc.execute(q).result
            assert rp.detail["pool_kind"] == "process"
            assert rp.detail["tasks_shipped"] > 0
            assert rp.pair_set() == rs.pair_set()
            # Op/byte accounting must not depend on where sweeps ran.
            assert (rp.detail["sweep_ops_total"]
                    == rs.detail["sweep_ops_total"])
            assert proc.env.cpu_ops == serial.env.cpu_ops
            assert proc.env.bytes_read == serial.env.bytes_read
            proc.close()

    def test_process_pool_self_join_matches_serial(self, ship_every_tile):
        a = uniform_rects(300, UNIT, 0.025, seed=51)
        serial = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            cache_capacity=0, pool_kind="serial",
        )
        proc = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            cache_capacity=0, pool_kind="process",
        )
        for e in (serial, proc):
            e.register("a", a, universe=UNIT)
        q = Query(relations=("a", "a"))
        rs = serial.execute(q).result
        rp = proc.execute(q).result
        assert rp.pair_set() == rs.pair_set()
        assert all(x < y for x, y in rp.pairs)
        assert rp.detail["tasks_shipped"] > 0
        proc.close()

    def test_a_thread_pool_is_refused(self):
        # The sweeps hold the GIL, so a thread pool lost to running
        # inline: a pool is forked processes or the coordinator.
        with pytest.raises(ValueError, match="pool kind"):
            WorkerPool(2, kind="thread")
        with pytest.raises(ValueError, match="pool kind"):
            SpatialQueryEngine(scale=TEST_SCALE, workers=2,
                               pool_kind="thread")
        with pytest.raises(ValueError, match="pool kind"):
            ShardedEngine(shards=2, scale=TEST_SCALE, workers=2,
                          pool_kind="thread")

    def test_small_tasks_stay_inline(self):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=3,
            cache_capacity=0, pool_kind="process",
        )
        a, b = make_engine()._test_rects
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        out = engine.execute(Query(relations=("a", "b"),
                                   force="pbsm-grid")).result
        assert out.detail["tasks_shipped"] == 0
        assert not engine.worker_pool.started  # never even created
        engine.close()

    def test_pool_is_persistent_across_queries(self, ship_every_tile):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            cache_capacity=0, pool_kind="process",
        )
        a, b = make_engine()._test_rects
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        q = Query(relations=("a", "b"), force="pbsm-grid")
        engine.execute(q)
        engine.execute(Query(relations=("a", "a")))
        assert engine.worker_pool.pools_created == 1
        assert engine.worker_pool.tasks_dispatched > 0
        snap = engine.metrics_snapshot()["worker_pool"]
        assert snap["kind"] == "process"
        engine.close()

    def test_close_is_idempotent_and_context_manager(self):
        with SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
        ) as engine:
            engine.register("a", make_engine()._test_rects[0],
                            universe=UNIT)
        engine.close()  # second close is a no-op


class TestPartitionArtifacts:
    """The distribute phase runs once per distinct plan, not per query."""

    def _engine(self, **kw):
        kw.setdefault("memory_bytes", 10_000_000)
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            cache_capacity=0, **kw,
        )
        a = uniform_rects(300, UNIT, 0.02, seed=1)
        b = uniform_rects(120, UNIT, 0.03, seed=2, id_base=100_000)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        engine._test_rects = (a, b)
        return engine

    def test_repeat_hits_artifact_and_skips_distribute(self):
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        first = engine.execute(q).result
        assert first.detail["artifact_hit"] is False
        bytes_before = engine.env.bytes_read
        second = engine.execute(q).result
        assert second.detail["artifact_hit"] is True
        assert second.pair_set() == first.pair_set()
        # No scan, no distribute: the warm run reads nothing at all.
        assert engine.env.bytes_read == bytes_before
        assert engine.artifacts.hits == 1
        # The warm run charges the same sweep ops as the cold run.
        assert (second.detail["sweep_ops_total"]
                == first.detail["sweep_ops_total"])

    def test_reregistration_invalidates_artifacts(self):
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        engine.execute(q)
        assert len(engine.artifacts) == 1
        engine.register("a", engine._test_rects[0], universe=UNIT)
        assert len(engine.artifacts) == 0
        assert engine.artifacts.invalidations == 1
        out = engine.execute(q).result
        assert out.detail["artifact_hit"] is False

    def test_spilled_distributions_are_not_cached(self):
        engine = self._engine(memory_bytes=3000)
        q = Query(relations=("a", "b"), force="pbsm-grid")
        out = engine.execute(q).result
        assert out.detail["spilled_rects"] > 0
        assert len(engine.artifacts) == 0
        repeat = engine.execute(q).result
        assert repeat.detail["artifact_hit"] is False
        assert repeat.pair_set() == out.pair_set()

    def test_artifact_cache_disabled_by_zero_bytes(self):
        engine = self._engine(artifact_cache_bytes=0)
        q = Query(relations=("a", "b"), force="pbsm-grid")
        engine.execute(q)
        assert len(engine.artifacts) == 0
        assert engine.execute(q).result.detail["artifact_hit"] is False

    def test_budget_eviction_of_artifacts(self):
        from repro.engine.cache import ArtifactCache
        from repro.engine.resources import ResourceBudget

        budget = ResourceBudget(10_000)
        cache = ArtifactCache(budget=budget)
        tiles = [
            ColumnarTile.from_rects(
                uniform_rects(40, UNIT, 0.02, seed=s)
            )
            for s in range(6)
        ]
        for s, tile in enumerate(tiles):
            cache.put(((("r", s),), (0, 1, 0, 1), 32, 8, None),
                      [(0, tile, None)])
        # 40 rects cost ~2.9 KB each once the decode memo is counted:
        # a 10 KB budget holds only a few, so LRU eviction must run
        # and the ledger must stay within the budget.
        assert cache.evictions > 0
        assert cache.bytes_used <= budget.total_bytes
        assert budget.used_by("artifacts") == cache.bytes_used
        # make_room reclaims artifact bytes for execution grants.
        cache.make_room(budget.total_bytes)
        assert len(cache) == 0
        assert budget.used_by("artifacts") == 0

    def test_snapshot_surfaces_artifact_and_pool_stats(self):
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        engine.execute(q)
        engine.execute(q)
        snap = engine.metrics_snapshot()
        assert snap["artifact_cache_entries"] == 1
        assert snap["artifact_cache_hits"] == 1
        assert snap["artifact_cache_bytes"] > 0
        assert snap["worker_pool"]["workers"] == 2


#: A square the windowed-reuse data leaves empty.
_HOLE = Rect(0.40, 0.46, 0.40, 0.46, 0)

#: Windows that reuse the full distribution (a 32 x 32 tile grid over
#: the unit square), each a shape the prune must get exactly right.
REUSE_WINDOWS = {
    "nothing": Rect(0.41, 0.45, 0.41, 0.45, 0),    # inside the hole
    "everything": Rect(-1.0, 2.0, -1.0, 2.0, 0),
    "point": Rect(0.3, 0.3, 0.6, 0.6, 0),          # zero area
    "segment": Rect(0.1, 0.9, 0.55, 0.55, 0),      # zero area
    "tile-edges": Rect(8 / 32, 20 / 32, 4 / 32, 16 / 32, 0),
    "interior": Rect(0.31, 0.74, 0.22, 0.58, 0),
}

#: ``python``: the engine under the reference executor.
_KERNELS = ("python", "numpy")


def _reuse_data():
    """Two uniform relations with nothing in ``_HOLE``."""
    a = uniform_rects(400, UNIT, 0.02, seed=61)
    b = uniform_rects(200, UNIT, 0.03, seed=62, id_base=100_000)
    return ([r for r in a if not r.intersects(_HOLE)],
            [r for r in b if not r.intersects(_HOLE)])


class TestWindowedReuse:
    """A window served from the cached full distribution is pruned on
    the coordinator, once, and sweeps exactly what the row-by-row
    reference prune leaves."""

    def _engine(self, **kw):
        kw.setdefault("pool_kind", "serial")
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            cache_capacity=0, memory_bytes=10_000_000, **kw,
        )
        a, b = _reuse_data()
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        engine._test_rects = (a, b)
        return engine

    @pytest.mark.parametrize("self_join", (False, True),
                             ids=("pairwise", "self-join"))
    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_matches_the_reference_prune(self, kernel, self_join):
        # ``python``: the reference executor, whose prune and sweep are
        # the row-by-row bodies the numpy engine is held to.
        with reference_executor(kernel == "python"):
            self._check_windows(self._engine(), self_join)

    def _check_windows(self, engine, self_join):
        a, b = engine._test_rects
        relations = ("a", "a") if self_join else ("a", "b")
        engine.execute(Query(relations=relations, force="pbsm-grid"))
        one_sided = 0
        for name, window in REUSE_WINDOWS.items():
            before = engine.env.cpu_ops
            result = engine.execute(Query(
                relations=relations, window=window, force="pbsm-grid",
            )).result
            pairs, ops, sided = windowed_hit_reference(engine, window)
            assert result.detail["artifact_hit"] is True, name
            # Same pairs in the same order, same ops, charged once.
            assert list(result.pairs) == pairs, name
            assert result.detail["sweep_ops_total"] == ops, name
            assert engine.env.cpu_ops - before == ops, name
            assert set(pairs) == brute_reference(
                a, None if self_join else b, window
            ), name
            one_sided += sided
        assert self_join or one_sided, "vacuous: no tile left one-sided"
        engine.close()

    def test_empty_distribution_is_reused_by_its_windows(self):
        # No partition holds both sides, so the full distribution has
        # no task; it is retained all the same, and its windows hit it.
        # An empty windowed distribution holds no bytes and is keyed by
        # its window: retained, no byte bound would ever evict it.
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=2,
            pool_kind="serial", cache_capacity=0, memory_bytes=10_000_000,
        )
        engine.register("a", [Rect(0.0, 0.0, 0.0, 0.0, 0)], universe=UNIT)
        engine.register("b", [Rect(2 / 64, 2 / 64, 0.0, 0.0, 1)],
                        universe=UNIT)
        windowed = Query(relations=("a", "b"),
                         window=Rect(0.0, 0.0, 0.0, 0.0, 0),
                         force="pbsm-grid")
        cold = engine.execute(windowed).result
        assert len(engine.artifacts) == 0
        full = engine.execute(Query(relations=("a", "b"),
                                    force="pbsm-grid")).result
        out = engine.execute(windowed).result
        engine.close()
        assert cold.n_pairs == full.n_pairs == out.n_pairs == 0
        assert not cold.detail["artifact_hit"]
        assert not full.detail["artifact_hit"]
        assert out.detail["artifact_hit"] is True

    def test_small_window_ships_nothing(self):
        # Full tiles of 60-odd rectangles ship on their own; what a
        # small window leaves of all of them is one group, run here.
        engine = self._engine(pool_kind="process")
        window = Rect(0.3, 0.38, 0.6, 0.68, 0)
        with dispatch(MIN_SHIP_RECTS=32):
            full = engine.execute(Query(relations=("a", "b"),
                                        force="pbsm-grid")).result
            assert full.detail["tasks_shipped"] > 0
            engine.executor._plan_ops.clear()
            out = engine.execute(Query(
                relations=("a", "b"), window=window, force="pbsm-grid",
            )).result
        assert out.detail["artifact_hit"] is True
        assert out.detail["inlined_by_cost"] is False
        assert out.detail["tasks_shipped"] == 0
        assert out.n_pairs > 0
        assert out.pair_set() == brute_reference(*engine._test_rects,
                                                 window)
        engine.close()

    def test_unwindowed_repeat_reships_by_reference(self):
        engine = self._engine(pool_kind="process")
        shm = engine.worker_pool.shm
        q = Query(relations=("a", "b"), force="pbsm-grid")
        with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0,
                      INLINE_PLAN_OPS=0):
            engine.execute(q)
            first = engine.execute(q).result  # packs the cached tiles
            reused = shm.tile_refs_reused
            segments = {key: ref.segment
                        for key, (ref, _) in shm._tile_refs.items()}
            again = engine.execute(q).result
        assert again.detail["artifact_hit"] is True
        assert again.detail["shm_tasks"] > 0
        (cached,) = engine.artifacts._entries.values()
        assert shm.tile_refs_reused - reused == 2 * len(cached)
        assert {key: ref.segment for key, (ref, _)
                in shm._tile_refs.items()} == segments
        assert again.pairs == first.pairs
        engine.close()

    @pytest.mark.parametrize("self_join", (False, True),
                             ids=("pairwise", "self-join"))
    def test_image_is_charged_as_its_tiles(self, self_join):
        engine = self._engine()
        relations = ("a", "a") if self_join else ("a", "b")
        engine.execute(Query(relations=relations, force="pbsm-grid"))
        (cached,) = engine.artifacts._entries.values()
        assert isinstance(cached, DistributionImage)

        def copy(tile):
            if tile is None:
                return None
            own = ColumnarTile()
            own.extend_columns(tile.xlo, tile.xhi, tile.ylo, tile.yhi,
                               tile.rid)
            return own

        # The same tiles as a list of their own arrays, as they were
        # cached before the image: same bytes, charged the same.
        tasks = [(part, copy(a), copy(b)) for part, a, b in cached]
        assert artifact_bytes(tasks) == artifact_bytes(cached)
        assert engine.artifacts.bytes_used == artifact_bytes(tasks)
        engine.close()


def _prepared_ab_engine(**kw) -> SpatialQueryEngine:
    """Two workers unless told otherwise, no result cache, relations
    ``a`` and ``b`` built."""
    kw.setdefault("pool_kind", "serial")
    kw.setdefault("workers", 2)
    engine = SpatialQueryEngine(
        scale=TEST_SCALE, machine=MACHINE_3, cache_capacity=0, **kw,
    )
    a = uniform_rects(300, UNIT, 0.02, seed=1)
    b = uniform_rects(120, UNIT, 0.03, seed=2, id_base=100_000)
    engine.register("a", a, universe=UNIT)
    engine.register("b", b, universe=UNIT)
    engine.prepare()
    engine._test_rects = (a, b)
    return engine


_WINDOW = Rect(0.2, 0.5, 0.1, 0.6, 0)
_FULL, _WIN = "full", "win"

#: name, queries served first, the probed query, and the cached
#: candidate its tiles must be swept from (None: a cold distribute).
_PRICING_ROWS = (
    ("cold", [], _FULL, None),
    ("memory-exact", [_FULL], _FULL, "exact"),
    # Exact before full ...
    ("memory-exact-beside-full", [_WIN, _FULL], _WIN, "exact"),
    # ... and the full distribution reused, pruned, by a window.
    ("memory-full-reused-by-a-window", [_FULL], _WIN, "full"),
)


class TestPricingMatchesExecution:
    """What the optimizer priced is what the executor ran: both ask
    the artifact cache, which owns identity and probe order."""

    def _engine(self):
        return _prepared_ab_engine(memory_bytes=10_000_000)

    @pytest.mark.parametrize("self_join", (False, True),
                             ids=("pairwise", "self-join"))
    @pytest.mark.parametrize(
        "before, shape, candidate",
        [row[1:] for row in _PRICING_ROWS],
        ids=[row[0] for row in _PRICING_ROWS],
    )
    def test_partition_tiles(self, before, shape, candidate, self_join):
        relations = ("a", "a") if self_join else ("a", "b")

        def make_query(shape):
            return Query(relations=relations, force="pbsm-grid",
                         window=_WINDOW if shape == _WIN else None)

        query = make_query(shape)
        # The sweep a cold distribute of this very query runs: reusing
        # the exact candidate repeats it op for op, pruning the full
        # one to the window sweeps other tiles.
        cold = self._engine().execute(query).result
        engine = self._engine()
        for earlier in before:
            engine.execute(make_query(earlier))
        cached = candidate is not None

        plan = engine.optimizer.compile(query)
        priced = dict(plan.candidates)["pbsm-grid"].detail
        if cached:
            assert "distributed tiles cached" in priced, priced
        else:
            assert "1 partition pass" in priced, priced
            assert "cached" not in priced, priced
        if not self_join:
            assert any("partition pass is free" in n
                       for n in plan.notes) == cached

        hits, misses = engine.artifacts.hits, engine.artifacts.misses
        result = engine.execute(query).result
        assert (engine.artifacts.hits + engine.artifacts.misses
                - hits - misses) == 1
        assert engine.artifacts.hits - hits == int(cached)
        assert result.detail["artifact_hit"] is cached
        assert result.pair_set() == cold.pair_set() == brute_reference(
            engine._test_rects[0],
            None if self_join else engine._test_rects[1],
            query.window,
        )
        assert (result.detail["sweep_ops_total"]
                == cold.detail["sweep_ops_total"]) == (
            candidate in (None, "exact"))
        engine.close()


class TestServingCandidates:
    """An unforced pairwise plan chooses between pq-index and pbsm-grid
    only, at every worker count: the two plans a query may force."""

    @pytest.mark.parametrize("windowed", (False, True),
                             ids=("overlay", "window"))
    @pytest.mark.parametrize("workers", (1, 2))
    def test_unforced_candidates_are_the_feasible_two(self, workers,
                                                      windowed):
        engine = _prepared_ab_engine(workers=workers)
        query = Query(relations=("a", "b"),
                      window=_WINDOW if windowed else None)
        plan = engine.optimizer.compile(query)
        assert [name for name, _ in plan.candidates] == list(FORCEABLE)
        assert plan.strategy in FORCEABLE
        result = engine.execute(query).result
        assert result.pair_set() == brute_reference(
            *engine._test_rects, query.window)
        engine.close()


class TestStagesReleaseWhatTheyHold:
    """Whichever stage of a partitioned plan raises, the query's tile
    grant, spill streams and shm pins all go back."""

    def _assert_nothing_held(self, engine, payloads_before):
        assert engine.budget.in_use_bytes == 0
        # No ``tiles.*`` spill block left on the simulated disk.
        assert len(engine.disk._payloads) == payloads_before
        assert not [
            name for name, seg in engine.worker_pool.shm._segments.items()
            if seg.inflight
        ]

    def test_distribute_raising(self, monkeypatch):
        from repro.core.kernels import np_distribute

        # A budget the first side already overflows: by the time the
        # second side's distribute raises, tiles are granted and
        # spilled.
        engine = _prepared_ab_engine(memory_bytes=3000)
        before = len(engine.disk._payloads)
        real, calls = np_distribute.distribute, []

        def second_side_fails(image, grid, window):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("distribute failed")
            return real(image, grid, window)

        monkeypatch.setattr(np_distribute, "distribute",
                            second_side_fails)
        q = Query(relations=("a", "b"), force="pbsm-grid")
        with pytest.raises(RuntimeError, match="distribute failed"):
            engine.execute(q)
        assert len(calls) == 2
        self._assert_nothing_held(engine, before)
        monkeypatch.undo()
        assert engine.execute(q).result.detail["spilled_rects"] > 0
        engine.close()

    def test_gather_cancelled(self):
        engine = _prepared_ab_engine(pool_kind="process",
                                     artifact_cache_bytes=0)
        before = len(engine.disk._payloads)
        checkpoints = []

        def cancel():
            # The engine's entry check passes, the gather's first
            # checkpoint gives up: every task has shipped.
            checkpoints.append(1)
            if len(checkpoints) == 2:
                raise DeadlineExceeded("caller gave up")

        try:
            with dispatch(MIN_SHIP_RECTS=0, SHM_MIN_BYTES=0):
                with pytest.raises(DeadlineExceeded):
                    engine.execute(Query(relations=("a", "a")),
                                   cancel=cancel)
            shm = engine.worker_pool.shm
            assert shm.snapshot()["segments_created"] > 0
            self._assert_nothing_held(engine, before)
        finally:
            engine.close()


class TestTileBatching:
    """Small tiles coalesce into multi-tile pool tasks."""

    def _skewed(self):
        import random

        rng = random.Random(9)
        rects = []
        rid = 0
        # One dense corner cluster (a huge tile) ...
        for _ in range(1200):
            x = rng.uniform(0.0, 0.05)
            y = rng.uniform(0.0, 0.05)
            rects.append(Rect(x, x + 0.01, y, y + 0.01, rid))
            rid += 1
        # ... plus a thin uniform spread (many tiny tiles).
        for _ in range(1200):
            x = rng.uniform(0.0, 0.99)
            y = rng.uniform(0.0, 0.99)
            rects.append(Rect(x, x + 0.004, y, y + 0.004, rid))
            rid += 1
        other = [
            Rect(r.xlo, r.xhi, r.ylo, r.yhi, 1_000_000 + r.rid)
            for r in rects[::2]
        ]
        return rects, other

    @pytest.fixture(autouse=True)
    def _small_batches(self):
        # A 1 024-rectangle batch target, so the 3 600-rectangle
        # dataset fills several batches.
        with dispatch(TILE_BATCH_BYTES=20480):
            yield

    def _engine(self, a, b, pool_kind, workers=3):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=workers,
            cache_capacity=0, memory_bytes=10_000_000,
            pool_kind=pool_kind,
        )
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        return engine

    def test_batched_matches_serial_across_pool_kinds(self):
        a, b = self._skewed()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        serial = self._engine(a, b, "serial")
        ref = serial.execute(q).result
        engine = self._engine(a, b, "process")
        out = engine.execute(q).result
        # Identical pair sets and bit-identical op accounting, whether
        # tiles shipped solo, batched or inline.
        assert out.pair_set() == ref.pair_set()
        assert (out.detail["sweep_ops_total"]
                == ref.detail["sweep_ops_total"])
        assert engine.env.cpu_ops == serial.env.cpu_ops
        assert out.detail["tile_batches"] > 0
        assert out.detail["batched_tiles"] > 1
        engine.close()
        serial.close()

    def test_batch_is_one_pool_task(self):
        a, b = self._skewed()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        engine = self._engine(a, b, "process")
        out = engine.execute(q).result
        pool = engine.worker_pool.snapshot()
        # Tiles outnumber dispatched tasks: batches amortize round-trips.
        assert pool["tiles_dispatched"] > pool["tasks_dispatched"]
        assert (out.detail["active_partitions"]
                >= out.detail["tasks_shipped"])
        engine.close()

    def test_batching_parallelizes_skewed_grids(self):
        # The point of batching: small tiles reach the worker pool
        # instead of sweeping serially on the coordinator, so the
        # simulated parallel savings strictly improve.
        a, b = self._skewed()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        coordinator = self._engine(a, b, "serial")
        batched = self._engine(a, b, "process")
        saved_coordinator = coordinator.execute(q).result.detail[
            "parallel_cpu_seconds_saved"]
        saved_batched = batched.execute(q).result.detail[
            "parallel_cpu_seconds_saved"]
        assert saved_batched > saved_coordinator
        coordinator.close()
        batched.close()


@pytest.mark.usefixtures("ship_every_tile")
class TestCostAwareDispatch:
    """Repeat plans measured cheaper than a round-trip sweep inline."""

    def _engine(self):
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=3,
            cache_capacity=0, pool_kind="process",
        )
        a = uniform_rects(400, UNIT, 0.02, seed=31)
        b = uniform_rects(200, UNIT, 0.03, seed=32, id_base=100_000)
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        return engine

    def test_repeat_of_cheap_plan_inlines(self):
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        first = engine.execute(q).result
        assert first.detail["tasks_shipped"] > 0
        assert first.detail["inlined_by_cost"] is False
        second = engine.execute(q).result
        assert second.detail["inlined_by_cost"] is True
        assert second.detail["tasks_shipped"] == 0
        # Routing is a wall-clock policy only: answers and simulated
        # accounting are identical wherever the sweeps ran.
        assert second.pair_set() == first.pair_set()
        assert (second.detail["sweep_ops_total"]
                == first.detail["sweep_ops_total"])
        engine.close()

    def test_plan_above_threshold_keeps_shipping(self):
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        with dispatch(INLINE_PLAN_OPS=1):
            engine.execute(q)
            second = engine.execute(q).result
        assert second.detail["inlined_by_cost"] is False
        assert second.detail["tasks_shipped"] > 0
        engine.close()

    def test_plan_memo_is_bounded(self):
        # Memo keys contain the window, so never-repeating windowed
        # traffic writes one entry per query: the memo must stay under
        # its cap without forgetting what routing still needs.
        engine = self._engine()
        q = Query(relations=("a", "b"), force="pbsm-grid")
        memo = engine.executor._plan_ops
        with dispatch(PLAN_MEMO_ENTRIES=8):
            first = engine.execute(q).result
            assert first.detail["inlined_by_cost"] is False
            for i in range(30):
                x = 0.02 * i
                out = engine.execute(Query(
                    relations=("a", "b"), force="pbsm-grid",
                    window=Rect(x, x + 0.3, 0.1, 0.6, 0),
                )).result
                assert len(memo) <= 8
                # The full distribution's bound is refreshed by every
                # window's write, so it is never the entry evicted.
                assert out.detail["inlined_by_cost"] is True
            assert len(memo) == 8, "old windows were evicted"
            second = engine.execute(q).result
        assert second.detail["inlined_by_cost"] is True
        assert second.pair_set() == first.pair_set()
        engine.close()

    def test_new_window_inherits_full_distribution_bound(self):
        # A windowed plan with no measurement of its own inherits the
        # worst sweep observed over the same full distribution, so its
        # *first* execution already routes inline on a cheap dataset.
        engine = self._engine()
        engine.execute(Query(relations=("a", "b"), force="pbsm-grid"))
        win = Rect(0.1, 0.6, 0.1, 0.6, 0)
        out = engine.execute(Query(relations=("a", "b"), window=win,
                                   force="pbsm-grid")).result
        assert out.detail["inlined_by_cost"] is True
        assert out.detail["tasks_shipped"] == 0
        serial = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=1,
            cache_capacity=0, pool_kind="serial",
        )
        serial.register("a", uniform_rects(400, UNIT, 0.02, seed=31),
                        universe=UNIT)
        serial.register("b", uniform_rects(200, UNIT, 0.03, seed=32,
                                           id_base=100_000),
                        universe=UNIT)
        ref = serial.execute(Query(relations=("a", "b"), window=win,
                                   force="pbsm-grid")).result
        assert out.pair_set() == ref.pair_set()
        serial.close()
        engine.close()


class TestLatencyMetrics:
    def test_latency_recorded_for_executions_and_hits(self):
        engine = make_engine(cache_capacity=16)
        q = Query(relations=("a", "b"))
        engine.execute(q)
        engine.execute(q)  # cache hit
        snap = engine.metrics_snapshot()
        assert snap["latency_count"] == 2
        assert snap["latency_total_seconds"] > 0
        assert (snap["latency_max_seconds"]
                >= snap["latency_p95_seconds"]
                >= snap["latency_p50_seconds"] >= 0.0)

    def test_reservoir_stays_bounded(self):
        from repro.engine.metrics import LATENCY_RESERVOIR, EngineMetrics

        m = EngineMetrics()
        for i in range(3 * LATENCY_RESERVOIR):
            m.record_latency(float(i))
        assert m.latency.count == 3 * LATENCY_RESERVOIR
        assert len(m.latency._reservoir) == LATENCY_RESERVOIR
        assert m.latency.max_seconds == float(3 * LATENCY_RESERVOIR - 1)
        assert m.latency_percentile(0.5) > 0.0

    def test_workload_report_includes_latency_and_pool(self):
        engine = make_engine(workers=2, cache_capacity=16)
        engine.register("roads", engine._test_rects[0], universe=UNIT)
        engine.register("hydro", engine._test_rects[1], universe=UNIT)
        for q in make_workload(UNIT, 8, seed=5):
            engine.execute(q)
        snap = engine.metrics_snapshot()
        engine.close()
        assert snap["latency_count"] == 8
        assert snap["latency_p95_seconds"] >= snap["latency_p50_seconds"]
        assert snap["worker_pool"]["workers"] == 2
        assert "artifact_cache_hits" in snap
