"""Unified planner: relation catalog, strategy choice, execution."""

import math

import pytest

from repro.core.brute import brute_force_pairs
from repro.core.histogram import SpatialHistogram
from repro.core.cost_model import JoinCostEstimate
from repro.core.planner import (
    STRATEGIES,
    JoinStrategy,
    Relation,
    candidate_estimates,
    choose_method,
    unified_spatial_join,
)
from repro.data.generator import uniform_rects
from repro.engine import Query, SpatialQueryEngine
from repro.geom.rect import Rect
from repro.rtree.bulk_load import bulk_load
from repro.sim.machines import MACHINE_3
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.stream import Stream

from tests.conftest import TEST_SCALE, brute_reference, make_env

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

#: What the one-shot planner offers, and of that what reads an index.
PLANNER = [s.name for s in STRATEGIES.values() if s.planner]
INDEXED = [s.name for s in STRATEGIES.values()
           if s.planner and any(s.indexed)]


def build_world(n_a=400, n_b=150, region_a=UNIT, region_b=UNIT,
                index_a=True, index_b=True, seed=1):
    env = make_env()
    disk = Disk(env)
    store = PageStore(disk, TEST_SCALE.index_page_bytes)
    a = uniform_rects(n_a, region_a, 0.02, seed=seed)
    b = uniform_rects(n_b, region_b, 0.03, seed=seed + 1, id_base=100_000)
    rel_a = Relation(
        name="a",
        stream=Stream.from_rects(disk, a),
        tree=bulk_load(store, a) if index_a else None,
        universe=region_a,
        histogram=SpatialHistogram.build(a, region_a, grid=16),
    )
    rel_b = Relation(
        name="b",
        stream=Stream.from_rects(disk, b),
        tree=bulk_load(store, b) if index_b else None,
        universe=region_b,
        histogram=SpatialHistogram.build(b, region_b, grid=16),
    )
    env.reset_counters()
    return env, disk, a, b, rel_a, rel_b


class TestRelation:
    def test_requires_some_representation(self):
        with pytest.raises(ValueError):
            Relation(name="empty")

    def test_universe_defaults_to_tree_mbr(self):
        env, disk, a, b, rel_a, _ = build_world()
        rel = Relation(name="x", tree=rel_a.tree)
        assert rel.universe == rel_a.tree.root_mbr()

    def test_fraction_in_full_window(self):
        _, _, _, _, rel_a, _ = build_world(seed=2)
        assert rel_a.fraction_in(None) == 1.0

    def test_fraction_in_partial_window_uses_histogram(self):
        _, _, _, _, rel_a, _ = build_world(seed=3)
        frac = rel_a.fraction_in(Rect(0.0, 0.3, 0.0, 1.0, 0))
        assert 0.1 < frac < 0.6

    def test_fraction_without_histogram_uses_area(self):
        env, disk, a, _, rel_a, _ = build_world(seed=4)
        rel = Relation(name="x", tree=rel_a.tree, universe=UNIT)
        frac = rel.fraction_in(Rect(0.0, 0.5, 0.0, 1.0, 0))
        assert frac == pytest.approx(0.5, abs=0.1)

    def test_fraction_histogram_beats_area_fallback(self):
        # All data in the left half; a right-half window: the histogram
        # sees (almost) nothing, the MBR-area fallback would guess 50%.
        _, _, _, _, rel_a, _ = build_world(
            region_a=Rect(0.0, 0.5, 0.0, 1.0, 0), seed=20,
        )
        rel_a.universe = UNIT
        window = Rect(0.6, 1.0, 0.0, 1.0, 0)
        with_hist = rel_a.fraction_in(window)
        rel_a.histogram = None
        without = rel_a.fraction_in(window)
        assert with_hist < 0.05
        assert without == pytest.approx(0.4, abs=0.01)

    def test_fraction_without_universe_is_one(self):
        env, disk, a, _, rel_a, _ = build_world(seed=21)
        rel = Relation(name="x", stream=rel_a.stream)
        assert rel.universe is None
        assert rel.fraction_in(Rect(0.0, 0.1, 0.0, 0.1, 0)) == 1.0

    def test_fraction_disjoint_window_is_zero(self):
        env, disk, a, _, rel_a, _ = build_world(seed=22)
        rel = Relation(name="x", tree=rel_a.tree, universe=UNIT)
        assert rel.fraction_in(Rect(3.0, 4.0, 3.0, 4.0, 0)) == 0.0


class TestChooseMethod:
    def test_dense_overlap_prefers_sorting(self):
        # Both relations cover the same region: the join touches every
        # leaf, so the index path loses (fraction 1 > f*).
        _, _, _, _, rel_a, rel_b = build_world(seed=5)
        strategy, est = choose_method(rel_a, rel_b, MACHINE_3, TEST_SCALE)
        assert strategy == "sssj"

    def test_localized_join_prefers_index(self):
        # Relation B occupies a sliver of A's region: the pruned index
        # traversal reads a small fraction of A's leaves.
        wide = Rect(0.0, 16.0, 0.0, 1.0, 0)
        sliver = Rect(7.1, 7.3, 0.0, 1.0, 0)
        _, _, _, _, rel_a, rel_b = build_world(
            n_a=3000, n_b=40, region_a=wide, region_b=sliver, seed=6,
        )
        strategy, est = choose_method(rel_a, rel_b, MACHINE_3, TEST_SCALE)
        assert strategy in INDEXED

    def test_no_indexes_forces_sssj(self):
        _, _, _, _, rel_a, rel_b = build_world(index_a=False,
                                               index_b=False, seed=7)
        strategy, _ = choose_method(rel_a, rel_b, MACHINE_3, TEST_SCALE)
        assert strategy == "sssj"

    def test_estimate_returned(self):
        _, _, _, _, rel_a, rel_b = build_world(seed=8)
        _, est = choose_method(rel_a, rel_b, MACHINE_3, TEST_SCALE)
        assert est.io_seconds > 0 and math.isfinite(est.io_seconds)

    def test_candidate_estimates_lists_all_feasible(self):
        _, _, _, _, rel_a, rel_b = build_world(seed=23)
        names = [n for n, _ in candidate_estimates(
            rel_a, rel_b, MACHINE_3, TEST_SCALE
        )]
        assert names == PLANNER

    @pytest.mark.parametrize("workers", (1, 2))
    def test_st_is_never_an_unforced_candidate_and_stays_forceable(
        self, workers,
    ):
        # Not offered by the one-shot planner, nor by the engine's
        # optimizer with or without a window, whose queries cannot
        # force it; unified_spatial_join still runs a forced st, priced
        # by its row.
        assert "st" not in PLANNER
        env, disk, a, b, rel_a, rel_b = build_world(seed=23)
        engine = SpatialQueryEngine(
            scale=TEST_SCALE, machine=MACHINE_3, workers=workers,
            pool_kind="serial", cache_capacity=0,
        )
        engine.register("a", a, universe=UNIT)
        engine.register("b", b, universe=UNIT)
        for window in (None, Rect(0.2, 0.6, 0.1, 0.5, 0)):
            plan = engine.optimizer.compile(
                Query(relations=("a", "b"), window=window))
            assert "st" not in dict(plan.candidates)
            with pytest.raises(ValueError, match="unknown strategy"):
                Query(relations=("a", "b"), window=window, force="st")
        engine.close()
        forced = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                      collect_pairs=True, force="st")
        assert forced.detail["strategy"] == "st"
        assert math.isfinite(forced.detail["estimated_io_seconds"])
        assert forced.pair_set() == brute_reference(a, b)

    def test_tie_break_prefers_earlier_candidate(self, monkeypatch):
        # Equal estimates everywhere: min() is stable, so the first
        # candidate — the indexed path — must win the tie.
        from repro.core.cost_model import CostModel

        flat = JoinCostEstimate(1.0, "forced tie")
        monkeypatch.setattr(
            CostModel, "estimate_pq_indexed",
            lambda self, *a, **k: flat,
        )
        monkeypatch.setattr(
            CostModel, "estimate_pq_mixed",
            lambda self, *a, **k: flat,
        )
        monkeypatch.setattr(
            CostModel, "estimate_sssj",
            lambda self, *a, **k: flat,
        )
        _, _, _, _, rel_a, rel_b = build_world(seed=24)
        strategy, est = choose_method(rel_a, rel_b, MACHINE_3, TEST_SCALE)
        assert strategy == "pq-index"
        assert est.io_seconds == 1.0


class TestUnifiedJoin:
    def test_auto_choice_correct(self):
        env, disk, a, b, rel_a, rel_b = build_world(seed=9)
        res = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                   collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.detail["strategy"] in PLANNER

    @pytest.mark.parametrize("force", PLANNER)
    def test_every_forced_strategy_correct(self, force):
        env, disk, a, b, rel_a, rel_b = build_world(seed=10)
        res = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                   collect_pairs=True, force=force)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.detail["strategy"] == force

    def test_unknown_strategy_rejected(self):
        env, disk, a, b, rel_a, rel_b = build_world(seed=11)
        with pytest.raises(ValueError, match="feasible: pq-index"):
            unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                 force="nested-loop")
        assert env.page_reads == env.page_writes == 0

    @pytest.mark.parametrize("force", INDEXED)
    def test_infeasible_force_rejected_before_io(self, force):
        # Forcing an index path onto a side without an index used to
        # price NaN and then fail inside the join.
        env, disk, a, b, rel_a, rel_b = build_world(
            index_a=False, index_b=False, seed=25,
        )
        with pytest.raises(ValueError, match="feasible: sssj$"):
            unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                 force=force)
        assert env.page_reads == env.page_writes == 0

    def test_st_runs_on_a_fresh_pool_when_forced(self):
        env, disk, a, b, rel_a, rel_b = build_world(seed=26)
        res = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                   collect_pairs=True, force="st")
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.detail["strategy"] == "st"
        assert math.isfinite(res.detail["estimated_io_seconds"])

    def test_localized_join_prunes_io(self):
        # The Section 6.3 scenario end-to-end: Minnesota-style hydro
        # against nationwide roads — the planner's choice should beat
        # forced SSSJ in simulated I/O seconds.
        wide = Rect(0.0, 16.0, 0.0, 1.0, 0)
        sliver = Rect(7.1, 7.3, 0.0, 1.0, 0)
        env, disk, a, b, rel_a, rel_b = build_world(
            n_a=4000, n_b=60, region_a=wide, region_b=sliver, seed=12,
        )
        auto = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                    collect_pairs=True)
        auto_io = env.observer_for(MACHINE_3).io_seconds
        env.reset_counters()
        forced = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                      collect_pairs=True, force="sssj")
        sssj_io = env.observer_for(MACHINE_3).io_seconds
        assert auto.pair_set() == forced.pair_set()
        assert auto.detail["strategy"] != "sssj"
        assert auto_io < sssj_io

    def test_detail_carries_estimate_and_machine(self):
        env, disk, a, b, rel_a, rel_b = build_world(seed=13)
        res = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3)
        assert res.detail["machine"] == MACHINE_3.name
        assert "estimated_io_seconds" in res.detail

    @pytest.mark.parametrize("force", PLANNER)
    def test_forced_strategy_priced_with_real_model(self, force):
        # A forced run must carry the cost model's estimate for that
        # strategy (not NaN), so ablation tables stay comparable.
        env, disk, a, b, rel_a, rel_b = build_world(seed=14)
        expected = dict(candidate_estimates(
            rel_a, rel_b, MACHINE_3, TEST_SCALE
        ))[force]
        res = unified_spatial_join(rel_a, rel_b, disk, MACHINE_3,
                                   force=force)
        assert math.isfinite(res.detail["estimated_io_seconds"])
        assert res.detail["estimated_io_seconds"] == pytest.approx(
            expected.io_seconds
        )


class TestStrategyTable:
    def test_rows_are_the_named_strategies(self):
        assert list(STRATEGIES) == [
            "pq-index", "pq-mixed-a", "pq-mixed-b", "sssj", "st",
        ]
        assert all(name == s.name for name, s in STRATEGIES.items())
        assert [n for n, s in STRATEGIES.items() if not s.planner] == ["st"]

    @pytest.mark.parametrize("price", [None, "estimate_sssj"])
    def test_row_without_a_price_fails_at_construction(self, price):
        # Rows are built when the module is imported, so a row that
        # cannot be priced stops the import, never a query.
        run = STRATEGIES["sssj"].run
        with pytest.raises(TypeError, match="price"):
            JoinStrategy("x", (False, False), price, run)
        with pytest.raises(TypeError):
            JoinStrategy("x", (False, False), run=run)

    def test_feasibility_follows_the_indexed_sides(self):
        _, _, _, _, rel_a, rel_b = build_world(index_b=False, seed=27)
        feasible = [n for n, s in STRATEGIES.items()
                    if s.feasible(rel_a, rel_b)]
        assert feasible == ["pq-mixed-a", "sssj"]
        row = STRATEGIES["pq-mixed-a"]
        assert row.inputs(rel_a, rel_b) == (rel_a.tree, rel_b.stream)
