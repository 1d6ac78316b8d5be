"""The memory-governance layer: budget, grants, spill, size-aware cache."""

from __future__ import annotations

import pytest

from repro.core.pbsm import SpillablePartition, TileAllowance
from repro.data.generator import uniform_rects
from repro.engine.cache import ResultCache, approx_result_bytes
from repro.engine.resources import ResourceBudget
from repro.geom.rect import RECT_BYTES, Rect
from repro.storage.sort import MIN_SORT_RECTS, sort_stream_by_ylo
from repro.storage.stream import Stream


UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


class TestResourceBudget:
    def test_acquire_clamps_to_free_bytes(self):
        budget = ResourceBudget(1000)
        g1 = budget.acquire("a", 600)
        assert g1.bytes == 600
        g2 = budget.acquire("b", 600)
        assert g2.bytes == 400  # clamped to what is left
        assert budget.in_use_bytes == 1000
        assert budget.available_bytes == 0

    def test_minimum_overcommits_and_counts(self):
        budget = ResourceBudget(100)
        budget.acquire("a", 100)
        g = budget.acquire("b", 500, minimum=50)
        assert g.bytes == 50
        assert budget.overcommits == 1
        assert budget.in_use_bytes == 150  # over the total, by design

    def test_charge_release_and_high_water(self):
        budget = ResourceBudget(1000)
        g = budget.acquire("sort", 200)
        g.charge(300)
        assert budget.in_use_bytes == 500
        assert budget.high_water_bytes == 500
        g.release(400)
        assert budget.in_use_bytes == 100
        # Partial release keeps the grant alive.
        g.charge(50)
        assert budget.in_use_bytes == 150
        g.release()
        assert budget.in_use_bytes == 0
        # Closed grants are inert.
        g.charge(999)
        assert budget.in_use_bytes == 0
        assert budget.high_water_bytes == 500

    def test_per_category_accounting(self):
        budget = ResourceBudget(1000)
        g1 = budget.acquire("tiles", 300)
        budget.acquire("sort", 200)
        snap = budget.snapshot()
        assert snap["by_category"] == {"tiles": 300, "sort": 200}
        g1.release()
        snap = budget.snapshot()
        assert snap["by_category"] == {"sort": 200}
        assert snap["high_water_by_category"]["tiles"] == 300

    def test_try_extend_respects_free_bytes(self):
        budget = ResourceBudget(1000)
        g = budget.acquire("tiles", 600)
        assert g.try_extend(300)
        assert g.held == 900 and g.bytes == 900
        assert not g.try_extend(200)  # only 100 free
        assert budget.in_use_bytes == 900
        g.release()
        assert budget.in_use_bytes == 0

    def test_context_manager_releases(self):
        budget = ResourceBudget(1000)
        with budget.acquire("tmp", 400) as g:
            assert budget.in_use_bytes == 400
            assert g.held == 400
        assert budget.in_use_bytes == 0

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            ResourceBudget(0)


class TestSpillablePartition:
    def test_unbudgeted_never_spills(self, disk):
        part = SpillablePartition(disk, "p0")
        rects = uniform_rects(50, UNIT, 0.05, seed=1)
        for r in rects:
            part.append(r)
        assert part.spilled_rects == 0
        assert part.materialize() == list(rects)

    def test_spills_beyond_allowance_and_rereads(self, disk):
        allowance = TileAllowance(10 * RECT_BYTES)
        part = SpillablePartition(disk, "p0", allowance=allowance)
        rects = uniform_rects(50, UNIT, 0.05, seed=2)
        for r in rects:
            part.append(r)
        assert part.spilled_rects == 40
        assert part.spilled_bytes == 40 * RECT_BYTES
        assert len(part.in_memory) == 10
        # Re-read preserves append order and charges disk reads.
        reads_before = disk.env.page_reads
        assert part.materialize() == list(rects)
        assert disk.env.page_reads > reads_before
        part.free()

    def test_allowance_is_shared_across_partitions(self, disk):
        allowance = TileAllowance(10 * RECT_BYTES)
        p0 = SpillablePartition(disk, "p0", allowance=allowance)
        p1 = SpillablePartition(disk, "p1", allowance=allowance)
        rects = uniform_rects(10, UNIT, 0.05, seed=3)
        for r in rects:
            p0.append(r)
        assert p0.spilled_rects == 0
        for r in rects:
            p1.append(r)
        # p0 consumed the whole shared allowance first.
        assert p1.spilled_rects == 10

    def test_allowance_extends_from_grant_before_spilling(self, disk):
        budget = ResourceBudget(100_000)
        grant = budget.acquire("tiles", 5 * RECT_BYTES)
        allowance = TileAllowance(grant.bytes, grant=grant)
        part = SpillablePartition(disk, "p0", allowance=allowance)
        rects = uniform_rects(50, UNIT, 0.05, seed=5)
        for r in rects:
            part.append(r)
        # Plenty of free budget: the grant grew instead of spilling.
        assert part.spilled_rects == 0
        assert grant.held >= 50 * RECT_BYTES
        grant.release()
        assert budget.in_use_bytes == 0


class TestBudgetedStorage:
    def test_external_sort_adapts_to_budget(self, disk):
        # A budget with almost nothing free forces the sort down to its
        # floor chunk size: more runs, same output.
        budget = ResourceBudget(10_000)
        hog = budget.acquire("hog", 10_000)
        disk.env.budget = budget
        rects = uniform_rects(300, UNIT, 0.02, seed=4)
        stream = Stream.from_rects(disk, rects, name="in")
        out = sort_stream_by_ylo(stream, disk)
        assert sorted(out.scan(), key=lambda r: r.ylo) == list(out.scan())
        assert len(out) == 300
        # The grant was the overcommitted floor, then fully released.
        assert budget.overcommits == 1
        assert budget.used_by("sort") == 0
        assert budget.high_water_by_category["sort"] == (
            MIN_SORT_RECTS * RECT_BYTES
        )
        hog.release()


class TestSizeAwareCache:
    def test_evicts_by_bytes_not_count(self):
        cache = ResultCache(capacity=100, max_bytes=3000)
        cache.put("k1", "v1", nbytes=1000)
        cache.put("k2", "v2", nbytes=1000)
        cache.put("k3", "v3", nbytes=1000)
        assert len(cache) == 3 and cache.bytes_used == 3000
        cache.put("k4", "v4", nbytes=1500)
        # k1 and k2 (LRU) must go to make room.
        assert cache.get("k1") is None and cache.get("k2") is None
        assert cache.get("k3") == "v3" and cache.get("k4") == "v4"
        assert cache.evictions == 2
        assert cache.bytes_used == 2500

    def test_oversized_result_is_never_cached(self):
        cache = ResultCache(capacity=100, max_bytes=1000)
        cache.put("big", "v", nbytes=5000)
        assert len(cache) == 0
        assert cache.oversized_rejections == 1

    def test_replacement_updates_bytes(self):
        cache = ResultCache(capacity=100, max_bytes=10_000)
        cache.put("k", "v1", nbytes=4000)
        cache.put("k", "v2", nbytes=1000)
        assert cache.bytes_used == 1000
        assert len(cache) == 1

    def test_invalidation_releases_bytes(self):
        cache = ResultCache(capacity=8, max_bytes=50_000)
        key = ("q", (("a", 1),))
        cache.put(key, "v", nbytes=2000)
        assert cache.bytes_used == 2000
        assert cache.invalidate_relation("a") == 1
        assert cache.bytes_used == 0

    def test_approx_bytes_scales_with_pairs(self):
        class FakeResult:
            def __init__(self, n):
                self.pairs = [(i, i + 1) for i in range(n)]

        small = approx_result_bytes(FakeResult(10))
        large = approx_result_bytes(FakeResult(1000))
        assert large > 50 * small

    def test_columnar_pairs_are_charged_their_array(self):
        from repro.core.columnar import PairColumns
        from repro.core.join_result import JoinResult
        from repro.engine.cache import _ENTRY_BYTES

        def result(pairs):
            return JoinResult(algorithm="x", n_pairs=len(pairs or ()),
                              pairs=pairs)

        tuples = [(i, i + 1) for i in range(1000)]
        triples = [(i, i + 1, i + 2) for i in range(1000)]
        # Side by side: a list is estimated per boxed tuple, columns
        # cost exactly the array they are.
        assert approx_result_bytes(result(tuples)) == (
            _ENTRY_BYTES + 1000 * (56 + 2 * 36)
        )
        cols = PairColumns.from_pairs(tuples)
        assert approx_result_bytes(result(cols)) == (
            _ENTRY_BYTES + cols.ids.nbytes
        ) == _ENTRY_BYTES + 1000 * 16
        assert approx_result_bytes(
            result(PairColumns.from_pairs(triples, 3))
        ) == _ENTRY_BYTES + 1000 * 24
        for empty in ([], PairColumns.empty(), None):
            assert approx_result_bytes(result(empty)) == _ENTRY_BYTES
        # Reading the columns leaves nothing behind to charge for.
        assert sum(1 for _ in cols) == 1000 and cols[3] == (3, 4)
        assert approx_result_bytes(result(cols)) == _ENTRY_BYTES + 16_000

    def test_byte_budget_rejects_each_representation_at_its_size(self):
        from repro.core.columnar import PairColumns
        from repro.core.join_result import JoinResult

        budget = 512 + 16 * 200  # room for exactly 200 columnar pairs
        for n, fits in ((200, True), (201, False)):
            cache = ResultCache(capacity=8, max_bytes=budget)
            cols = PairColumns.from_pairs([(i, -i) for i in range(n)])
            cache.put("k", JoinResult("x", n, pairs=cols))
            assert (len(cache) == 1) == fits
            assert cache.oversized_rejections == (0 if fits else 1)
            assert cache.bytes_used == (budget if fits else 0)
        # The same budget holds 25 boxed pairs and refuses 26.
        for n, fits in ((25, True), (26, False)):
            cache = ResultCache(capacity=8, max_bytes=budget)
            cache.put("k", JoinResult(
                "x", n, pairs=[(i, -i) for i in range(n)]))
            assert (len(cache) == 1) == fits
