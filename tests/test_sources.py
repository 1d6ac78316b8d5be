"""Sorted sources: list, stream, index adapter (PQ traversal), join cascade."""

import pytest

from repro.core.sources import (
    IndexSource,
    JoinSource,
    ListSource,
    StreamSource,
)
from repro.core.sweep import ForwardSweep, sweep_join_iter
from repro.data.generator import clustered_rects, uniform_rects
from repro.geom.rect import Rect, intersects
from repro.rtree.bulk_load import bulk_load
from repro.sim.env import null_env
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.sort import sort_stream_by_ylo
from repro.storage.stream import Stream

from tests.conftest import TEST_SCALE, make_env

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def is_sorted_by_ylo(rects):
    ys = [r.ylo for r in rects]
    return ys == sorted(ys)


class TestListSource:
    def test_sorts_input(self):
        rects = uniform_rects(100, UNIT, 0.05, seed=1)
        src = ListSource(list(reversed(rects)))
        assert is_sorted_by_ylo(list(src))

    def test_presorted_trusted(self):
        rects = sorted(uniform_rects(50, UNIT, 0.05, seed=2),
                       key=lambda r: (r.ylo, r.xlo, r.rid))
        src = ListSource(rects, presorted=True)
        assert list(src) == rects

    def test_memory_accounting(self):
        src = ListSource(uniform_rects(100, UNIT, 0.05, seed=3))
        assert src.max_memory_bytes == 100 * 20


class TestStreamSource:
    def test_yields_stream_contents(self):
        env = make_env()
        disk = Disk(env)
        raw = Stream.from_rects(disk, uniform_rects(200, UNIT, 0.02, seed=4))
        sorted_stream = sort_stream_by_ylo(raw, disk)
        src = StreamSource(sorted_stream)
        out = list(src)
        assert len(out) == 200
        assert is_sorted_by_ylo(out)

    def test_open_stream_rejected(self):
        env = make_env()
        s = Stream(Disk(env))
        with pytest.raises(ValueError):
            StreamSource(s)

    def test_memory_is_one_block(self):
        env = make_env()
        disk = Disk(env)
        s = Stream.from_rects(disk, uniform_rects(500, UNIT, 0.02, seed=5))
        src = StreamSource(s)
        assert src.max_memory_bytes <= s.block_capacity * 20


class TestIndexSource:
    def _tree(self, n=500, seed=1, env=None):
        env = env or make_env()
        store = PageStore(Disk(env), TEST_SCALE.index_page_bytes)
        rects = clustered_rects(n, UNIT, 0.02, seed=seed)
        return bulk_load(store, rects), rects, env

    def test_extracts_all_in_sorted_order(self):
        tree, rects, _ = self._tree()
        out = list(IndexSource(tree))
        assert len(out) == len(rects)
        assert is_sorted_by_ylo(out)
        assert sorted(out) == sorted(rects)

    def test_touches_every_page_exactly_once(self):
        # The Table 4 "optimal" property.
        tree, _, env = self._tree()
        env.reset_counters()
        src = IndexSource(tree)
        list(src)
        assert src.pages_read == tree.page_count
        assert env.page_reads == tree.page_count

    def test_memory_high_water_recorded(self):
        tree, rects, _ = self._tree()
        src = IndexSource(tree)
        list(src)
        assert src.max_memory_bytes > 0
        # Far below the data size (the Table 3 observation).
        assert src.max_memory_bytes < len(rects) * 20

    def test_prune_window_skips_subtrees(self):
        tree, rects, env = self._tree(n=800, seed=6)
        window = Rect(0.0, 0.25, 0.0, 0.25, 0)
        env.reset_counters()
        src = IndexSource(tree, prune_window=window)
        out = list(src)
        assert src.pages_read < tree.page_count
        assert sorted(out) == sorted(
            r for r in rects if intersects(r, window)
        )

    def test_prune_window_disjoint_reads_nothing(self):
        tree, _, env = self._tree()
        env.reset_counters()
        src = IndexSource(tree, prune_window=Rect(5, 6, 5, 6, 0))
        assert list(src) == []
        assert env.page_reads == 0

    def test_prune_keeps_sorted_order(self):
        tree, _, _ = self._tree(n=600, seed=7)
        out = list(IndexSource(tree, prune_window=Rect(0, 0.5, 0, 0.9, 0)))
        assert is_sorted_by_ylo(out)

    def test_single_node_tree(self):
        env = make_env()
        store = PageStore(Disk(env), TEST_SCALE.index_page_bytes)
        tree = bulk_load(store, [UNIT._replace(rid=3)])
        assert [r.rid for r in IndexSource(tree)] == [3]

    def test_queue_stats_populated(self):
        tree, _, _ = self._tree()
        src = IndexSource(tree)
        list(src)
        assert src.max_node_queue >= 1
        assert src.max_data_queue >= 1

    def test_statistics_describe_one_iteration(self):
        # Each iteration starts from zero: a second one used to report
        # twice the page reads (and kept the larger run's maxima), and
        # one cut short by a disjoint window kept the last run's spills
        # and heap ops.
        def statistics(src):
            return {name: getattr(src, name) for name in (
                "pages_read", "rects_emitted", "max_memory_bytes",
                "max_node_queue", "max_data_queue", "queue_spills",
                "_heap_ops",
            )}

        tree, rects, _ = self._tree()
        window = Rect(0.2, 0.6, 0.1, 0.5, 0)
        for prune, memory_items in ((None, None), (window, None),
                                    (None, 4)):
            fresh = IndexSource(tree, prune_window=prune,
                                queue_memory_items=memory_items)
            first = list(fresh)
            expect = statistics(fresh)
            assert expect["pages_read"] > 0
            assert expect["rects_emitted"] == len(first)
            again = IndexSource(tree, prune_window=prune,
                                queue_memory_items=memory_items)
            assert list(again) == first
            assert list(again) == first
            assert statistics(again) == expect
            again.prune_window = Rect(5, 6, 5, 6, 0)
            assert list(again) == []
            assert statistics(again) == statistics(IndexSource(tree))
        assert expect["queue_spills"] > 0  # the bounded run did spill


class TestJoinSource:
    def test_cascade_produces_sorted_intersections(self):
        a = uniform_rects(120, UNIT, 0.08, seed=8)
        b = uniform_rects(120, UNIT, 0.08, seed=9)
        env = null_env()
        pair_iter = sweep_join_iter(
            iter(ListSource(a)), iter(ListSource(b)), ForwardSweep, env
        )
        src = JoinSource(pair_iter)
        out = list(src)
        assert is_sorted_by_ylo(out)
        assert src.n_pairs == len(out)

    def test_on_pair_callback(self):
        a = [Rect(0, 1, 0, 1, 1)]
        b = [Rect(0.5, 1.5, 0.5, 1.5, 2)]
        env = null_env()
        seen = []
        src = JoinSource(
            sweep_join_iter(iter(ListSource(a)), iter(ListSource(b)),
                            ForwardSweep, env),
            on_pair=lambda x, y: seen.append((x.rid, y.rid)),
        )
        out = list(src)
        assert seen == [(1, 2)]
        assert out[0] == Rect(0.5, 1.0, 0.5, 1.0, 0)


class TestExternalQueueIndexSource:
    """The Section 4 overflow mechanism: bounded queues that spill."""

    def _tree(self, n=800, seed=11):
        env = make_env()
        store = PageStore(Disk(env), TEST_SCALE.index_page_bytes)
        rects = clustered_rects(n, UNIT, 0.02, seed=seed)
        return bulk_load(store, rects), rects, env

    def test_spilling_traversal_matches_in_memory(self):
        tree, rects, _ = self._tree()
        plain = list(IndexSource(tree))
        spilling = list(IndexSource(tree, queue_memory_items=8))
        assert spilling == plain

    def test_spills_actually_happen_under_tight_bound(self):
        tree, _, _ = self._tree()
        src = IndexSource(tree, queue_memory_items=8)
        list(src)
        assert src.queue_spills > 0

    def test_no_spills_with_generous_bound(self):
        tree, _, _ = self._tree(n=200)
        src = IndexSource(tree, queue_memory_items=1 << 20)
        list(src)
        assert src.queue_spills == 0

    def test_page_reads_still_optimal(self):
        # Spilling changes memory behaviour, not the traversal: every
        # index page is still read exactly once.
        tree, _, env = self._tree()
        env.reset_counters()
        src = IndexSource(tree, queue_memory_items=8)
        list(src)
        assert src.pages_read == tree.page_count

    def test_pq_join_with_bounded_queues(self):
        from repro.core.brute import brute_force_pairs
        from repro.core.pq_join import PQConfig, pq_join

        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        a = clustered_rects(400, UNIT, 0.03, seed=21)
        b = clustered_rects(150, UNIT, 0.04, seed=22, id_base=10_000)
        ta = bulk_load(store, a)
        tb = bulk_load(store, b)
        res = pq_join(
            ta, tb, disk, universe=UNIT, collect_pairs=True,
            config=PQConfig(queue_memory_items=8),
        )
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.detail["queue_spills_a"] > 0
