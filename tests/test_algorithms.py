"""Per-algorithm behaviour: SSSJ passes & fallback, PBSM partitions &
dedup, ST pooling, PQ optimality and input mixes."""

import pytest

from repro.core.brute import brute_force_pairs
from repro.core.multiway import multiway_join
from repro.core.pbsm import PBSMConfig, pbsm_join
from repro.core.pq_join import PQConfig, pq_join
from repro.core.sources import ListSource
from repro.core.sssj import SSSJConfig, sssj_join
from repro.core.st_join import STConfig, st_join
from repro.data.generator import (
    clustered_rects,
    grid_rects,
    stabbing_rects,
    uniform_rects,
)
from repro.geom.rect import Rect
from repro.rtree.bulk_load import bulk_load
from repro.rtree.insert import RTreeBuilder
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.stream import Stream

from tests.conftest import TEST_SCALE, make_env

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def setup_streams(n=300, seed=1):
    env = make_env()
    disk = Disk(env)
    a = clustered_rects(n, UNIT, 0.03, seed=seed)
    b = clustered_rects(n // 3, UNIT, 0.05, seed=seed + 1)
    sa = Stream.from_rects(disk, a, name="a")
    sb = Stream.from_rects(disk, b, name="b")
    env.reset_counters()
    return env, disk, a, b, sa, sb


def setup_trees(n=300, seed=1, builder=None):
    env = make_env()
    disk = Disk(env)
    store = PageStore(disk, TEST_SCALE.index_page_bytes)
    a = clustered_rects(n, UNIT, 0.03, seed=seed)
    b = clustered_rects(n // 3, UNIT, 0.05, seed=seed + 1)
    ta = bulk_load(store, a, name="a")
    tb = bulk_load(store, b, name="b")
    env.reset_counters()
    return env, disk, store, a, b, ta, tb


def test_misspelled_sweep_structure_is_refused_before_any_work():
    # A name outside sweep.SWEEP_STRUCTURES used to run Forward-Sweep
    # (PQ and multiway with no universe known) or to fail only after
    # SSSJ's two external sorts had been charged.
    env, disk, a, b, sa, sb = setup_streams(seed=11)
    counters = (env.cpu_ops, env.page_reads, env.page_writes,
                env.bytes_read, env.bytes_written)
    joins = (
        lambda: pq_join(sa, sb, disk, config=PQConfig(structure="strpied")),
        lambda: multiway_join([sa, sb, sa], disk,
                              config=PQConfig(structure="strpied")),
        lambda: sssj_join(sa, sb, disk,
                          config=SSSJConfig(structure="strpied")),
    )
    for join in joins:
        with pytest.raises(ValueError, match="unknown sweep structure"):
            join()
    assert (env.cpu_ops, env.page_reads, env.page_writes,
            env.bytes_read, env.bytes_written) == counters


class TestSSSJ:
    def test_correctness(self):
        env, disk, a, b, sa, sb = setup_streams()
        res = sssj_join(sa, sb, disk, universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.algorithm == "SSSJ"

    def test_forward_structure_gives_same_answer(self):
        env, disk, a, b, sa, sb = setup_streams(seed=2)
        res = sssj_join(sa, sb, disk, universe=UNIT,
                        config=SSSJConfig(structure="forward"),
                        collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_universe_derived_when_missing(self):
        env, disk, a, b, sa, sb = setup_streams(seed=3)
        res = sssj_join(sa, sb, disk, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_no_fallback_on_real_like_data(self):
        # The paper: the structures "always fit"; depth stays 0.
        env, disk, a, b, sa, sb = setup_streams(seed=4)
        res = sssj_join(sa, sb, disk, universe=UNIT)
        assert res.detail["fallback_depth"] == 0

    def test_fallback_triggers_on_stabbing_data_and_stays_correct(self):
        env = make_env()
        disk = Disk(env)
        a = stabbing_rects(300, UNIT, seed=5)
        b = stabbing_rects(300, UNIT, seed=6)
        sa = Stream.from_rects(disk, a)
        sb = Stream.from_rects(disk, b)
        res = sssj_join(sa, sb, disk, universe=UNIT, collect_pairs=True,
                        config=SSSJConfig(memory_items=64))
        assert res.detail["fallback_depth"] >= 1
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_fallback_dedup_no_duplicates(self):
        env = make_env()
        disk = Disk(env)
        a = stabbing_rects(200, UNIT, seed=7)
        sa = Stream.from_rects(disk, a)
        sb = Stream.from_rects(disk, a)
        res = sssj_join(sa, sb, disk, universe=UNIT, collect_pairs=True,
                        config=SSSJConfig(memory_items=64))
        assert len(res.pairs) == len(res.pair_set())

    def test_pass_structure_two_seq_reads_one_merge_read_two_writes(self):
        """Section 3.1: 2 sequential read passes, 1 non-sequential read
        pass (merging), 2 sequential write passes, excluding output."""
        env = make_env()
        disk = Disk(env)
        # Big enough that each input needs a multi-run external sort.
        a = uniform_rects(600, UNIT, 0.005, seed=8)
        b = uniform_rects(500, UNIT, 0.005, seed=9)
        sa = Stream.from_rects(disk, a)
        sb = Stream.from_rects(disk, b)
        env.reset_counters()
        sssj_join(sa, sb, disk, universe=UNIT)
        nblocks = sa.num_blocks + sb.num_blocks
        # 3 read passes and 2 write passes over the data, in blocks.
        assert env.page_reads == pytest.approx(3 * nblocks, rel=0.15)
        assert env.page_writes == pytest.approx(2 * nblocks, rel=0.15)

    def test_memory_reported(self):
        env, disk, a, b, sa, sb = setup_streams(seed=10)
        res = sssj_join(sa, sb, disk, universe=UNIT)
        assert res.max_memory_bytes > 0

    def test_empty_inputs(self):
        env = make_env()
        disk = Disk(env)
        sa = Stream.from_rects(disk, [])
        sb = Stream.from_rects(disk, uniform_rects(10, UNIT, 0.1))
        res = sssj_join(sa, sb, disk, universe=UNIT, collect_pairs=True)
        assert res.n_pairs == 0


class TestPBSM:
    def test_correctness(self):
        env, disk, a, b, sa, sb = setup_streams()
        res = pbsm_join(sa, sb, disk, universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.algorithm == "PBSM"

    def test_no_duplicate_pairs_despite_replication(self):
        env, disk, a, b, sa, sb = setup_streams(seed=11)
        res = pbsm_join(sa, sb, disk, universe=UNIT, collect_pairs=True,
                        config=PBSMConfig(tiles_per_side=8, partitions=5))
        assert len(res.pairs) == len(res.pair_set())
        assert res.detail["replicated_a"] >= len(a)

    def test_single_partition(self):
        env, disk, a, b, sa, sb = setup_streams(seed=12)
        res = pbsm_join(sa, sb, disk, universe=UNIT, collect_pairs=True,
                        config=PBSMConfig(partitions=1))
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_many_partitions(self):
        env, disk, a, b, sa, sb = setup_streams(seed=13)
        res = pbsm_join(sa, sb, disk, universe=UNIT, collect_pairs=True,
                        config=PBSMConfig(tiles_per_side=16, partitions=12))
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_partition_count_from_memory_budget(self):
        env, disk, a, b, sa, sb = setup_streams(n=900, seed=14)
        res = pbsm_join(sa, sb, disk, universe=UNIT)
        import math

        want = math.ceil((sa.data_bytes + sb.data_bytes)
                         / TEST_SCALE.memory_bytes)
        assert res.detail["partitions"] == want

    def test_too_few_tiles_rejected(self):
        env, disk, a, b, sa, sb = setup_streams(seed=15)
        with pytest.raises(ValueError):
            pbsm_join(sa, sb, disk, universe=UNIT,
                      config=PBSMConfig(tiles_per_side=2, partitions=10))

    def test_finer_tiles_balance_partitions(self):
        # The paper's 32x32 -> 128x128 fix: with clustered data, finer
        # tiling reduces the largest partition.
        env = make_env()
        disk = Disk(env)
        a = clustered_rects(1200, UNIT, 0.01, n_clusters=2, spread=0.02,
                            seed=16)
        b = clustered_rects(400, UNIT, 0.01, n_clusters=2, spread=0.02,
                            seed=17)
        sa = Stream.from_rects(disk, a)
        sb = Stream.from_rects(disk, b)
        coarse = pbsm_join(sa, sb, disk, universe=UNIT,
                           config=PBSMConfig(tiles_per_side=4, partitions=8))
        fine = pbsm_join(sa, sb, disk, universe=UNIT,
                         config=PBSMConfig(tiles_per_side=32, partitions=8))
        assert (fine.detail["max_partition_bytes"]
                <= coarse.detail["max_partition_bytes"])

    def test_replication_detail(self):
        env, disk, a, b, sa, sb = setup_streams(seed=18)
        res = pbsm_join(sa, sb, disk, universe=UNIT)
        assert res.detail["replicated_b"] >= len(b)


class TestST:
    def test_correctness(self):
        env, disk, store, a, b, ta, tb = setup_trees()
        res = st_join(ta, tb, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.algorithm == "ST"

    def test_different_stores_rejected(self):
        env1, _, _, _, _, ta, _ = setup_trees(seed=19)
        env2, _, _, _, _, _, tb = setup_trees(seed=20)
        with pytest.raises(ValueError):
            st_join(ta, tb)

    def test_disjoint_trees_zero_io_after_roots(self):
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        left = uniform_rects(200, Rect(0, 1, 0, 1, 0), 0.02, seed=21)
        right = uniform_rects(
            200, Rect(5, 6, 5, 6, 0), 0.02, seed=22, id_base=1000
        )
        ta = bulk_load(store, left)
        tb = bulk_load(store, right)
        env.reset_counters()
        res = st_join(ta, tb, collect_pairs=True)
        assert res.n_pairs == 0
        assert res.detail["disk_reads"] <= 2  # just the two roots

    def test_small_trees_fit_pool_reads_bounded_by_pages(self):
        # Table 4's NJ/NY regime: everything fits in the pool, so disk
        # reads never exceed the page count (pruning may go below).
        env, disk, store, a, b, ta, tb = setup_trees(n=400, seed=23)
        pool_pages = ta.page_count + tb.page_count + 4
        res = st_join(ta, tb, config=STConfig(buffer_pool_pages=pool_pages))
        assert res.detail["disk_reads"] <= ta.page_count + tb.page_count

    def test_tiny_pool_causes_rereads(self):
        # Table 4's DISK* regime: pool much smaller than the trees.
        env, disk, store, a, b, ta, tb = setup_trees(n=2500, seed=24)
        res = st_join(ta, tb, config=STConfig(buffer_pool_pages=4))
        assert res.detail["disk_reads"] > ta.page_count + tb.page_count

    def test_height_mismatch(self):
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        big = clustered_rects(1500, UNIT, 0.02, seed=25)
        small = clustered_rects(20, UNIT, 0.08, seed=26)
        ta = bulk_load(store, big)
        tb = bulk_load(store, small)
        assert ta.height > tb.height
        res = st_join(ta, tb, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(big, small)

    def test_dynamic_trees_joinable(self):
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        a = uniform_rects(300, UNIT, 0.03, seed=27)
        b = uniform_rects(100, UNIT, 0.05, seed=28)
        ba = RTreeBuilder(store, "a")
        ba.extend(a)
        bb = RTreeBuilder(store, "b")
        bb.extend(b)
        res = st_join(ba.finish(), bb.finish(), collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_page_requests_at_least_disk_reads(self):
        env, disk, store, a, b, ta, tb = setup_trees(seed=29)
        res = st_join(ta, tb)
        assert res.detail["page_requests"] >= res.detail["disk_reads"]


class TestPQ:
    def test_two_indexes(self):
        env, disk, store, a, b, ta, tb = setup_trees()
        res = pq_join(ta, tb, disk, universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
        assert res.algorithm == "PQ"

    def test_index_and_stream(self):
        env, disk, store, a, b, ta, tb = setup_trees(seed=30)
        sb = Stream.from_rects(disk, b)
        res = pq_join(ta, sb, disk, universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_two_streams(self):
        env, disk, a, b, sa, sb = setup_streams(seed=31)
        res = pq_join(sa, sb, disk, universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_list_sources(self):
        env = make_env()
        disk = Disk(env)
        a = uniform_rects(200, UNIT, 0.04, seed=32)
        b = uniform_rects(80, UNIT, 0.05, seed=33)
        res = pq_join(ListSource(a), ListSource(b), disk, universe=UNIT,
                      collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_optimal_page_accesses(self):
        # Table 4: PQ touches every index page exactly once.
        env, disk, store, a, b, ta, tb = setup_trees(n=900, seed=34)
        env.reset_counters()
        res = pq_join(ta, tb, disk, universe=UNIT)
        assert env.page_reads == ta.page_count + tb.page_count
        assert res.detail["pages_read_a"] == ta.page_count
        assert res.detail["pages_read_b"] == tb.page_count

    def test_memory_detail_split(self):
        env, disk, store, a, b, ta, tb = setup_trees(seed=35)
        res = pq_join(ta, tb, disk, universe=UNIT)
        assert res.max_memory_bytes == (
            res.detail["sweep_bytes"] + res.detail["queue_bytes"]
        )

    def test_forward_structure_matches(self):
        env, disk, store, a, b, ta, tb = setup_trees(seed=36)
        res = pq_join(ta, tb, disk, universe=UNIT,
                      config=PQConfig(structure="forward"),
                      collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)

    def test_pruned_traversal_correct_on_localized_inputs(self):
        # Section 6.3's localized join: only the overlapping region of
        # the big input participates.
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        wide = Rect(0.0, 8.0, 0.0, 1.0, 0)
        local = Rect(3.0, 4.0, 0.0, 1.0, 0)
        big = uniform_rects(2000, wide, 0.02, seed=37)
        small = uniform_rects(100, local, 0.03, seed=38, id_base=5000)
        tb_big = bulk_load(store, big)
        tb_small = bulk_load(store, small)
        env.reset_counters()
        pruned = pq_join(tb_big, tb_small, disk,
                         config=PQConfig(prune=True), collect_pairs=True)
        pruned_reads = env.page_reads
        assert pruned.pair_set() == brute_force_pairs(big, small)
        env.reset_counters()
        full = pq_join(tb_big, tb_small, disk, collect_pairs=True)
        assert pruned.pair_set() == full.pair_set()
        assert pruned_reads < env.page_reads

    def test_unknown_input_type_rejected(self):
        env = make_env()
        disk = Disk(env)
        with pytest.raises(TypeError):
            pq_join([Rect(0, 1, 0, 1, 0)], [Rect(0, 1, 0, 1, 1)], disk)

    def test_dynamic_tree_as_input(self):
        env = make_env()
        disk = Disk(env)
        store = PageStore(disk, TEST_SCALE.index_page_bytes)
        a = uniform_rects(400, UNIT, 0.02, seed=39)
        b = uniform_rects(150, UNIT, 0.04, seed=40)
        builder = RTreeBuilder(store)
        builder.extend(a)
        res = pq_join(builder.finish(), Stream.from_rects(disk, b), disk,
                      universe=UNIT, collect_pairs=True)
        assert res.pair_set() == brute_force_pairs(a, b)
