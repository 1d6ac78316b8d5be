"""The columnar tile codec and the sweep that collects its pairs."""

from __future__ import annotations

import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.columnar import (
    COLUMN_BYTES_PER_RECT,
    ColumnarTile,
    PairColumns,
    TileImage,
)
from repro.core.pbsm import SpillablePartition, TileAllowance
from repro.core.sweep import (
    ForwardSweep,
    StripedSweep,
    forward_sweep_pairs,
    forward_sweep_pairs_batched,
    sweep_join,
    sweep_join_batched,
)
from repro.data.generator import uniform_rects
from repro.geom.rect import RECT_BYTES, Rect

from tests.conftest import make_env

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def _ylo_sorted(rects):
    return sorted(rects, key=lambda r: (r.ylo, r.xlo))


class TestColumnarTile:
    def test_round_trip_is_exact(self):
        rects = uniform_rects(500, UNIT, 0.03, seed=11)
        tile = ColumnarTile.from_rects(rects)
        assert len(tile) == len(rects)
        assert tile.decode() == rects

    def test_round_trip_awkward_values(self):
        rects = [
            Rect(-1.5e300, 1.5e300, -0.0, 0.0, 2**62),
            Rect(1e-320, 2e-320, -7.25, -7.0, -5),
            Rect(0.1, 0.2, 0.3, 0.4, 0),
        ]
        tile = ColumnarTile.from_rects(rects)
        assert tile.decode() == rects

    def test_append_matches_bulk_encode(self):
        rects = uniform_rects(40, UNIT, 0.05, seed=3)
        one_by_one = ColumnarTile()
        for r in rects:
            one_by_one.append(r)
        assert one_by_one.decode() == ColumnarTile.from_rects(rects).decode()

    def test_nbytes_tracks_payload(self):
        rects = uniform_rects(64, UNIT, 0.02, seed=5)
        tile = ColumnarTile.from_rects(rects)
        assert tile.nbytes == 64 * COLUMN_BYTES_PER_RECT
        assert len(ColumnarTile()) == 0
        assert ColumnarTile().nbytes == 0

    def test_pickle_round_trip(self):
        rects = uniform_rects(200, UNIT, 0.04, seed=7)
        tile = ColumnarTile.from_rects(rects)
        clone = pickle.loads(pickle.dumps(tile))
        assert clone.decode() == rects
        assert clone.nbytes == tile.nbytes


#: What a ``PairColumns`` must be indistinguishable from, case by case.
PAIR_LISTS = {
    "empty": [],
    "one": [(7, 100_003)],
    "arity3": [(3, 20, 100), (1, 20, 100), (3, 20, 99), (-4, 0, 2**40)],
    "duplicates": [(5, 9), (2, 9), (5, 9), (5, 8), (2, 9), (5, 9)],
}


def _len_and_back(pairs):
    """Runs in a pool worker: proves the columns arrived usable."""
    return len(pairs), pairs


class TestPairColumns:
    """Protocol parity with the list of tuples it replaces."""

    @staticmethod
    def _columns(name):
        ref = PAIR_LISTS[name]
        return ref, PairColumns.from_pairs(ref, 3 if name == "arity3" else 2)

    @pytest.mark.parametrize("name", sorted(PAIR_LISTS))
    def test_reads_like_the_list(self, name):
        ref, cols = self._columns(name)
        assert len(cols) == len(ref)
        assert bool(cols) == bool(ref)
        assert list(cols) == ref
        assert list(iter(cols)) == ref  # iterates afresh each time
        assert all(type(t) is tuple and type(t[0]) is int for t in cols)
        for i in range(-len(ref), len(ref)):
            assert cols[i] == ref[i]
        with pytest.raises(IndexError):
            cols[len(ref)]
        for sl in (slice(None), slice(1, None), slice(None, -1),
                   slice(None, None, 2), slice(4, 1, -1)):
            assert isinstance(cols[sl], PairColumns)
            assert cols[sl] == ref[sl]
        assert sorted(cols) == sorted(ref)
        assert set(cols) == set(ref)
        assert [t in cols for t in ref] == [True] * len(ref)
        assert (10**9, 10**9) not in cols

    @pytest.mark.parametrize("name", sorted(PAIR_LISTS))
    def test_equality_both_ways(self, name):
        ref, cols = self._columns(name)
        assert cols == ref and ref == cols
        assert not (cols != ref) and not (ref != cols)
        assert cols == PairColumns.from_pairs(ref, cols.ids.shape[1])
        longer = ref + [ref[0] if ref else (0, 0)]
        assert cols != longer and longer != cols
        if ref:
            moved = ref[1:] + ref[:1]
            assert (cols == moved) == (ref == moved)
            assert cols != [tuple(x + 1 for x in t) for t in ref]
        assert cols != "pairs" and cols != None  # noqa: E711

    def test_empty_results_are_equal_whatever_their_arity(self):
        assert PairColumns.empty(2) == PairColumns.empty(3) == []

    @pytest.mark.parametrize("name", sorted(PAIR_LISTS))
    def test_pickle_round_trip_through_a_process_pool(self, name):
        ref, cols = self._columns(name)
        with ProcessPoolExecutor(max_workers=1) as pool:
            n, back = pool.submit(_len_and_back, cols).result(timeout=60)
        assert n == len(ref)
        assert isinstance(back, PairColumns) and back == ref
        assert back.ids.shape == cols.ids.shape
        assert not back.ids.flags.writeable
        # One buffer, not a tuple per pair: the payload is the array.
        big = PairColumns.from_pairs([(i, i + 1) for i in range(5000)])
        assert len(pickle.dumps(big, pickle.HIGHEST_PROTOCOL)) < (
            big.nbytes + 512
        )

    def test_immutable_and_unhashable(self):
        cols = PairColumns.from_pairs(PAIR_LISTS["duplicates"])
        with pytest.raises(ValueError, match="read-only"):
            cols.ids[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            cols[1:].ids[0, 0] = 1
        with pytest.raises(TypeError):
            cols[0] = (1, 2)
        with pytest.raises(AttributeError):
            cols.append((1, 2))
        with pytest.raises(TypeError):
            hash(cols)

    def test_tuples_are_never_kept(self):
        cols = PairColumns.from_pairs(PAIR_LISTS["duplicates"])
        assert cols[0] is not cols[0]
        assert PairColumns.__slots__ == ("ids",)
        assert not hasattr(cols, "__dict__")

    def test_from_pairs_and_concat(self):
        ref = PAIR_LISTS["duplicates"]
        cols = PairColumns.from_pairs(ref)
        assert PairColumns.from_pairs(cols) is cols
        assert PairColumns.concat([]) == []
        assert PairColumns.concat([[], cols, []]).ids is cols.ids
        mixed = PairColumns.concat([ref[:2], cols[2:4], [], ref[4:]])
        assert mixed == ref
        assert PairColumns.concat(
            [PAIR_LISTS["arity3"][:1], PAIR_LISTS["arity3"][1:]], 3
        ) == PAIR_LISTS["arity3"]


class TestTileImage:
    """Tiles as views of one image, and images made from such tiles."""

    @staticmethod
    def _image(sizes):
        rects = uniform_rects(sum(sizes), UNIT, 0.04, seed=7)
        tile = ColumnarTile.from_rects(rects)
        offsets = [0]
        for size in sizes:
            offsets.append(offsets[-1] + size)
        return TileImage((tile.xlo, tile.xhi, tile.ylo, tile.yhi,
                          tile.rid), offsets), rects

    def test_tiles_are_views_that_name_their_rows(self):
        image, rects = self._image([3, 0, 5, 2])
        lo = 0
        for tile, size in zip(image.tiles, [3, 0, 5, 2]):
            assert tile.source == (image.columns, lo, lo + size)
            assert tile.decode() == rects[lo:lo + size]
            lo += size
        # A copy across a pickle boundary is a tile of its own.
        assert pickle.loads(pickle.dumps(image.tiles[2])).source is None

    @pytest.mark.parametrize("keep", ([0, 1, 2, 3], [0, 2, 3], [2], [],
                                      [1, 3], [2, 0], "foreign"))
    def test_holding_shares_or_copies_the_rows(self, keep):
        image, rects = self._image([3, 0, 5, 2])
        tiles = (
            [image.tiles[0], ColumnarTile.from_rects(rects[:2])]
            if keep == "foreign" else [image.tiles[i] for i in keep]
        )
        held = TileImage.holding(tiles)
        assert [t.decode() for t in held.tiles] == [
            t.decode() for t in tiles
        ]
        assert len(held) == sum(len(t) for t in tiles)
        # Tiles 0-3 and 0, 2, 3 cover every row in order (tile 1 is
        # empty): the columns are shared; anything else is copied.
        shared = held.columns is image.columns
        assert shared == (keep in ([0, 1, 2, 3], [0, 2, 3]))
        assert not set(map(id, held.tiles)) & set(map(id, image.tiles))


class TestSpillablePartitionColumnar:
    def test_in_memory_partition_matches_materialize(self, disk):
        part = SpillablePartition(disk, "p0")
        rects = uniform_rects(80, UNIT, 0.04, seed=2)
        for r in rects:
            part.append(r)
        assert part.materialize_columnar().decode() == part.materialize()

    def test_spilled_partition_ships_identically(self):
        # Two identical partitions under a one-rect allowance: the list
        # and columnar materializations must agree element-for-element
        # and charge the same spill re-read I/O.
        rects = uniform_rects(120, UNIT, 0.03, seed=4)
        envs, parts = [], []
        for name in ("list", "columnar"):
            env = make_env()
            from repro.storage.disk import Disk

            disk = Disk(env)
            part = SpillablePartition(
                disk, name, allowance=TileAllowance(5 * RECT_BYTES)
            )
            for r in rects:
                part.append(r)
            assert part.spilled and part.spilled_rects == 115
            envs.append(env)
            parts.append(part)
        as_list = parts[0].materialize()
        as_tile = parts[1].materialize_columnar()
        assert as_tile.decode() == as_list
        assert len(as_tile) == len(rects)
        assert envs[0].bytes_read == envs[1].bytes_read
        assert envs[0].page_reads == envs[1].page_reads


class TestBatchedSweepEquivalence:
    """Collecting the pairs instead of calling a sink changes no
    accounting."""

    def _sides(self, n_a=300, n_b=200):
        a = uniform_rects(n_a, UNIT, 0.03, seed=21)
        b = uniform_rects(n_b, UNIT, 0.04, seed=22, id_base=50_000)
        return a, b

    def test_forward_sweep_pairs_batched_matches_callback(self):
        a, b = self._sides()
        env_cb, env_batch = make_env(), make_env()
        collected = []
        stats_cb = forward_sweep_pairs(
            a, b, env_cb, on_pair=lambda ra, rb: collected.append((ra, rb))
        )
        batch, stats_batch = forward_sweep_pairs_batched(a, b, env_batch)
        assert batch == collected  # same pairs, same emit order
        assert stats_batch.pairs == stats_cb.pairs
        assert stats_batch.cpu_ops == stats_cb.cpu_ops
        assert stats_batch.max_active_items == stats_cb.max_active_items
        assert stats_batch.max_active_bytes == stats_cb.max_active_bytes
        assert env_batch.cpu_ops == env_cb.cpu_ops

    def test_self_join_inputs_match(self):
        a, _ = self._sides()
        env_cb, env_batch = make_env(), make_env()
        collected = []
        forward_sweep_pairs(
            a, a, env_cb, on_pair=lambda ra, rb: collected.append((ra, rb))
        )
        batch, _ = forward_sweep_pairs_batched(a, a, env_batch)
        assert batch == collected
        assert env_batch.cpu_ops == env_cb.cpu_ops

    def test_striped_collect_matches_callback(self):
        a, b = self._sides(250, 250)
        env_cb, env_batch = make_env(), make_env()
        make = lambda: StripedSweep(0.0, 1.0, nstrips=16)  # noqa: E731
        collected = []
        stats_cb = sweep_join(
            iter(_ylo_sorted(a)), iter(_ylo_sorted(b)), make, env_cb,
            on_pair=lambda ra, rb: collected.append((ra, rb)),
        )
        batch, stats_batch = sweep_join_batched(
            iter(_ylo_sorted(a)), iter(_ylo_sorted(b)), make, env_batch,
        )
        assert batch == collected
        assert stats_batch.cpu_ops == stats_cb.cpu_ops
        assert env_batch.cpu_ops == env_cb.cpu_ops

    def test_structure_probe_direct(self):
        # Structure-level check of the list-out probe, both structures,
        # both orientations: the pairs are the brute-force x-overlaps
        # of the live entries, every probed entry costs one op, and a
        # dead one is evicted when (and only where) a probe meets it.
        a, b = self._sides(60, 1)
        probe = b[0]._replace(ylo=0.4, yhi=0.9)
        overlap = [r for r in a if r.yhi >= 0.4
                   and r.xlo <= probe.xhi and probe.xlo <= r.xhi]
        for make in (ForwardSweep, lambda: StripedSweep(0.0, 1.0, 16)):
            for probe_is_left in (True, False):
                sweep = make()
                for r in a:
                    sweep.insert(r)
                forward = isinstance(sweep, ForwardSweep)
                lists = [sweep.items] if forward else sweep.strips
                probed = range(1) if forward else range(
                    sweep._strip_of(probe.xlo), sweep._strip_of(probe.xhi) + 1
                )
                before = [list(entries) for entries in lists]
                ops = sweep.ops
                out = []
                sweep.probe(probe, 0.4, out, probe_is_left)
                want = [(probe, r) if probe_is_left else (r, probe)
                        for r in overlap]
                assert sorted(out) == sorted(want)
                assert not forward or out == want  # insertion order
                assert sweep.ops - ops == sum(len(before[i]) for i in probed)
                assert lists == [
                    [r for r in entries if r.yhi >= 0.4] if i in probed
                    else entries
                    for i, entries in enumerate(before)
                ]
                assert sweep.size_items == sum(map(len, lists))
