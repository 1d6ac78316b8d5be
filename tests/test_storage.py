"""Storage substrate: disk extents, page store, streams, buffer pool."""

import pytest

from repro.geom.rect import RECT_BYTES, Rect
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.stream import Stream

from tests.conftest import TEST_SCALE


def r(i: int) -> Rect:
    return Rect(float(i), float(i + 1), float(i), float(i + 1), i)


class TestDisk:
    def test_allocation_is_append_only(self, disk):
        a = disk.allocate(100)
        b = disk.allocate(50)
        assert a == 0 and b == 100
        assert disk.allocated_bytes == 150

    def test_zero_allocation_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.allocate(0)

    def test_write_read_roundtrip(self, disk, env):
        off = disk.allocate(64)
        disk.write(off, 64, "payload")
        assert disk.read(off) == "payload"
        assert env.page_reads == 1 and env.page_writes == 1

    def test_read_unwritten_raises(self, disk):
        disk.allocate(64)
        with pytest.raises(KeyError):
            disk.read(0)

    def test_write_outside_extent_raises(self, disk):
        with pytest.raises(ValueError):
            disk.write(0, 10, "x")

    def test_silent_read_charges_nothing(self, disk, env):
        off = disk.allocate(8)
        disk.write(off, 8, "x")
        before = env.page_reads
        assert disk.read_silent(off) == "x"
        assert env.page_reads == before

    def test_free_then_read_raises(self, disk):
        off = disk.allocate(8)
        disk.write(off, 8, "x")
        disk.free(off)
        with pytest.raises(KeyError):
            disk.read(off)

    def test_none_payload_roundtrip(self, disk):
        # None is a legitimate payload and must not look like "missing".
        off = disk.allocate(8)
        disk.write(off, 8, None)
        assert disk.read(off) is None


class TestPageStore:
    def test_fixed_size_offsets(self, store):
        ids = store.allocate_many(3)
        assert ids == [0, 1, 2]
        assert [store.offset_of(i) for i in ids] == [0, 256, 512]
        assert store.total_bytes == 3 * 256

    def test_write_read(self, store):
        pid = store.allocate()
        store.write(pid, {"k": 1})
        assert store.read(pid) == {"k": 1}

    def test_unallocated_page_raises(self, store):
        with pytest.raises(KeyError):
            store.offset_of(99)

    def test_invalid_page_size(self, disk):
        with pytest.raises(ValueError):
            PageStore(disk, 0)

    def test_interleaved_with_other_disk_users(self, disk):
        store = PageStore(disk, 256)
        p0 = store.allocate()
        disk.allocate(1000)  # someone else grabs space
        p1 = store.allocate()
        assert store.offset_of(p1) == store.offset_of(p0) + 256 + 1000


class TestStream:
    def test_append_scan_roundtrip(self, disk):
        rects = [r(i) for i in range(37)]
        s = Stream.from_rects(disk, rects)
        assert list(s.scan()) == rects
        assert len(s) == 37

    def test_block_structure(self, disk):
        cap = TEST_SCALE.stream_block_bytes // RECT_BYTES
        s = Stream.from_rects(disk, [r(i) for i in range(cap * 2 + 3)])
        assert s.num_blocks == 3

    def test_scan_before_close_raises(self, disk):
        s = Stream(disk)
        s.append(r(0))
        with pytest.raises(RuntimeError):
            list(s.scan())

    def test_append_after_close_raises(self, disk):
        s = Stream.from_rects(disk, [r(0)])
        with pytest.raises(RuntimeError):
            s.append(r(1))

    def test_close_idempotent(self, disk):
        s = Stream.from_rects(disk, [r(0)])
        assert s.close() is s

    def test_empty_stream(self, disk):
        s = Stream.from_rects(disk, [])
        assert len(s) == 0
        assert list(s.scan()) == []
        assert s.num_blocks == 0

    def test_data_bytes(self, disk):
        s = Stream.from_rects(disk, [r(i) for i in range(10)])
        assert s.data_bytes == 200

    def test_scan_charges_block_reads(self, disk, env):
        s = Stream.from_rects(disk, [r(i) for i in range(100)])
        env.reset_counters()
        list(s.scan())
        assert env.page_reads == s.num_blocks

    def test_sequential_write_pattern(self, disk, env):
        env.reset_counters()
        s = Stream.from_rects(disk, [r(i) for i in range(200)])
        obs = env.observers[0]
        # A single stream writes its blocks back-to-back: everything
        # after the first block lands sequentially.
        assert obs.writes_random == 1
        assert obs.writes_sequential == s.num_blocks - 1

    def test_interleaved_streams_write_randomly(self, disk, env):
        env.reset_counters()
        s1 = Stream(disk, name="a")
        s2 = Stream(disk, name="b")
        cap = s1.block_capacity
        for i in range(cap * 4):
            s1.append(r(i))
            s2.append(r(i))
        s1.close()
        s2.close()
        obs = env.observers[0]
        # Alternating appends interleave extents, so most block writes
        # of each stream are non-sequential.
        assert obs.writes_random > obs.writes_sequential

    def test_rescan_allowed(self, disk):
        s = Stream.from_rects(disk, [r(i) for i in range(10)])
        assert list(s.scan()) == list(s.scan())

    def test_free_releases_blocks(self, disk):
        s = Stream.from_rects(disk, [r(i) for i in range(10)])
        s.free()
        assert s.num_blocks == 0


class TestRowFedStream:
    """``append_rows`` against ``append`` of the same rectangles."""

    @pytest.fixture
    def image(self):
        pytest.importorskip("numpy")
        from repro.core.kernels.np_distribute import ColumnImage

        # Ids past 2**53 and awkward doubles: the payload is exact.
        return ColumnImage([
            Rect(i / 7, i / 7 + 1e-17, -i / 3, i / 3, 2 ** 53 + i)
            for i in range(200)
        ])

    def _rects(self, image, rows):
        return [Rect(image.xlo[i].item(), image.xhi[i].item(),
                     image.ylo[i].item(), image.yhi[i].item(),
                     image.rid[i].item()) for i in rows]

    @pytest.mark.parametrize("chunks", (
        [200], [1] * 60, [24, 1, 25, 50, 3, 97], [25, 25, 26, 0, 49, 75],
    ))
    def test_same_blocks_same_ledger_same_rectangles(self, image, chunks):
        import numpy as np

        from tests.conftest import make_env

        rows = np.random.default_rng(5).permutation(200)[:sum(chunks)]
        streams = {}
        for fed in ("rects", "rows"):
            env = make_env()
            s = Stream(Disk(env), name=fed)
            start = 0
            for n in chunks:
                part = rows[start:start + n]
                if fed == "rows":
                    s.append_rows(image, part)
                else:
                    s.extend(self._rects(image, part.tolist()))
                start += n
                assert len(s) == start
            s.close()
            streams[fed] = (s, env.snapshots())
        by_rect, by_row = streams["rects"][0], streams["rows"][0]
        # Every write and extent, priced by three machines: one ledger.
        assert streams["rows"][1] == streams["rects"][1]
        assert by_row.row_fed and not by_rect.row_fed
        assert by_row._block_offsets == by_rect._block_offsets
        assert by_row._block_lengths == by_rect._block_lengths
        assert by_row.data_bytes == by_rect.data_bytes
        assert list(by_row.scan()) == list(by_rect.scan())
        assert list(by_row.scan_blocks()) == list(by_rect.scan_blocks())
        assert all(type(x.rid) is int and type(x.xlo) is float
                   for x in by_row.scan())
        reads = by_row.disk.env.page_reads
        assert [len(b) for b in by_row.scan_columns()] == [
            n // RECT_BYTES for n in by_rect._block_lengths
        ]
        assert by_row.disk.env.page_reads - reads == by_row.num_blocks

    def test_one_feed_per_stream(self, disk, image):
        import numpy as np

        from repro.core.kernels.np_distribute import ColumnImage

        rows = np.arange(3)
        by_rect = Stream(disk)
        # A flushed-empty buffer is still a rectangle stream.
        by_rect.extend(r(i) for i in range(by_rect.block_capacity))
        with pytest.raises(RuntimeError):
            by_rect.append_rows(image, rows)
        by_row = Stream(disk)
        by_row.append_rows(image, rows)
        with pytest.raises(RuntimeError):
            by_row.append(r(0))
        with pytest.raises(RuntimeError):
            by_row.append_rows(ColumnImage([r(0), r(1), r(2)]), rows)
        by_row.close()
        with pytest.raises(RuntimeError):
            by_row.append_rows(image, rows)
        with pytest.raises(RuntimeError):
            by_rect.close().scan_columns().__next__()


class TestBufferPool:
    def _store_with_pages(self, store, n):
        for i in range(n):
            pid = store.allocate()
            store.write(pid, f"page-{i}")
        return store

    def test_hit_avoids_disk(self, store, env):
        self._store_with_pages(store, 4)
        pool = BufferPool(store, capacity_pages=4)
        env.reset_counters()
        pool.request(0)
        pool.request(0)
        assert pool.hits == 1 and pool.misses == 1
        assert env.page_reads == 1

    def test_lru_eviction_order(self, store):
        self._store_with_pages(store, 4)
        pool = BufferPool(store, capacity_pages=2)
        pool.request(0)
        pool.request(1)
        pool.request(0)      # 0 becomes most recent
        pool.request(2)      # evicts 1
        assert pool.contains(0) and pool.contains(2)
        assert not pool.contains(1)
        assert pool.evictions == 1

    def test_capacity_respected(self, store):
        self._store_with_pages(store, 10)
        pool = BufferPool(store, capacity_pages=3)
        for i in range(10):
            pool.request(i)
        assert pool.resident_pages == 3

    def test_zero_capacity_rejected(self, store):
        with pytest.raises(ValueError):
            BufferPool(store, 0)

    def test_hit_rate(self, store):
        self._store_with_pages(store, 2)
        pool = BufferPool(store, capacity_pages=2)
        pool.request(0)
        pool.request(0)
        pool.request(0)
        pool.request(1)
        assert pool.hit_rate == pytest.approx(0.5)

    def test_everything_fits_reads_each_page_once(self, store, env):
        # The Table 4 small-dataset regime: pool >= index, so disk reads
        # equal distinct pages no matter the request pattern.
        self._store_with_pages(store, 5)
        pool = BufferPool(store, capacity_pages=8)
        env.reset_counters()
        for _ in range(3):
            for i in range(5):
                pool.request(i)
        assert env.page_reads == 5
        assert pool.misses == 5

    def test_clear(self, store):
        self._store_with_pages(store, 2)
        pool = BufferPool(store, capacity_pages=2)
        pool.request(0)
        pool.clear()
        assert pool.resident_pages == 0

    def test_clear_keeps_counters(self, store):
        self._store_with_pages(store, 2)
        pool = BufferPool(store, capacity_pages=2)
        pool.request(0)
        pool.request(0)
        pool.clear()
        assert pool.requests == 2 and pool.hits == 1 and pool.misses == 1
