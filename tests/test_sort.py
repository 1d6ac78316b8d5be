"""External mergesort: correctness, pass structure, CPU accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geom.rect import Rect
from repro.sim.env import SimEnv
from repro.storage.disk import Disk
from repro.storage.sort import external_sort, sort_stream_by_ylo
from repro.storage.stream import Stream

from tests.conftest import TEST_SCALE, make_env


def rect_with_y(y: float, i: int) -> Rect:
    return Rect(float(i), float(i + 1), y, y + 1.0, i)


def shuffled_stream(disk, n, seed=0):
    rng = random.Random(seed)
    ys = [rng.uniform(0, 100) for _ in range(n)]
    return Stream.from_rects(
        disk, [rect_with_y(y, i) for i, y in enumerate(ys)]
    )


class TestCorrectness:
    def test_sorts_by_ylo(self, disk):
        s = shuffled_stream(disk, 500)
        out = sort_stream_by_ylo(s, disk)
        ys = [r.ylo for r in out.scan()]
        assert ys == sorted(ys)
        assert len(out) == 500

    def test_preserves_multiset(self, disk):
        s = shuffled_stream(disk, 300, seed=3)
        out = sort_stream_by_ylo(s, disk)
        assert sorted(s.scan()) == sorted(out.scan())

    def test_in_memory_case_single_run(self, disk):
        # Fewer records than the memory budget: degenerate single run.
        s = shuffled_stream(disk, 50)
        out = external_sort(s, disk, key=lambda r: (r.ylo,),
                            memory_rects=100)
        ys = [r.ylo for r in out.scan()]
        assert ys == sorted(ys)

    def test_empty_input(self, disk):
        s = Stream.from_rects(disk, [])
        out = sort_stream_by_ylo(s, disk)
        assert list(out.scan()) == []

    def test_single_element(self, disk):
        s = Stream.from_rects(disk, [rect_with_y(5.0, 1)])
        out = sort_stream_by_ylo(s, disk)
        assert len(out) == 1

    def test_custom_key(self, disk):
        s = shuffled_stream(disk, 120, seed=9)
        out = external_sort(s, disk, key=lambda r: (-r.xlo,),
                            memory_rects=16)
        xs = [r.xlo for r in out.scan()]
        assert xs == sorted(xs, reverse=True)

    def test_duplicate_keys_stable_multiset(self, disk):
        rects = [rect_with_y(1.0, i) for i in range(100)]
        s = Stream.from_rects(disk, rects)
        out = external_sort(s, disk, key=lambda r: (r.ylo,),
                            memory_rects=16)
        assert sorted(out.scan()) == sorted(rects)

    def test_tiny_memory_rejected(self, disk):
        s = shuffled_stream(disk, 10)
        with pytest.raises(ValueError):
            external_sort(s, disk, key=lambda r: (r.ylo,), memory_rects=1)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=200),
           st.integers(2, 40))
    def test_property_matches_builtin_sorted(self, ys, mem):
        env = make_env()
        disk = Disk(env)
        s = Stream.from_rects(
            disk, [rect_with_y(y, i) for i, y in enumerate(ys)]
        )
        out = external_sort(s, disk, key=lambda r: (r.ylo, r.rid),
                            memory_rects=mem)
        got = [r.ylo for r in out.scan()]
        assert got == sorted(ys)


class TestPassStructure:
    def test_multirun_sort_io_passes(self):
        """The paper's accounting: run formation reads the input once and
        writes runs once; the merge reads runs once and writes output
        once — 2 reads + 2 writes of the data in blocks."""
        env = make_env()
        disk = Disk(env)
        s = shuffled_stream(disk, 600)  # memory is 204 rects -> 3 runs
        env.reset_counters()
        out = external_sort(s, disk, key=lambda r: (r.ylo,))
        nblocks = s.num_blocks
        assert env.page_reads == pytest.approx(2 * nblocks, abs=4)
        assert env.page_writes == pytest.approx(2 * nblocks, abs=4)
        assert len(out) == 600

    def test_in_memory_sort_is_one_read_one_write(self):
        env = make_env()
        disk = Disk(env)
        s = shuffled_stream(disk, 100)  # fits in the 204-rect budget
        env.reset_counters()
        external_sort(s, disk, key=lambda r: (r.ylo,))
        assert env.page_reads == s.num_blocks
        assert env.page_writes == pytest.approx(s.num_blocks, abs=1)

    def test_sort_charges_nlogn_cpu(self):
        env = make_env()
        disk = Disk(env)
        s = shuffled_stream(disk, 400)
        env.reset_counters()
        external_sort(s, disk, key=lambda r: (r.ylo,))
        sort_ops = env.observers[0].cpu_ops.get("sort", 0)
        assert sort_ops > 400  # at least n log n-ish work was charged
