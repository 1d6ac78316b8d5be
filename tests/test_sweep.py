"""Plane-sweep kernel: structures, the merge loop's three ways out,
dedup rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sweep as sweep_mod
from repro.core.brute import brute_force_pairs
from repro.core.sweep import (
    ForwardSweep,
    StripedSweep,
    forward_sweep_pairs,
    sweep_join,
    sweep_join_iter,
)
from repro.data.generator import stabbing_rects, uniform_rects
from repro.geom.rect import Rect
from repro.sim.env import null_env

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


def sorted_by_y(rects):
    return iter(sorted(rects, key=lambda r: (r.ylo, r.xlo, r.rid)))


def run_sweep(rects_a, rects_b, factory, **kw):
    env = null_env()
    pairs = []
    stats = sweep_join(
        sorted_by_y(rects_a),
        sorted_by_y(rects_b),
        factory,
        env,
        on_pair=lambda a, b: pairs.append((a.rid, b.rid)),
        **kw,
    )
    return stats, set(pairs), env


@st.composite
def rect_lists(draw, max_size=60):
    n = draw(st.integers(0, max_size))
    rects = []
    for i in range(n):
        x = draw(st.floats(0, 10, allow_nan=False))
        y = draw(st.floats(0, 10, allow_nan=False))
        w = draw(st.floats(0, 3, allow_nan=False))
        h = draw(st.floats(0, 3, allow_nan=False))
        rects.append(Rect(x, x + w, y, y + h, i))
    return rects


class TestForwardSweep:
    def test_matches_brute_force(self):
        a = uniform_rects(150, UNIT, 0.05, seed=1)
        b = uniform_rects(120, UNIT, 0.05, seed=2)
        _, pairs, _ = run_sweep(a, b, ForwardSweep)
        assert pairs == brute_force_pairs(a, b)

    def test_orientation_is_a_then_b(self):
        a = [Rect(0, 1, 0, 1, 100)]
        b = [Rect(0, 1, 0, 1, 200)]
        _, pairs, _ = run_sweep(a, b, ForwardSweep)
        assert pairs == {(100, 200)}

    def test_touching_rectangles_reported(self):
        a = [Rect(0, 1, 0, 1, 1)]
        b = [Rect(1, 2, 1, 2, 2)]  # corner touch
        _, pairs, _ = run_sweep(a, b, ForwardSweep)
        assert pairs == {(1, 2)}

    def test_expiry_evicts_dead_rects(self):
        for probe_is_left in (True, False):
            s = ForwardSweep()
            s.insert(Rect(0, 1, 0.0, 0.1, 1))
            s.insert(Rect(0, 1, 0.0, 5.0, 2))
            s.insert(Rect(2, 3, 0.0, 5.0, 4))  # live, no x-overlap
            out = []
            probe = Rect(0, 1, 1.0, 2.0, 3)
            s.probe(probe, 1.0, out, probe_is_left)
            # Rect 1 expired at sweep_y=1.0; every entry cost one op.
            assert [r.rid for r in s.items] == [2, 4]
            assert s.size_items == 2 and s.ops == 3 + 3
            assert [(x.rid, y.rid) for x, y in out] == (
                [(3, 2)] if probe_is_left else [(2, 3)]
            )

    def test_empty_inputs(self):
        stats, pairs, _ = run_sweep([], [], ForwardSweep)
        assert stats.pairs == 0 and pairs == set()

    def test_one_empty_side(self):
        a = uniform_rects(50, UNIT, 0.1, seed=3)
        stats, pairs, _ = run_sweep(a, [], ForwardSweep)
        assert pairs == set()

    def test_unsorted_input_raises(self):
        env = null_env()
        bad = iter([Rect(0, 1, 5, 6, 1), Rect(0, 1, 0, 1, 2)])
        with pytest.raises(ValueError, match="not sorted"):
            sweep_join(bad, iter([]), ForwardSweep, env)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), rect_lists())
    def test_property_equals_brute(self, a, b):
        _, pairs, _ = run_sweep(a, b, ForwardSweep)
        assert pairs == brute_force_pairs(a, b)


class TestStripedSweep:
    def _factory(self, nstrips=16):
        return lambda: StripedSweep(0.0, 1.0, nstrips)

    def test_matches_brute_force(self):
        a = uniform_rects(150, UNIT, 0.05, seed=4)
        b = uniform_rects(120, UNIT, 0.05, seed=5)
        _, pairs, _ = run_sweep(a, b, self._factory())
        assert pairs == brute_force_pairs(a, b)

    def test_matches_forward_sweep_exactly(self):
        a = uniform_rects(200, UNIT, 0.08, seed=6)
        b = uniform_rects(200, UNIT, 0.08, seed=7)
        _, striped, _ = run_sweep(a, b, self._factory())
        _, forward, _ = run_sweep(a, b, ForwardSweep)
        assert striped == forward

    def test_wide_rects_spanning_all_strips_not_duplicated(self):
        a = [Rect(0.0, 1.0, 0.0, 1.0, 1)]  # spans every strip
        b = [Rect(0.0, 1.0, 0.5, 0.6, 2)]
        env = null_env()
        pairs = []
        sweep_join(
            sorted_by_y(a), sorted_by_y(b), self._factory(8), env,
            on_pair=lambda x, y: pairs.append((x.rid, y.rid)),
        )
        assert pairs == [(1, 2)]  # exactly once despite 8 shared strips

    def test_single_strip_degenerates_to_forward(self):
        a = uniform_rects(80, UNIT, 0.1, seed=8)
        b = uniform_rects(80, UNIT, 0.1, seed=9)
        _, one_strip, _ = run_sweep(a, b, self._factory(1))
        assert one_strip == brute_force_pairs(a, b)

    def test_degenerate_universe(self):
        s = StripedSweep(5.0, 5.0, 16)  # zero-width universe
        assert s.nstrips == 1
        s.insert(Rect(5, 5, 0, 1, 1))
        assert s.size_items == 1

    def test_zero_strips_rejected(self):
        with pytest.raises(ValueError):
            StripedSweep(0.0, 1.0, 0)

    def test_striped_does_fewer_ops_on_spread_data(self):
        # The [4] claim behind the ablation: strips localize probes.
        a = uniform_rects(2000, UNIT, 0.002, seed=10)
        b = uniform_rects(2000, UNIT, 0.002, seed=11)
        s_stats, s_pairs, _ = run_sweep(a, b, self._factory(64))
        f_stats, f_pairs, _ = run_sweep(a, b, ForwardSweep)
        assert s_pairs == f_pairs
        assert s_stats.cpu_ops < f_stats.cpu_ops / 2

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(), rect_lists(), st.integers(1, 32))
    def test_property_equals_brute(self, a, b, nstrips):
        _, pairs, _ = run_sweep(
            a, b, lambda: StripedSweep(0.0, 13.0, nstrips)
        )
        assert pairs == brute_force_pairs(a, b)


class TestDriver:
    def test_max_active_tracked(self):
        a = stabbing_rects(100, UNIT, seed=1)
        stats, _, _ = run_sweep(a, a, ForwardSweep)
        # All 200 rectangles are co-active at the midline; the live
        # high-water mark is sampled at amortized compaction points,
        # so it is within 2x of the true peak.
        assert stats.max_active_items >= 100
        assert stats.max_active_bytes == stats.max_active_items * 20

    def test_overflow_flag(self):
        a = stabbing_rects(60, UNIT, seed=2)
        stats, _, _ = run_sweep(a, a, ForwardSweep, memory_items=30)
        assert stats.overflowed

    def test_no_overflow_below_limit(self):
        a = uniform_rects(60, UNIT, 0.01, seed=3)
        stats, _, _ = run_sweep(a, a, ForwardSweep, memory_items=10_000)
        assert not stats.overflowed

    def test_cpu_charged_to_env(self):
        a = uniform_rects(100, UNIT, 0.05, seed=4)
        _, _, env = run_sweep(a, a, ForwardSweep)
        assert env.cpu_ops > 0

    def test_count_only_mode(self):
        a = uniform_rects(80, UNIT, 0.1, seed=5)
        env = null_env()
        stats = sweep_join(sorted_by_y(a), sorted_by_y(a), ForwardSweep, env)
        assert stats.pairs == len(brute_force_pairs(a, a))


class TestSweepJoinIter:
    def test_yields_same_pairs_as_callback_form(self):
        a = uniform_rects(100, UNIT, 0.06, seed=6)
        b = uniform_rects(100, UNIT, 0.06, seed=7)
        env = null_env()
        got = {
            (x.rid, y.rid)
            for x, y in sweep_join_iter(
                sorted_by_y(a), sorted_by_y(b), ForwardSweep, env
            )
        }
        assert got == brute_force_pairs(a, b)

    def test_intersections_stream_in_sweep_order(self):
        # The invariant multi-way joins rely on: pair discovery order is
        # nondecreasing in max(ylo, ylo).
        from repro.geom.rect import intersection

        a = uniform_rects(150, UNIT, 0.08, seed=8)
        b = uniform_rects(150, UNIT, 0.08, seed=9)
        env = null_env()
        last = float("-inf")
        for x, y in sweep_join_iter(
            sorted_by_y(a), sorted_by_y(b), ForwardSweep, env
        ):
            inter = intersection(x, y)
            assert inter.ylo >= last
            last = inter.ylo


def _rects(rng, n, id_base):
    out = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        out.append(Rect(x, x + 0.1 * rng.random(), y, y + 0.4 * rng.random(),
                        id_base + i))
    return out


def _three_ways(a, b, make, memory_items):
    """The merge loop over one input, handing its pairs out by callback,
    kept in a list, and streamed: ``(pairs, stats, env cpu ops)`` per
    way (the stream reports no stats)."""
    env_cb, env_kept, env_stream = null_env(), null_env(), null_env()
    called = []
    stats_cb = sweep_join(
        sorted_by_y(a), sorted_by_y(b), make, env_cb,
        on_pair=lambda ra, rb: called.append((ra, rb)),
        memory_items=memory_items,
    )
    kept, stats_kept = sweep_mod._run(sweep_mod._sweep(
        sorted_by_y(a), sorted_by_y(b), make, env_kept, sweep_mod._COLLECT,
        memory_items=memory_items,
    ))
    streamed = list(sweep_join_iter(sorted_by_y(a), sorted_by_y(b), make,
                                    env_stream))
    return (
        (called, stats_cb, env_cb.cpu_ops),
        (kept, stats_kept, env_kept.cpu_ops),
        (streamed, None, env_stream.cpu_ops),
    )


STRUCTURES = {
    "forward": ForwardSweep,
    "striped": lambda: StripedSweep(0.0, 1.1, 8),
}


class TestDeliveryParity:
    """One merge loop, three ways out: same pairs, same accounting."""

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    @pytest.mark.parametrize("limit", (None, 16))
    def test_random_inputs_agree(self, structure, limit):
        make = STRUCTURES[structure]
        for seed in range(8):
            rng = random.Random(seed)
            a = _rects(rng, rng.randint(50, 250), 0)
            b = _rects(rng, rng.randint(50, 250), 10_000)
            callback, kept, stream = _three_ways(a, b, make, limit)
            assert kept[0] == callback[0] == stream[0]  # order included
            assert kept[1] == callback[1]
            assert kept[2] == callback[2] == callback[1].cpu_ops
            assert callback[1].pairs == len(callback[0])
            assert callback[1].overflowed == (limit is not None)

    # The accounting of this input before the three loops became one:
    # (pairs, cpu ops, max active items, overflowed) of the callback
    # form without and with a limit of 48, and the streamed charge.  An
    # extra or a missing compaction moves the ops.
    PINNED = {
        "forward": ((2819, 32151, 131, False), (2819, 32103, 99, True),
                    31955),
        "striped": ((2819, 8329, 127, False), (2819, 8503, 175, True),
                    8138),
    }

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_fixed_input_accounting_is_pinned(self, structure):
        rng = random.Random(29)
        a = _rects(rng, 300, 0)
        b = _rects(rng, 300, 10_000)
        unlimited, limited, stream_ops = self.PINNED[structure]
        for limit, want in ((None, unlimited), (48, limited)):
            callback, kept, stream = _three_ways(
                a, b, STRUCTURES[structure], limit
            )
            for stats in (callback[1], kept[1]):
                assert (stats.pairs, stats.cpu_ops, stats.max_active_items,
                        stats.overflowed) == want
            # The stream never compacts, whatever the limit.
            assert stream[2] == stream_ops
            assert kept[0] == callback[0] == stream[0]


class TestForwardSweepPairs:
    def test_unsorted_inputs_handled(self):
        a = uniform_rects(60, UNIT, 0.1, seed=10)
        b = uniform_rects(60, UNIT, 0.1, seed=11)
        env = null_env()
        pairs = []
        forward_sweep_pairs(
            reversed(a), b, env,
            on_pair=lambda x, y: pairs.append((x.rid, y.rid)),
        )
        assert set(pairs) == brute_force_pairs(a, b)

    def test_presorted_skips_sort_charge(self):
        a = sorted(uniform_rects(60, UNIT, 0.1, seed=12),
                   key=lambda r: (r.ylo, r.xlo))
        env = null_env()
        before = env.cpu_ops
        forward_sweep_pairs(a, a, env, presorted=True)
        # only sweep ops, no sort charge category
        assert env.cpu_ops > before
