"""Spatial histograms: construction, selectivity, leaf fractions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.brute import brute_force_pairs
from repro.core.histogram import SpatialHistogram
from repro.data.generator import clustered_rects, uniform_rects
from repro.geom.rect import Rect

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)


class TestConstruction:
    def test_counts_and_total(self):
        rects = uniform_rects(200, UNIT, 0.02, seed=1)
        h = SpatialHistogram.build(rects, UNIT, grid=8)
        assert h.total == 200
        assert sum(h.counts) == 200

    def test_out_of_universe_rects_clamped(self):
        h = SpatialHistogram(UNIT, grid=4)
        h.add(Rect(5.0, 6.0, 5.0, 6.0, 1))  # far outside
        assert h.total == 1
        assert h.counts[-1] == 1  # clamped to the last cell

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            SpatialHistogram(UNIT, grid=0)

    def test_occupied_cells(self):
        h = SpatialHistogram(UNIT, grid=4)
        h.add(Rect(0.1, 0.1, 0.1, 0.1, 1))
        h.add(Rect(0.12, 0.12, 0.12, 0.12, 2))
        h.add(Rect(0.9, 0.9, 0.9, 0.9, 3))
        assert h.occupied_cells() == 2


class TestJoinEstimate:
    def test_estimate_within_factor_of_truth_uniform(self):
        a = uniform_rects(400, UNIT, 0.03, seed=2)
        b = uniform_rects(300, UNIT, 0.03, seed=3)
        ha = SpatialHistogram.build(a, UNIT, grid=16)
        hb = SpatialHistogram.build(b, UNIT, grid=16)
        est = ha.estimate_join_pairs(hb)
        truth = len(brute_force_pairs(a, b))
        assert truth / 4 <= est <= truth * 4

    def test_estimate_zero_for_disjoint_regions(self):
        a = uniform_rects(100, Rect(0.0, 0.4, 0.0, 0.4, 0), 0.01, seed=4)
        b = uniform_rects(100, Rect(0.6, 1.0, 0.6, 1.0, 0), 0.01, seed=5)
        ha = SpatialHistogram.build(a, UNIT, grid=16)
        hb = SpatialHistogram.build(b, UNIT, grid=16)
        assert ha.estimate_join_pairs(hb) == 0.0

    def test_incompatible_histograms_rejected(self):
        ha = SpatialHistogram(UNIT, grid=8)
        hb = SpatialHistogram(UNIT, grid=16)
        with pytest.raises(ValueError):
            ha.estimate_join_pairs(hb)

    def test_estimate_symmetric(self):
        a = clustered_rects(200, UNIT, 0.02, seed=6)
        b = clustered_rects(150, UNIT, 0.02, seed=7)
        ha = SpatialHistogram.build(a, UNIT, grid=8)
        hb = SpatialHistogram.build(b, UNIT, grid=8)
        assert ha.estimate_join_pairs(hb) == pytest.approx(
            hb.estimate_join_pairs(ha)
        )

    def test_estimate_scales_with_density(self):
        a1 = uniform_rects(100, UNIT, 0.03, seed=8)
        a2 = uniform_rects(400, UNIT, 0.03, seed=8)
        b = uniform_rects(100, UNIT, 0.03, seed=9)
        hb = SpatialHistogram.build(b, UNIT, grid=8)
        est1 = SpatialHistogram.build(a1, UNIT, grid=8).estimate_join_pairs(hb)
        est2 = SpatialHistogram.build(a2, UNIT, grid=8).estimate_join_pairs(hb)
        assert est2 > est1


class TestLeafFraction:
    def test_none_window_is_everything(self):
        h = SpatialHistogram.build(
            uniform_rects(50, UNIT, 0.02, seed=10), UNIT
        )
        assert h.leaf_fraction(None) == 1.0

    def test_empty_histogram(self):
        h = SpatialHistogram(UNIT)
        assert h.leaf_fraction(UNIT) == 0.0

    def test_full_window_is_one(self):
        h = SpatialHistogram.build(
            uniform_rects(200, UNIT, 0.02, seed=11), UNIT, grid=8
        )
        assert h.leaf_fraction(UNIT) == pytest.approx(1.0)

    def test_disjoint_window_is_zero(self):
        h = SpatialHistogram.build(
            uniform_rects(200, UNIT, 0.02, seed=12), UNIT, grid=8
        )
        assert h.leaf_fraction(Rect(5, 6, 5, 6, 0)) == 0.0

    def test_half_window_about_half_for_uniform_data(self):
        h = SpatialHistogram.build(
            uniform_rects(2000, UNIT, 0.01, seed=13), UNIT, grid=32
        )
        frac = h.leaf_fraction(Rect(0.0, 0.5, 0.0, 1.0, 0))
        assert 0.35 <= frac <= 0.65

    def test_localized_data_fraction_tracks_mass(self):
        # 90% of the data in the left quarter: a window over the left
        # quarter should report ~0.9.
        left = uniform_rects(900, Rect(0.0, 0.25, 0.0, 1.0, 0), 0.01,
                             seed=14)
        right = uniform_rects(100, Rect(0.25, 1.0, 0.0, 1.0, 0), 0.01,
                              seed=15, id_base=1000)
        h = SpatialHistogram.build(left + right, UNIT, grid=32)
        frac = h.leaf_fraction(Rect(0.0, 0.25, 0.0, 1.0, 0))
        assert 0.8 <= frac <= 1.0

    def test_monotone_in_window_size(self):
        h = SpatialHistogram.build(
            clustered_rects(500, UNIT, 0.02, seed=16), UNIT, grid=16
        )
        small = h.leaf_fraction(Rect(0.4, 0.6, 0.4, 0.6, 0))
        large = h.leaf_fraction(Rect(0.2, 0.8, 0.2, 0.8, 0))
        assert small <= large


def _leaf_fraction_by_cell(h: SpatialHistogram, window: Rect) -> float:
    """The per-cell loop ``leaf_fraction`` replaced, as the reference."""
    if h.total == 0:
        return 0.0
    inside = 0
    g = h.grid
    for row in range(g):
        cell_ylo = h.universe.ylo + row * h.cell_h
        cell_yhi = cell_ylo + h.cell_h
        if cell_yhi < window.ylo or cell_ylo > window.yhi:
            continue
        for col in range(g):
            cell_xlo = h.universe.xlo + col * h.cell_w
            cell_xhi = cell_xlo + h.cell_w
            if cell_xhi < window.xlo or cell_xlo > window.xhi:
                continue
            inside += h.counts[row * g + col]
    return inside / h.total


class TestLeafFractionMatchesTheCellLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        span=st.tuples(st.sampled_from([0.0, 1.0, 0.3, 7.7, 1e-9]),
                       st.sampled_from([0.0, 1.0, 0.1, 13.0])),
        grid=st.sampled_from([1, 2, 3, 7, 32]),
        n=st.integers(0, 60),
        seed=st.integers(0, 10_000),
        # Each window corner: a cell edge exactly, one ulp-ish off it,
        # or anywhere (outside the universe included).
        corners=st.lists(
            st.tuples(st.sampled_from(["edge", "near", "free"]),
                      st.integers(-1, 33), st.floats(-0.2, 1.2)),
            min_size=4, max_size=4,
        ),
    )
    def test_any_window(self, lo, span, grid, n, seed, corners):
        universe = Rect(lo[0], lo[0] + span[0], lo[1], lo[1] + span[1], 0)
        rng = random.Random(seed)
        h = SpatialHistogram(universe, grid)
        for i in range(n):
            x = lo[0] + span[0] * rng.uniform(-0.1, 1.1)
            y = lo[1] + span[1] * rng.uniform(-0.1, 1.1)
            h.add(Rect(x, x + rng.random() * h.cell_w,
                       y, y + rng.random() * h.cell_h, i))

        def coordinate(kind, cell, frac, origin, size, extent):
            edge = origin + min(cell, grid) * size
            if kind == "edge":
                # Either expression a cell's edge is computed by.
                return edge if cell % 2 else (edge - size) + size
            if kind == "near":
                return edge * (1 + (frac - 0.5) * 1e-15)
            return origin + frac * (extent or 1.0)

        xs = sorted(coordinate(*c, lo[0], h.cell_w, span[0])
                    for c in corners[:2])
        ys = sorted(coordinate(*c, lo[1], h.cell_h, span[1])
                    for c in corners[2:])
        window = Rect(xs[0], xs[1], ys[0], ys[1], 0)
        assert h.leaf_fraction(window) == _leaf_fraction_by_cell(h, window)
        # Inverted on an axis: whatever the loop made of it.
        flipped = Rect(xs[1], xs[0], ys[0], ys[1], 0)
        assert h.leaf_fraction(flipped) == _leaf_fraction_by_cell(h, flipped)

    def test_add_invalidates_the_table(self):
        h = SpatialHistogram(UNIT, grid=4)
        h.add(Rect(0.1, 0.1, 0.1, 0.1, 1))
        left = Rect(0.0, 0.4, 0.0, 1.0, 0)
        assert h.leaf_fraction(left) == 1.0
        h.add(Rect(0.9, 0.9, 0.9, 0.9, 2))
        assert h.leaf_fraction(left) == 0.5 == _leaf_fraction_by_cell(h, left)
