"""TIGER-like data: determinism, statistical properties, Table 2 shape."""

import math

import numpy as np
import pytest

from repro.data.datasets import (
    DATASET_ORDER,
    DATASET_SPECS,
    build_dataset,
    clear_cache,
)
from repro.data.generator import (
    clustered_rects,
    grid_rects,
    stabbing_rects,
    uniform_rects,
)
from repro.data.tiger import make_hydro, make_landuse, make_roads
from repro.geom.rect import Rect, contains
from repro.rtree.bulk_load import bulk_load
from repro.rtree.node import node_capacity
from repro.sim.env import SimEnv
from repro.sim.scale import DEFAULT_SCALE, QUICK_SCALE, ScaleConfig
from repro.storage.disk import Disk
from repro.storage.pages import PageStore

NJ = DATASET_SPECS["NJ"].region


def sweep_cut_sizes(rects, n_lines=50):
    """Number of rectangles cut by each of ``n_lines`` horizontal lines."""
    ys = np.linspace(
        min(r.ylo for r in rects), max(r.yhi for r in rects), n_lines
    )
    return [sum(1 for r in rects if r.ylo <= y <= r.yhi) for y in ys]


class TestGenerators:
    def test_roads_inside_region(self):
        roads = make_roads(500, NJ, seed=1)
        assert len(roads) == 500
        assert all(contains(NJ, r) for r in roads)

    def test_hydro_inside_region(self):
        hydro = make_hydro(120, NJ, seed=2)
        assert len(hydro) == 120
        assert all(contains(NJ, r) for r in hydro)

    def test_landuse_inside_region(self):
        lu = make_landuse(60, NJ, seed=3)
        assert len(lu) == 60
        assert all(contains(NJ, r) for r in lu)

    def test_deterministic_by_seed(self):
        assert make_roads(200, NJ, seed=7) == make_roads(200, NJ, seed=7)
        assert make_roads(200, NJ, seed=7) != make_roads(200, NJ, seed=8)

    def test_ids_sequential_from_base(self):
        roads = make_roads(50, NJ, seed=4, id_base=1000)
        assert [r.rid for r in roads] == list(range(1000, 1050))

    def test_coordinates_float32_exact(self):
        # The invariant the 20-byte record format relies on.
        for r in make_roads(300, NJ, seed=5) + make_hydro(100, NJ, seed=6):
            for c in (r.xlo, r.xhi, r.ylo, r.yhi):
                assert float(np.float32(c)) == c

    def test_all_rects_valid(self):
        for r in make_roads(300, NJ, seed=9) + make_hydro(100, NJ, seed=10):
            assert r.is_valid()

    def test_roads_are_small(self):
        roads = make_roads(1000, NJ, seed=11)
        region_area = (NJ.xhi - NJ.xlo) * (NJ.yhi - NJ.ylo)
        avg_area = np.mean([(r.width) * (r.height) for r in roads])
        assert avg_area < region_area / 10_000

    def test_zero_count(self):
        assert make_roads(0, NJ) == []
        assert make_hydro(0, NJ) == []
        assert make_landuse(0, NJ) == []

    def test_square_root_rule(self):
        """Gueting & Schilling's observation (cited in Section 2): a
        sweep-line cuts O(sqrt(N)) rectangles.  Check the max cut stays
        within a constant factor of sqrt(N) as N grows 16x."""
        for n in (1000, 4000, 16000):
            roads = make_roads(n, NJ, seed=12)
            max_cut = max(sweep_cut_sizes(roads))
            assert max_cut <= 6 * np.sqrt(n), (n, max_cut)

    def test_selectivity_scale_invariant(self):
        """Output/roads ratio stays in the same band across scales —
        the property that makes the scaled reproduction meaningful."""
        from repro.core.brute import brute_force_pairs

        ratios = []
        for n_roads, n_hydro in ((800, 160), (3200, 640)):
            roads = make_roads(n_roads, NJ, seed=13, layout_seed=13)
            hydro = make_hydro(n_hydro, NJ, seed=14, layout_seed=13)
            ratios.append(len(brute_force_pairs(roads, hydro)) / n_roads)
        assert 0.15 <= ratios[0] <= 1.2
        assert 0.15 <= ratios[1] <= 1.2
        assert 0.3 <= ratios[1] / ratios[0] <= 3.0

    def test_generic_generators_shapes(self):
        u = Rect(0, 1, 0, 1, 0)
        assert len(uniform_rects(10, u, 0.1)) == 10
        assert len(clustered_rects(10, u, 0.1)) == 10
        assert len(stabbing_rects(10, u)) == 10
        assert len(grid_rects(4, u)) == 16

    def test_stabbing_rects_all_cut_midline(self):
        u = Rect(0, 1, 0, 1, 0)
        for r in stabbing_rects(50, u, seed=1):
            assert r.ylo <= 0.5 <= r.yhi

    def test_grid_rects_disjoint(self):
        from repro.core.brute import brute_force_pairs

        g = grid_rects(5, Rect(0, 1, 0, 1, 0), fill=0.9)
        pairs = brute_force_pairs(g, g)
        assert pairs == {(r.rid, r.rid) for r in g}


class TestNamedDatasets:
    def test_all_specs_present_in_order(self):
        assert set(DATASET_ORDER) == set(DATASET_SPECS)
        assert DATASET_ORDER[0] == "NJ" and DATASET_ORDER[-1] == "DISK1-6"

    def test_paper_cardinalities_recorded(self):
        assert DATASET_SPECS["NJ"].paper_roads == 414_442
        assert DATASET_SPECS["DISK1-6"].paper_hydro == 7_413_353
        assert DATASET_SPECS["NY"].paper_output == 421_110

    def test_scaled_counts(self):
        ds = build_dataset("NJ", QUICK_SCALE)
        assert len(ds.roads) == QUICK_SCALE.scaled_count(414_442)
        assert len(ds.hydro) == QUICK_SCALE.scaled_count(50_853)

    def test_cardinality_ordering_preserved(self):
        sizes = [
            len(build_dataset(name, QUICK_SCALE).roads)
            for name in DATASET_ORDER
        ]
        assert sizes == sorted(sizes)

    def test_roads_to_hydro_ratio_matches_paper(self):
        for name in ("NY", "DISK1-6"):
            spec = DATASET_SPECS[name]
            ds = build_dataset(name, QUICK_SCALE)
            paper_ratio = spec.paper_roads / spec.paper_hydro
            got_ratio = len(ds.roads) / len(ds.hydro)
            assert got_ratio == pytest.approx(paper_ratio, rel=0.1)

    def test_memoization(self):
        a = build_dataset("NJ", QUICK_SCALE)
        b = build_dataset("NJ", QUICK_SCALE)
        assert a is b
        clear_cache()
        c = build_dataset("NJ", QUICK_SCALE)
        assert c is not a
        assert c.roads == a.roads  # still deterministic

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            build_dataset("TX", QUICK_SCALE)

    def test_data_inside_region(self):
        ds = build_dataset("NY", QUICK_SCALE)
        assert all(contains(ds.universe, r) for r in ds.roads)
        assert all(contains(ds.universe, r) for r in ds.hydro)

    def test_byte_accounting(self):
        ds = build_dataset("NJ", QUICK_SCALE)
        assert ds.road_bytes == len(ds.roads) * 20
        assert ds.hydro_bytes == len(ds.hydro) * 20


class TestScaleRegimes:
    """The regime boundaries ``sim/scale.py`` promises, on all six
    datasets at both named rungs: the ST pool holds the NJ and NY
    indexes and not the DISK* ones, and NJ sorts in memory while the
    DISK* datasets do not."""

    @staticmethod
    def _index_pages(name, scale):
        ds = build_dataset(name, scale)
        store = PageStore(Disk(SimEnv(scale=scale)), scale.index_page_bytes)
        return sum(bulk_load(store, rects, name=rel).page_count
                   for rel, rects in (("roads", ds.roads),
                                      ("hydro", ds.hydro)))

    @pytest.mark.parametrize("scale", (DEFAULT_SCALE, QUICK_SCALE),
                             ids=("default", "quick"))
    def test_pool_and_sort_regimes(self, scale):
        pool = scale.buffer_pool_pages
        pages = {name: self._index_pages(name, scale)
                 for name in ("NJ", "NY")}
        assert pages["NJ"] <= pool
        if scale is QUICK_SCALE:
            # The one exception: QUICK_SCALE's pool lacks the 25 %
            # allowance (51 pages against 44; 55 would hold them).
            assert pages["NY"] > pool
            assert pages["NY"] <= pool * 5 // 4
        else:
            assert pages["NY"] <= pool
        cap = node_capacity(scale.index_page_bytes)
        for name in DATASET_ORDER:
            spec = DATASET_SPECS[name]
            roads = scale.scaled_count(spec.paper_roads)
            hydro = scale.scaled_count(spec.paper_hydro)
            if name == "NJ":
                assert max(roads, hydro) <= scale.memory_rects
            elif name.startswith("DISK"):
                assert roads > scale.memory_rects, name
                # A node holds at most ``cap`` entries, so even fully
                # packed leaves alone overflow the pool.
                leaves = math.ceil(roads / cap) + math.ceil(hydro / cap)
                assert leaves > pool, name
