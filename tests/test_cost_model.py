"""Cost model: the ~60% crossover and the strategy estimates (§6.3)."""

import pytest

from repro.core.cost_model import CostModel, JoinCostEstimate
from repro.sim.machines import MACHINE_1, MACHINE_2, MACHINE_3
from repro.sim.scale import DEFAULT_SCALE, PAPER_SCALE


class TestPrimitives:
    def test_random_to_sequential_ratio_about_10_on_machine_1(self):
        # Section 6.3 assumes "a random read takes on average 10 times
        # as much time as a sequential read" — that is Machine 1's disk
        # at 8 KB pages (8 ms positioning vs 0.8 ms transfer).
        model = CostModel(MACHINE_1, PAPER_SCALE)
        assert 8.0 <= model.random_to_sequential_ratio <= 15.0

    def test_modern_disk_ratio_much_higher(self):
        # The Cheetah transfers 8 KB in ~0.2 ms against 7.7 ms
        # positioning: the index path is relatively *more* expensive on
        # newer disks, strengthening the paper's conclusion.
        model = CostModel(MACHINE_3, PAPER_SCALE)
        assert model.random_to_sequential_ratio > 25.0

    def test_ratio_preserved_under_scaling(self):
        for machine in (MACHINE_1, MACHINE_2, MACHINE_3):
            paper = CostModel(machine, PAPER_SCALE).random_to_sequential_ratio
            scaled = CostModel(
                machine, DEFAULT_SCALE
            ).random_to_sequential_ratio
            assert scaled == pytest.approx(paper, rel=0.01)

    def test_crossover_near_60_percent_on_machine_1(self):
        # 6n sequential vs r*f*n random with r ~ 10 -> f* ~ 0.6.
        model = CostModel(MACHINE_1, PAPER_SCALE)
        assert 0.45 <= model.crossover_fraction() <= 0.75

    def test_crossover_never_above_one(self):
        for machine in (MACHINE_1, MACHINE_2, MACHINE_3):
            model = CostModel(machine, DEFAULT_SCALE)
            assert 0.0 < model.crossover_fraction() <= 1.0


class TestEstimates:
    def _model(self):
        return CostModel(MACHINE_3, DEFAULT_SCALE)

    def test_sssj_scales_linearly_with_bytes(self):
        m = self._model()
        one = m.estimate_sssj(1_000_000, 0)
        two = m.estimate_sssj(2_000_000, 0)
        assert two.io_seconds == pytest.approx(2 * one.io_seconds)

    def test_pq_indexed_scales_with_fraction(self):
        m = self._model()
        full = m.estimate_pq_indexed(1000, 100, 1.0, 1.0)
        half = m.estimate_pq_indexed(1000, 100, 0.5, 0.5)
        assert half.io_seconds == pytest.approx(full.io_seconds / 2)

    def test_index_wins_below_crossover_loses_above(self):
        """The paper's decision rule, end-to-end: compare PQ(index) with
        SSSJ while sweeping the participating fraction."""
        m = self._model()
        pages = 5000
        data_bytes = pages * DEFAULT_SCALE.index_page_bytes
        sssj = m.estimate_sssj(data_bytes // 2, data_bytes // 2)
        f_star = m.crossover_fraction()
        below = m.estimate_pq_indexed(pages // 2, pages // 2,
                                      f_star * 0.5, f_star * 0.5)
        above = m.estimate_pq_indexed(pages // 2, pages // 2,
                                      min(1.0, f_star * 1.5),
                                      min(1.0, f_star * 1.5))
        assert below.io_seconds < sssj.io_seconds
        assert above.io_seconds > sssj.io_seconds

    def test_mixed_estimate_between_parts(self):
        m = self._model()
        mixed = m.estimate_pq_mixed(1000, 0.5, 1_000_000)
        index_only = m.estimate_pq_indexed(1000, 0, 0.5, 0)
        sort_only = m.estimate_sssj(1_000_000, 0)
        assert mixed.io_seconds == pytest.approx(
            index_only.io_seconds + sort_only.io_seconds
        )

    def test_st_estimate_positive_and_below_pq_random(self):
        # ST rides the sequential layout, so its default estimate sits
        # below pricing every page at random cost.
        m = self._model()
        st = m.estimate_st(1000, 1000)
        pq = m.estimate_pq_indexed(1000, 1000)
        assert 0 < st.io_seconds < pq.io_seconds

    def test_estimates_ordered_by_lt(self):
        a = JoinCostEstimate(1.0, "x")
        b = JoinCostEstimate(2.0, "y")
        assert a < b
        assert min([b, a]).io_seconds == 1.0

    def test_machine_sensitivity(self):
        # The same workload is cheaper on the Cheetah than the Medalist.
        w = (10_000_000, 10_000_000)
        slow = CostModel(MACHINE_2, DEFAULT_SCALE).estimate_sssj(*w)
        fast = CostModel(MACHINE_3, DEFAULT_SCALE).estimate_sssj(*w)
        assert fast.io_seconds < slow.io_seconds
