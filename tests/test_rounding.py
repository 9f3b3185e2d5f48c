import math

import pytest
from hypothesis import given, settings, strategies as st

from bulkflow.fractional import PairSpec, RootSpec
from bulkflow.rounding import (Assignment, ThresholdDraw, choose_root,
                               draw_thresholds, scale, scaled_min_cut,
                               threshold_interval)
from helpers import build_graph
from test_fractional import make_solver, single_path_instance


class TestThresholds:
    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_interval_endpoints(self, n):
        lo, hi = threshold_interval(n)
        assert lo == pytest.approx(1 / (2 * n))
        assert hi == pytest.approx(max(lo * (1 + 1e-12), 1 / (3 * math.log2(n))))
        assert lo <= hi

    def test_n4_and_n64_intervals_are_nondegenerate(self):
        lo4, hi4 = threshold_interval(4)
        assert lo4 == pytest.approx(0.125) and hi4 == pytest.approx(1 / 6)
        lo64, hi64 = threshold_interval(64)
        assert lo64 == pytest.approx(1 / 128) and hi64 == pytest.approx(1 / 18)

    @given(st.integers(min_value=2, max_value=200),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_draws_inside_interval(self, n, seed):
        draw = draw_thresholds([0, 1, 2], n, seed)
        lo, hi = threshold_interval(n)
        assert all(lo <= t <= hi for t in draw.tau.values())

    def test_same_seed_identical(self):
        a = draw_thresholds([0, 1, 5], 16, "run:0")
        b = draw_thresholds([0, 1, 5], 16, "run:0")
        assert a.tau == b.tau

    def test_per_root_streams_unaffected_by_extra_roots(self):
        base = draw_thresholds([0, 1, 2], 16, 7)
        extended = draw_thresholds([-1, 0, 1, 2], 16, 7)
        for rid in (0, 1, 2):
            assert base.tau[rid] == extended.tau[rid]


class TestScale:
    def _solved(self):
        up, down, roots, pair = single_path_instance(n_edges=3, l=0.2)
        solver = make_solver(up, down, roots, dmax=0.3)
        solver.on_arrival(pair)
        return solver

    def test_scaling_formulas(self):
        solver = self._solved()
        draw = ThresholdDraw(tau={0: 0.2}, seed=0, lo=0.1, hi=0.3)
        scaled = solver.up.x[0][0] / 0.2
        image = scale(solver, draw)
        assert image.x_up[(0, 0)] == pytest.approx(min(1.0, scaled))
        for (rid, pi, e), v in image.f_up.items():
            assert v == pytest.approx(min(1.0, solver.up.flow[(rid, pi)][e] / 0.2))

    def test_explicit_values(self):
        solver = self._solved()
        solver.up.x[0][0] = 0.05
        draw = ThresholdDraw(tau={0: 0.2}, seed=0, lo=0.1, hi=0.3)
        image = scale(solver, draw)
        assert image.x_up[(0, 0)] == pytest.approx(0.25)
        solver.up.x[0][0] = 0.5
        assert scale(solver, draw).x_up[(0, 0)] == 1.0

    def test_z_rounding_indicator(self):
        solver = self._solved()
        solver.z[(0, 0)] = 0.25
        draw = ThresholdDraw(tau={0: 0.2}, seed=0, lo=0.1, hi=0.3)
        assert scale(solver, draw).z_rounded[(0, 0)] == 1
        draw2 = ThresholdDraw(tau={0: 0.3}, seed=0, lo=0.1, hi=0.3)
        assert scale(solver, draw2).z_rounded[(0, 0)] == 0


class TestAssign:
    def _two_root_state(self):
        up = build_graph(4, [(0, 1, 0.2, 0.1), (0, 2, 0.2, 0.1)])
        down = build_graph(4, [(1, 3, 0.2, 0.1), (2, 3, 0.2, 0.1)])
        roots = [RootSpec(1, 1, 1), RootSpec(2, 2, 2)]
        solver = make_solver(up, down, roots, dmax=0.3)
        solver.arrival_init(PairSpec(0, 0, 3))
        return solver

    def test_argmax_above_threshold_wins(self):
        solver = self._two_root_state()
        solver.z[(0, 1)] = 0.25
        solver.z[(0, 2)] = 0.10
        draw = ThresholdDraw(tau={1: 0.2, 2: 0.3}, seed=0, lo=0, hi=1)
        assert choose_root(solver, draw, 0) == (Assignment.ASSIGNED, 1)

    def test_all_below_threshold_falls_back(self):
        solver = self._two_root_state()
        solver.z[(0, 1)] = 0.01
        solver.z[(0, 2)] = 0.02
        draw = ThresholdDraw(tau={1: 0.2, 2: 0.3}, seed=0, lo=0, hi=1)
        assert choose_root(solver, draw, 0) == (Assignment.FALLBACK, None)

    def test_tie_breaks_to_smaller_root(self):
        solver = self._two_root_state()
        solver.z[(0, 1)] = 0.25
        solver.z[(0, 2)] = 0.25
        draw = ThresholdDraw(tau={1: 0.2, 2: 0.2}, seed=0, lo=0, hi=1)
        assert choose_root(solver, draw, 0) == (Assignment.ASSIGNED, 1)

    def test_assign_records_write_once(self):
        solver = self._two_root_state()
        solver.z[(0, 1)] = 0.5
        draw = ThresholdDraw(tau={1: 0.2, 2: 0.2}, seed=0, lo=0, hi=1)
        log = Assignment()
        log.record(0, *choose_root(solver, draw, 0))
        assert log.get(0) == (Assignment.ASSIGNED, 1)
        with pytest.raises(ValueError):
            log.record(0, Assignment.FALLBACK, None)


class TestDomination:
    def test_assigned_pairs_scaled_mincut_at_least_one(self):
        # over many threshold draws, every assigned pair's scaled flows
        # still route a full unit on both sides
        up, down, roots, pair = single_path_instance(n_edges=4, l=0.3)
        solver = make_solver(up, down, roots, dmax=0.25)
        solver.on_arrival(pair)
        assigned = 0
        for seed in range(60):
            draw = draw_thresholds([0], 10, seed)
            label, root = choose_root(solver, draw, 0)
            if label != Assignment.ASSIGNED:
                continue
            assigned += 1
            for side in ("up", "down"):
                cut = scaled_min_cut(solver, draw, 0, root, side)
                assert cut >= 1 - 1e-6
        assert assigned >= 50  # z(0, root) is 1 here, so nearly every draw assigns
