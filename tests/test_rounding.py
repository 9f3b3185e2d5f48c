import math

import pytest
from hypothesis import given, settings, strategies as st

from bulkflow.fractional import PairSpec, RootSpec
from bulkflow.rounding import (Assignment, LazyThresholds, choose_root,
                               draw_thresholds, scaled_min_cut,
                               threshold_interval)
from helpers import build_graph
from test_fractional import make_solver, route_cost, single_path_instance


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
        assert all(lo <= t <= hi for t in draw.values())

    def test_same_seed_identical(self):
        a = draw_thresholds([0, 1, 5], 16, "run:0")
        b = draw_thresholds([0, 1, 5], 16, "run:0")
        assert a == b

    def test_per_root_streams_unaffected_by_extra_roots(self):
        base = draw_thresholds([0, 1, 2], 16, 7)
        extended = draw_thresholds([-1, 0, 1, 2], 16, 7)
        for rid in (0, 1, 2):
            assert base[rid] == extended[rid]

    def test_lazy_entries_are_the_eager_draws(self):
        eager = draw_thresholds([-1, 0, 3, 5], 16, "run:2")
        lazy = LazyThresholds([-1, 0, 3, 5], 16, "run:2")
        assert lazy[5] == eager[5]
        assert dict(lazy) == {5: eager[5]}  # only what was read is drawn
        with pytest.raises(KeyError):
            lazy[1]  # not a root
        assert [lazy[rid] for rid in (0, -1, 3)] == [eager[0], eager[-1],
                                                     eager[3]]
        assert lazy == eager


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
        solver.routes[0][1].z = 0.25
        solver.routes[0][2].z = 0.10
        tau = {1: 0.2, 2: 0.3}
        assert choose_root(solver, tau, 0) == (Assignment.ASSIGNED, 1)

    def test_all_below_threshold_falls_back(self):
        solver = self._two_root_state()
        solver.routes[0][1].z = 0.01
        solver.routes[0][2].z = 0.02
        tau = {1: 0.2, 2: 0.3}
        assert choose_root(solver, tau, 0) == (Assignment.FALLBACK, None)

    def test_tie_breaks_to_smaller_root(self):
        solver = self._two_root_state()
        solver.routes[0][1].z = 0.25
        solver.routes[0][2].z = 0.25
        tau = {1: 0.2, 2: 0.2}
        assert choose_root(solver, tau, 0) == (Assignment.ASSIGNED, 1)


class TestDomination:
    def test_assigned_pairs_scaled_mincut_at_least_one(self):
        # over many threshold draws, every assigned pair's scaled flows
        # still route a full unit on both sides
        up, down, roots, pair = single_path_instance(n_edges=4, l=0.3)
        solver = make_solver(up, down, roots, dmax=0.25,
                             guess=route_cost(up, down, *roots, pair))
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
