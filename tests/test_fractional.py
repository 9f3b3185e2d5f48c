import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bulkflow

from bulkflow import fractional
from bulkflow.flows import FlowNetwork
from bulkflow.fractional import (ArrivalOutcome, CompositeSolver, PairSpec,
                                 RootSpec, SideGraph)
from bulkflow.generate import grid, star_of_paths, with_penalties
from bulkflow.graph import TwoMetricGraph, shortest_path
from bulkflow.harness import RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.junction import build_junction_forest
from helpers import (build_graph, random_two_metric, reference_ball,
                     reference_step_capacities, side_funnels, z_values)

BIG_KAPPA = 1e9


def make_solver(up, down, roots, n_scale=10, guess=1.0, kappa=BIG_KAPPA,
                dmax=0.05):
    """A solver over two sides; bare graphs become sides without owners."""
    if not isinstance(up, SideGraph):
        up, down = SideGraph(up, upward=True), SideGraph(down, upward=False)
    return CompositeSolver(up, down, roots, n_scale, guess, kappa, dmax)


def route_cost(up, down, root, pair):
    """``c + l`` of the pair's cheapest route through ``root``: the least
    guess whose distance ball holds the root."""
    def cost(g, start, goal):
        return shortest_path(g, lambda e: g.c[e] + g.l[e], start, goal)[1]
    return (cost(up, pair.up_source, root.up_vertex)
            + cost(down, root.down_vertex, pair.down_sink))


def single_path_instance(n_edges=8, c=0.01, l=0.75):
    """Up side: one path source -> root; down side: one zero-length arc."""
    up = TwoMetricGraph(n_edges + 1, directed=True)
    for i in range(n_edges):
        up.add_arc(i, i + 1, c, l)
    up.freeze()
    down = build_graph(2, [(0, 1, c, 0.0)])
    roots = [RootSpec(0, up_vertex=n_edges, down_vertex=0)]
    pair = PairSpec(index=0, up_source=0, down_sink=1)
    return up, down, roots, pair


class TestEpochInit:
    def test_initial_x_is_n_to_minus_five(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots, n_scale=10)
        assert solver.v0 == pytest.approx(1e-5)
        assert all(v == pytest.approx(1e-5) for v in solver.up.x[0])

    def test_pruning_removes_expensive_edges(self):
        # arc 0 costs 3 guesses; arc 2's cost and length are each below the
        # guess but sum above it: no ball can hold either, so their x is 0
        up = build_graph(3, [(0, 1, 3.0, 0.1), (1, 2, 0.5, 0.1),
                             (0, 2, 0.6, 0.6)])
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        roots = [RootSpec(0, 2, 0), RootSpec(1, 1, 0)]
        solver = make_solver(up, down, roots, guess=1.0, dmax=0.2)
        v0 = solver.v0
        assert list(solver.up.x.values()) == [[0.0, v0, 0.0]] * 2
        # the base objective charges c * v0 on the arcs a ball can hold only
        assert solver.objective == pytest.approx((0.5 + 0.1) * v0 * 2,
                                                 rel=1e-12)
        assert solver.on_arrival(PairSpec(0, 1, 1)) == ArrivalOutcome.SATISFIED
        assert [x[0] for x in solver.up.x.values()] == [0.0] * 2
        assert solver.objective == pytest.approx(solver.lp_objective(),
                                                 rel=1e-12)
        solver.check_invariants([0])

    def test_initial_objective_is_small(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots, n_scale=10)
        n_vars = up.m + down.m
        assert solver.lp_objective() <= n_vars * solver.v0
        assert solver.objective == pytest.approx(solver.lp_objective())

    def test_empty_graph_objective_zero(self):
        up = TwoMetricGraph(2, directed=True).freeze()
        down = TwoMetricGraph(2, directed=True).freeze()
        solver = make_solver(up, down, [RootSpec(0, 0, 0)])
        assert solver.lp_objective() == 0.0

    def test_rejects_bad_guess(self):
        up, down, roots, _ = single_path_instance()
        with pytest.raises(ValueError):
            make_solver(up, down, roots, guess=0.0)

    @pytest.mark.parametrize("name", ["guess", "kappa", "dmax"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf,
                                       -math.inf])
    def test_rejects_non_finite_or_non_positive_settings(self, name, value):
        # each must be finite and > 0, as RunConfig asks of kappa and dmax
        up, down, roots, _ = single_path_instance()
        with pytest.raises(ValueError, match=f"{name} must be a finite"):
            make_solver(up, down, roots, **{name: value})


class TestArrivalInit:
    def test_seeds_eligible_roots(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots,
                             guess=route_cost(up, down, *roots, pair))
        eligible = solver.arrival_init(pair)
        assert eligible == [0]
        route = solver.routes[0][0]
        assert route.z == pytest.approx(solver.v0)
        # the seed flow follows the unique path, one unit of v0 per edge
        up_flow = route.funnels[0].flow
        assert all(f == pytest.approx(solver.v0) for f in up_flow.values())
        assert len(up_flow) == 8

    def test_disconnected_root_excluded(self):
        up = build_graph(4, [(0, 1, 0.1, 0.1)])  # vertex 2 unreachable
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        roots = [RootSpec(0, 1, 0), RootSpec(1, 2, 0)]
        solver = make_solver(up, down, roots)
        eligible = solver.arrival_init(PairSpec(0, up_source=0, down_sink=1))
        assert eligible == [0]

    def test_root_whose_ball_rounding_drops_a_route_arc_is_skipped(self):
        # d(s, r) sums the path from s, the arc test of arc 0 sums the rest
        # of it from r: one rounds to the bound, the other one ulp above
        a, b, c = 0.19150488850818106, 0.38358120866617673, 0.4249139038256424
        assert (a + b) + c <= 1.0 + fractional.BALL_TOL < a + (c + b)
        up = build_graph(4, [(0, 1, a, 0.0), (1, 2, b, 0.0), (2, 3, c, 0.0)])
        down = build_graph(1, [])
        root, pair = RootSpec(0, 3, 0), PairSpec(0, 0, 0)
        solver = make_solver(up, down, [root])
        assert solver.arrival_init(pair) == []
        assert make_solver(up, down, [root]).on_arrival(pair) == (
            ArrivalOutcome.GUESS_TOO_SMALL)
        doubled = make_solver(up, down, [root], guess=2.0)
        assert doubled.arrival_init(pair) == [0]

    def test_root_beyond_the_guess_differs_from_no_root(self):
        # root 0 is reachable at c + l = 1.5, root 1 not at all
        up = build_graph(4, [(0, 1, 0.5, 0.5), (1, 2, 0.25, 0.25)])
        down = build_graph(1, [])
        beyond, cut_off = RootSpec(0, 2, 0), RootSpec(1, 3, 0)
        pair = PairSpec(0, 0, 0)
        both = make_solver(up, down, [beyond, cut_off])
        assert both.arrival_init(pair) == []
        assert make_solver(up, down, [beyond, cut_off]).on_arrival(pair) == (
            ArrivalOutcome.GUESS_TOO_SMALL)
        stranded = make_solver(up, down, [cut_off])
        assert stranded.arrival_init(pair) is None
        assert make_solver(up, down, [cut_off]).on_arrival(pair) == (
            ArrivalOutcome.LP_INFEASIBLE)
        # a guess above the route's cost holds it
        assert make_solver(up, down, [beyond, cut_off],
                           guess=2.0).on_arrival(pair) == (
            ArrivalOutcome.SATISFIED)

    def test_no_roots_reports_infeasible(self):
        up = build_graph(3, [(0, 1, 0.1, 0.1)])
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        solver = make_solver(up, down, [RootSpec(0, 2, 0)])
        assert solver.on_arrival(PairSpec(0, 0, 1)) == ArrivalOutcome.LP_INFEASIBLE

    def test_double_arrival_rejected(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots)
        solver.arrival_init(pair)
        with pytest.raises(ValueError):
            solver.arrival_init(pair)

    def test_pair_stays_registered_once_its_arrival_ran(self):
        # routed or LP-infeasible, a second arrival of the pair is refused
        up = build_graph(3, [(0, 1, 0.1, 0.1), (1, 2, 0.1, 0.1)])
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.3)
        routed, stranded = PairSpec(0, 0, 1), PairSpec(1, 2, 1)
        assert solver.on_arrival(routed) == ArrivalOutcome.SATISFIED
        assert solver.on_arrival(stranded) == ArrivalOutcome.LP_INFEASIBLE
        for pair in (routed, stranded):
            with pytest.raises(ValueError, match="already processed"):
                solver.on_arrival(pair)


class TestTightEdges:
    def _state(self):
        up = build_graph(2, [(0, 1, 0.5, 0.1)])
        down = build_graph(2, [(0, 1, 0.5, 0.1)])
        root, pair = RootSpec(0, 1, 0), PairSpec(0, 0, 1)
        solver = make_solver(up, down, [root],
                             guess=route_cost(up, down, root, pair))
        solver.arrival_init(pair)
        return solver, *solver.routes[0][0].funnels

    def test_source_side_tight(self):
        solver, up, _ = self._state()
        solver.up.x[0][0] = 0.5
        up.flow[0] = 0.5
        assert up.tight(solver.up.x[0]) == {0}

    def test_sink_side_tight(self):
        solver, up, down = self._state()
        solver.up.x[0][0] = 0.5
        up.flow[0] = 0.3
        solver.down.x[0][0] = 0.5
        down.flow[0] = 0.5
        up_tight = up.tight(solver.up.x[0])
        down_tight = down.tight(solver.down.x[0])
        assert up_tight == set() and down_tight == {0}

    def test_loose_everywhere(self):
        solver, up, down = self._state()
        solver.up.x[0][0] = 0.5
        up.flow[0] = 0.3
        down.flow[0] = 0.2
        solver.down.x[0][0] = 0.5
        up_tight = up.tight(solver.up.x[0])
        down_tight = down.tight(solver.down.x[0])
        assert up_tight == set() and down_tight == set()


class TestGrowthStep:
    def test_tight_edge_doubles_over_ln2(self):
        up = build_graph(2, [(0, 1, 1.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        # a guess of 2 holds the 1.11 route and rescales the arc's c to 1/2,
        # so x doubles over ln 2 in units of that cost
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], guess=2.0,
                             dmax=math.log(2) / 2)
        solver.arrival_init(PairSpec(0, 0, 1))
        solver.up.x[0][0] = 0.1
        solver.routes[0][0].funnels[0].flow[0] = 0.1  # tight at x = 0.1
        step = solver.growth_step(0)
        assert step.dt == math.log(2) / 2  # a full, untruncated step
        solver.apply(step)
        assert solver.up.x[0][0] == pytest.approx(0.2)

    def test_zero_cost_tight_edge_jumps_to_one(self):
        up = build_graph(2, [(0, 1, 0.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.01)
        solver.arrival_init(PairSpec(0, 0, 1))
        # the seed put flow at x's level, so the arc starts tight
        step = solver.growth_step(0)
        assert step.dt == 0.01
        solver.apply(step)
        assert solver.up.x[0][0] == 1.0

    def test_blocked_roots_only_grow_x(self):
        up = build_graph(2, [(0, 1, 0.5, 0.5)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        root, pair = RootSpec(0, 1, 0), PairSpec(0, 0, 1)
        solver = make_solver(up, down, [root],
                             guess=route_cost(up, down, root, pair))
        solver.arrival_init(pair)
        # zero out the budget by hand: positive lengths then give delta = 0
        route = solver.routes[0][0]
        route.z = 0.0
        route.funnels[0].flow[0] = solver.up.x[0][0]  # keep the edge tight
        x_before = solver.up.x[0][0]
        step = solver.growth_step(0)
        assert step.dt == 0.05
        solver.apply(step)
        assert step.solutions[0].delta == 0.0
        assert route.z == 0.0
        assert solver.up.x[0][0] > x_before

    def test_flow_stays_within_capacity(self):
        rng = random.Random(1)
        up = build_graph(4, [(0, 1, 0.3, 0.2), (1, 3, 0.4, 0.1),
                             (0, 2, 0.2, 0.3), (2, 3, 0.1, 0.2)])
        down = build_graph(2, [(0, 1, 0.05, 0.05)])
        # the routes cost 0.9 and 1.1, so a guess of 1.2 keeps both up paths
        solver = make_solver(up, down, [RootSpec(0, 3, 0)], guess=1.2)
        solver.arrival_init(PairSpec(0, 0, 1))
        assert solver.routes[0][0].funnels[0].arcs == [0, 1, 2, 3]
        for _ in range(60):
            solver.apply(solver.growth_step(0))
            if solver.z_total(0) >= 1 - 1e-12:
                break
        solver.check_invariants([0] if solver.z_total(0) >= 1 - 1e-7 else [])


    def test_growth_step_stages_and_apply_commits(self):
        up = build_graph(4, [(0, 1, 0.3, 0.2), (1, 3, 0.4, 0.1),
                             (0, 2, 0.2, 0.3), (2, 3, 0.1, 0.2)])
        down = build_graph(2, [(0, 1, 0.05, 0.05)])
        solver = make_solver(up, down, [RootSpec(0, 3, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))

        def state():
            return (z_values(solver),
                    [dict(funnel.flow) for _, funnel in side_funnels(solver)],
                    [{r: list(a) for r, a in side.x.items()}
                     for side in solver.sides],
                    solver.objective)

        before = state()
        step = solver.growth_step(0)
        assert state() == before
        assert step.pair == 0 and step.staged_x and step.d_obj > 0.0
        solver.apply(step)
        assert solver.objective == before[3] + step.d_obj
        assert solver.routes[0][0].z == before[0][(0, 0)] + (
            step.solutions[0].delta * step.dt)


class TestOnArrival:
    def test_coverage_reaches_one(self):
        up, down, roots, pair = single_path_instance(n_edges=3, l=0.2)
        solver = make_solver(up, down, roots, dmax=0.3)
        assert solver.on_arrival(pair) == ArrivalOutcome.SATISFIED
        assert solver.z_total(0) >= 1 - 1e-7
        solver.check_invariants([0])

    def test_epoch_overflow_before_threshold_exceeded(self):
        up, down, roots, pair = single_path_instance(n_edges=4, c=0.4, l=0.4)
        kappa = 0.5
        solver = make_solver(up, down, roots, kappa=kappa, dmax=0.2,
                             guess=route_cost(up, down, *roots, pair))
        assert solver.on_arrival(pair) == ArrivalOutcome.EPOCH_OVERFLOW
        assert solver.objective <= kappa * (1 + 1e-6)

    def test_objective_monotone_and_exact(self):
        up, down, roots, pair = single_path_instance(n_edges=3, l=0.3)
        solver = make_solver(up, down, roots, dmax=0.3)
        before = solver.lp_objective()
        solver.on_arrival(pair)
        after = solver.lp_objective()
        assert after >= before
        assert solver.objective == pytest.approx(after, rel=1e-9, abs=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fractional, "MAX_STEPS", 2)
        up, down, roots, pair = single_path_instance(n_edges=3)
        solver = make_solver(up, down, roots,
                             guess=route_cost(up, down, *roots, pair))
        with pytest.raises(RuntimeError):
            solver.on_arrival(pair)


def test_check_pair_raises_under_python_optimize():
    script = textwrap.dedent('''
        import sys
        from bulkflow.fractional import (ArrivalOutcome, CompositeSolver,
                                         PairSpec, RootSpec, SideGraph)
        from bulkflow.graph import TwoMetricGraph

        up = TwoMetricGraph(4)
        for i in range(3):
            up.add_arc(i, i + 1, 0.01, 0.2)
        down = TwoMetricGraph(2)
        down.add_arc(0, 1, 0.01, 0.0)
        solver = CompositeSolver(SideGraph(up.freeze(), upward=True),
                                 SideGraph(down.freeze(), upward=False),
                                 [RootSpec(0, up_vertex=3, down_vertex=0)],
                                 10, 1.0, 1e9, 0.3)
        pair = PairSpec(index=0, up_source=0, down_sink=1)
        if solver.on_arrival(pair) != ArrivalOutcome.SATISFIED:
            sys.exit("arrival not satisfied")
        solver.check_pair(0)
        flows = solver.routes[0][0].funnels[0].flow
        e = next(iter(flows))
        flows[e] = solver.up.x[0][e] + 1.0  # flow above its capacity
        try:
            solver.check_pair(0)
        except AssertionError as exc:
            print(sys.flags.optimize, exc)
            sys.exit(0)
        sys.exit("corrupted state passed check_pair")
    ''')
    src = str(Path(bulkflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("1 flow ")


class TestSinglePathCalibration:
    def test_z_tracks_closed_form_ode_within_5_percent(self):
        # one source-root path of total rescaled length L, free down side:
        # the coverage ODE is dz/dt = z / L starting from n**-5
        n_edges, l = 8, 0.75
        up, down, roots, pair = single_path_instance(n_edges=n_edges, l=l)
        # the guess holds the route; steps of 0.05 / guess keep dt / L as
        # at guess 1, which bounds the Euler error of the discrete steps
        guess = route_cost(up, down, *roots, pair)
        solver = make_solver(up, down, roots, n_scale=10, dmax=0.05 / guess,
                             guess=guess)
        L = n_edges * l / guess
        solver.arrival_init(pair)
        t = 0.0
        z0 = solver.v0
        steps = 0
        while solver.z_total(0) < 1 - 1e-12 and steps < 5000:
            steps += 1
            step = solver.growth_step(0)
            solver.apply(step)
            t += step.dt
            z = solver.z_total(0)
            expected = min(1.0, z0 * math.exp(t / L))
            assert z == pytest.approx(expected, rel=0.05)
        assert solver.z_total(0) >= 1 - 1e-9
        # total duration also matches the closed form L * ln(1/z0)
        assert t == pytest.approx(L * math.log(1 / z0), rel=0.05)


class TestPipelineShapes:
    def test_strongly_connected_base_makes_every_root_eligible(self):
        from bulkflow.layering import build_layered
        g = build_graph(4, [(i, (i + 1) % 4, 0.3, 0.1) for i in range(4)])
        up = build_layered(g, k=1, h=2)
        down = build_layered(g, k=1, h=2, direction="down")
        roots = [RootSpec(r, up.vertex(r, 0), down.vertex(r, 0))
                 for r in range(4)]
        pair = PairSpec(0, up.vertex(0, 2), down.vertex(2, 2))
        # a guess at the dearest root's route holds every root in the ball
        guess = max(route_cost(up.graph, down.graph, root, pair)
                    for root in roots)
        solver = make_solver(up.graph, down.graph, roots, guess=guess)
        eligible = solver.arrival_init(pair)
        assert eligible == [0, 1, 2, 3]

    def test_cheap_pair_finishes_fast_with_tiny_spend(self):
        # nearly-free route: coverage completes in a handful of steps and
        # the objective moves well under one guess unit
        up = build_graph(2, [(0, 1, 0.001, 0.001)])
        down = build_graph(2, [(0, 1, 0.001, 0.001)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.5)
        before = solver.lp_objective()
        assert solver.on_arrival(PairSpec(0, 0, 1)) == ArrivalOutcome.SATISFIED
        stats = solver.arrival_log[-1]
        assert stats.steps <= 10
        assert solver.lp_objective() - before < 0.05

    def test_pair_terminal_at_root_vertex(self):
        # degenerate but legal: the down sink coincides with the root
        up = build_graph(2, [(0, 1, 0.2, 0.2)])
        down = build_graph(2, [(0, 1, 0.2, 0.2)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.3)
        assert solver.on_arrival(PairSpec(0, 0, 0)) == ArrivalOutcome.SATISFIED

    def test_minuscule_costs_do_not_overflow(self):
        # rescaled costs far below the step length must not blow up exp()
        up = build_graph(2, [(0, 1, 3e-5, 0.2)])
        down = build_graph(2, [(0, 1, 3e-5, 0.2)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.3)
        assert solver.on_arrival(PairSpec(0, 0, 1)) == ArrivalOutcome.SATISFIED
        solver.check_invariants([0])

    def test_incremental_objective_drift_stays_tiny(self):
        up = build_graph(4, [(0, 2, 0.3, 0.2), (1, 2, 0.2, 0.4),
                             (0, 3, 0.5, 0.1), (1, 3, 0.4, 0.2),
                             (2, 3, 0.1, 0.1)])
        down = build_graph(4, [(2, 0, 0.2, 0.2), (2, 1, 0.3, 0.1),
                               (3, 0, 0.4, 0.3), (3, 1, 0.2, 0.2)])
        roots = [RootSpec(0, 2, 2), RootSpec(1, 3, 3)]
        solver = make_solver(up, down, roots, dmax=0.2)
        solver.on_arrival(PairSpec(0, 0, 1))
        solver.on_arrival(PairSpec(1, 1, 0))
        exact = solver.lp_objective()
        assert solver.objective == pytest.approx(exact, rel=1e-9, abs=1e-10)


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        def run():
            up = build_graph(4, [(0, 2, 0.3, 0.2), (1, 2, 0.2, 0.4),
                                 (0, 3, 0.5, 0.1), (1, 3, 0.4, 0.2),
                                 (2, 3, 0.1, 0.1)])
            down = build_graph(4, [(2, 0, 0.2, 0.2), (2, 1, 0.3, 0.1),
                                   (3, 0, 0.4, 0.3), (3, 1, 0.2, 0.2)])
            roots = [RootSpec(0, 2, 2), RootSpec(1, 3, 3)]
            solver = make_solver(up, down, roots, dmax=0.25)
            solver.on_arrival(PairSpec(0, 0, 1))
            solver.on_arrival(PairSpec(1, 1, 0))
            return (z_values(solver),
                    [dict(funnel.flow) for side, funnel in side_funnels(solver)
                     if side is solver.up],
                    {r: list(a) for r, a in solver.up.x.items()},
                    solver.objective)
        assert run() == run()


def tie_heavy_side(rng, n, upward):
    """A random side graph with parallel arcs, many equal lengths, zero-cost
    and zero-length arcs, arcs dearer than the unit guess and pair-owned
    arcs."""
    g = TwoMetricGraph(n, directed=True)
    for _ in range(5 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_arc(u, v, rng.choice([0.0, 0.25, 0.25, 2.0]),
                      rng.choice([0.0, 0.5, 0.5, 1.5]))
    owner = {e: rng.randrange(2) for e in range(g.m) if rng.random() < 0.2}
    return SideGraph(g.freeze(), upward=upward, owner=owner)


def usable_arcs(side, pair):
    """Every arc the pair's owner rule admits on a side, ignoring where it
    leads."""
    allowed = side.side_graph.allowed(pair.index)
    return [e for e in range(side.graph.m) if allowed is None or allowed(e)]


class TestFunnel:
    @pytest.mark.parametrize("seed", range(8))
    def test_funnel_network_matches_full_usable_network(self, seed):
        # each funnel, and so its network, is the reference ball's arcs;
        # c + l here are multiples of 1/4, so both sums are exact
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solver = make_solver(up, down, roots, dmax=0.2)
        assert max(solver.up.w) > 1 and up.owner
        compared = shrunk = 0
        for index in range(2):
            pair = PairSpec(index, rng.randrange(n), rng.randrange(n))
            ball = reference_ball(solver, pair)
            eligible = solver.arrival_init(pair)
            assert eligible == list(ball)
            routes = solver.routes[index]
            for rid, i in itertools.product(eligible, range(2)):
                side, arcs = solver.sides[i], ball[rid][i]
                funnel = routes[rid].funnels[i]
                assert funnel.arcs == arcs
                assert funnel.net.m == len(arcs)
                # the seed is the hop-shortest path inside the ball
                path, _ = shortest_path(side.graph, lambda e: 1.0,
                                        *funnel.ends, set(arcs).__contains__)
                assert funnel.flow == dict.fromkeys(path, solver.v0)
                compared += 1
                shrunk += len(arcs) < len(usable_arcs(side, pair))
        assert shrunk and compared

    def test_directed_funnels_stay_in_their_root_tree(self):
        g = random_two_metric(random.Random(3), 4, 8, ensure_cycle=True)
        s, t = 0, 2
        forest = build_junction_forest(g, k=1, h=2, sources=[s], sinks=[t])
        sides = [SideGraph(forest.graph, upward=upward)
                 for upward in (True, False)]
        roots = [RootSpec(r, forest.up_root[r], forest.down_root[r])
                 for r in range(g.n)]
        solver = make_solver(*sides, roots, guess=1e3)
        source, sink = forest.source_vertex[s], forest.sink_vertex[t]
        eligible = solver.arrival_init(PairSpec(0, source, sink))
        assert eligible
        graph = forest.graph
        for rid in eligible:
            up, down = (funnel.arcs for funnel in solver.routes[0][rid].funnels)
            # r's up tree plus the source's hookups into it, and the mirror
            # image downstairs; never a root link, never another root's arc
            for arcs, own, terminal, inner, outer in (
                    (up, "up", source, graph.head, graph.tail),
                    (down, "down", sink, graph.tail, graph.head)):
                assert any(outer[a] == terminal for a in arcs)
                for a in arcs:
                    assert not forest.is_root_link(a)
                    assert forest.tuple_of[inner[a]][:2] == (own, rid)
                    assert (outer[a] == terminal
                            or forest.tuple_of[outer[a]][:2] == (own, rid))

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_growth_factors_match_computed_ones(self, seed):
        # full steps read exp(dmax / c) from the funnel instead of computing it
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        compared = 0
        for dmax in (0.07, 0.2):
            solver = make_solver(up, down, roots, dmax=dmax)
            for index in range(2):
                solver.arrival_init(PairSpec(index, rng.randrange(n),
                                             rng.randrange(n)))
                for _ in range(3):
                    solver.apply(solver.growth_step(index))
            for side, funnel in side_funnels(solver):
                assert ([g.hex() for g in funnel.full_growth]
                        == [fractional._growth_factor(side.c[e], dmax).hex()
                            for e in funnel.arcs])
                compared += len(funnel.arcs)
        assert compared

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_terminal_searched_once_per_side(self, seed, monkeypatch):
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solver = make_solver(up, down, roots, dmax=0.2)
        calls = []
        search = fractional.shortest_paths
        monkeypatch.setattr(
            fractional, "shortest_paths",
            lambda *args, **kwargs: calls.append(args) or search(*args,
                                                                 **kwargs))
        for index in range(2):
            calls.clear()
            pair = PairSpec(index, rng.randrange(n), rng.randrange(n))
            passed = len(reference_ball(solver, pair))
            solver.arrival_init(pair)
            # one search from each side's pair terminal, then one per side
            # for each root that passes the root test, and none for the rest
            assert len(calls) <= 2 + 2 * passed


def solver_state(solver):
    """x, flows, z and objective, floats as exact bits."""
    def bits(values):
        return [v.hex() for v in values]
    return ([{r: bits(a) for r, a in side.x.items()} for side in solver.sides],
            [sorted((e, f.hex()) for e, f in funnel.flow.items())
             for _, funnel in side_funnels(solver)],
            sorted((k, v.hex()) for k, v in z_values(solver).items()),
            solver.objective.hex())


def step_bits(solver, step):
    """A staged step with its floats as bits and its sides as positions."""
    return (step.pair, step.dt.hex(), step.solutions,
            [(solver.sides.index(side), rid, e, new.hex())
             for side, rid, e, new in step.staged_x], step.d_obj.hex())


class TestStepState:
    """Funnels keep their step capacities for the pair's arrival and a step
    recomputes only the arcs the previous committed step touched."""

    @pytest.mark.parametrize("mode, make", [
        ("edge", lambda: grid(2, 2, k=3, seed=5)),
        ("edge", lambda: star_of_paths(3, 2, k=4, seed=2)),
        ("prize", lambda: with_penalties(grid(2, 2, k=3, seed=5), seed=5,
                                         q_range=(0.3, 4.0))),
    ])
    def test_step_capacities_match_a_fresh_recomputation(self, mode, make,
                                                         monkeypatch):
        aux = CompositeSolver._aux_network
        checked = []

        def checked_aux(self, side, rid, funnel, tight):
            net = aux(self, side, rid, funnel, tight)
            expected = reference_step_capacities(side, rid, funnel, tight,
                                                 self.dmax)
            assert ([cap.hex() for cap in net.capacity]
                    == [cap.hex() for cap in expected])
            checked.append(len(net.capacity))
            return net

        monkeypatch.setattr(CompositeSolver, "_aux_network", checked_aux)
        run_online(load_instance(make()), RunConfig(mode=mode))
        assert len(checked) > 100

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_steps_match_a_solver_that_recomputes_every_arc(self, seed):
        rng = random.Random(seed)
        if seed < 4:
            n = 6
            up = tie_heavy_side(rng, n, True)
            down = tie_heavy_side(rng, n, False)
            roots = [RootSpec(r, r, r) for r in range(n)]
            ends = rng.randrange(n), rng.randrange(n)
            # at a guess of 1 some seeds' balls hold no root; at 3 every
            # seed's balls hold several roots and their funnels many arcs
            guess = 3.0
        else:  # one path, so every step's flow is bounded by x
            up, down, roots, pair = single_path_instance(n_edges=3, c=0.3,
                                                         l=0.2)
            ends = pair.up_source, pair.down_sink
            guess = route_cost(up, down, *roots, pair)
        kept, fresh = (make_solver(up, down, roots, guess=guess,
                                   dmax=0.2 / guess) for _ in range(2))
        # both pairs share their terminals, so each one's steps change the
        # x that the other's funnels read
        for index in range(2):
            for solver in (kept, fresh):
                solver.arrival_init(PairSpec(index, *ends))
        assert kept.routes[0] and kept.routes[1]
        solved = set()
        # (pair, applied): steps, staged steps never applied, and steps for
        # the first pair after the second pair's steps; the first pair's last
        # step before them leaves no arc to recompute
        plan = [(0, True), (0, True), (0, False), (0, True), (0, True),
                (0, False), (1, True), (1, False), (1, True), (1, True),
                (0, True), (0, True), (1, True)]
        for index, apply in plan:
            step = kept.growth_step(index)
            if apply:
                for _, funnel in side_funnels(fresh):
                    funnel.dirty.update(funnel.arcs)  # recompute every arc
                reference = fresh.growth_step(index)
                assert step_bits(kept, step) == step_bits(fresh, reference)
                if step.solutions:
                    solved.add(index)
                kept.apply(step)
                fresh.apply(reference)
            assert solver_state(kept) == solver_state(fresh)
        assert solved == {0, 1}  # both pairs' compared steps route flow

    def test_step_recomputes_under_half_the_funnel_arcs(self, monkeypatch):
        entries, arcs = [], []
        update = FlowNetwork.update_capacities
        monkeypatch.setattr(
            FlowNetwork, "update_capacities",
            lambda net, changes: entries.append(len(changes)) or update(
                net, changes))
        solve = fractional.max_delta

        def counted_solve(up, *args):
            arcs.append(up.m + args[2].m)
            return solve(up, *args)

        monkeypatch.setattr(fractional, "max_delta", counted_solve)
        # longer arms than the balls of smaller stars cut down to a few arcs
        run_online(load_instance(star_of_paths(4, 3, k=6, seed=5)),
                   RunConfig(mode="edge"))
        assert sum(arcs) > 50 * len(arcs)  # the funnels stay large
        # every step recomputed every funnel arc before; now under a third
        # of them (96,211 of 339,533 entries)
        assert 2 * sum(entries) < sum(arcs)
