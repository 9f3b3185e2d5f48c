import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

import bulkflow

from bulkflow import flows, fractional, harness
from bulkflow.flows import FlowNetwork
from bulkflow.fractional import (ArrivalOutcome, CompositeSolver, PairSpec,
                                 RootSpec, SideGraph)
from bulkflow.generate import (grid, random_digraph, star_of_paths,
                               with_penalties)
from bulkflow.graph import (TwoMetricGraph, Unreachable, shortest_path,
                            shortest_paths)
from bulkflow.harness import OnlinePipeline, RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.junction import build_junction_forest
from bulkflow.prize import augment
from helpers import (ReferenceStepSolver, build_graph, random_two_metric,
                     reference_ball, reference_reaches_a_root,
                     reference_step_capacities, side_funnels,
                     tie_heavy_graph, z_values)

BIG_KAPPA = 1e9


def make_solver(up, down, roots, n_scale=10, guess=1.0, kappa=BIG_KAPPA,
                dmax=0.05, cls=CompositeSolver):
    """A solver over two sides; bare graphs become sides without owners."""
    if not isinstance(up, SideGraph):
        up, down = SideGraph(up, upward=True), SideGraph(down, upward=False)
    return cls(up, down, roots, n_scale, guess, kappa, dmax)


def route_cost(up, down, root, pair):
    """``c + l`` of the pair's cheapest route through ``root``: the least
    guess whose distance ball holds the root."""
    def cost(g, start, goal):
        return shortest_path(g, [c + l for c, l in zip(g.c, g.l)], start,
                             goal)[1]
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
        assert solver.growth_step() == math.log(2) / 2  # a full step
        assert solver.up.x[0][0] == pytest.approx(0.2)

    def test_zero_cost_tight_edge_jumps_to_one(self):
        up = build_graph(2, [(0, 1, 0.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)], dmax=0.01)
        solver.arrival_init(PairSpec(0, 0, 1))
        # the seed put flow at x's level, so the arc starts tight
        assert solver.growth_step() == 0.01
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
        assert solver.growth_step() == 0.05
        assert route.z == 0.0  # the rate was 0 over a full step
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
            solver.growth_step()
            if solver.z_total(0) >= 1 - 1e-12:
                break
        solver.check_invariants([0] if solver.z_total(0) >= 1 - 1e-7 else [])


    def test_growth_step_commits_and_returns_its_length(self):
        up = build_graph(4, [(0, 1, 0.3, 0.2), (1, 3, 0.4, 0.1),
                             (0, 2, 0.2, 0.3), (2, 3, 0.1, 0.2)])
        down = build_graph(2, [(0, 1, 0.05, 0.05)])
        solver, ref = (make_solver(up, down, [RootSpec(0, 3, 0)], cls=cls)
                       for cls in (CompositeSolver, ReferenceStepSolver))
        for s in (solver, ref):
            s.arrival_init(PairSpec(0, 0, 1))
        before = solver.objective
        dt = solver.growth_step()
        staged = ref.growth_step(0)
        assert dt.hex() == staged.dt.hex() and staged.d_obj > 0.0
        assert solver.objective == before + staged.d_obj
        ref.apply(staged)
        assert solver_state(solver) == solver_state(ref)
        assert solver.routes[0][0].z > solver.v0


class TestOnArrival:
    def test_coverage_reaches_one(self):
        up, down, roots, pair = single_path_instance(n_edges=3, l=0.2)
        solver = make_solver(up, down, roots, dmax=0.3)
        assert solver.on_arrival(pair) == ArrivalOutcome.SATISFIED
        assert solver.z_total(0) >= 1 - 1e-7
        solver.check_invariants([0])

    def test_epoch_overflow_before_threshold_exceeded(self):
        # the arrival overflows at the first step whose commit takes the
        # objective past kappa, and not before: stepping a twin by hand
        # until it passes kappa ends in the same state
        up, down, roots, pair = single_path_instance(n_edges=4, c=0.4, l=0.4)
        kappa = 0.5
        solver, twin = (make_solver(up, down, roots, kappa=kappa, dmax=0.2,
                                    guess=route_cost(up, down, *roots, pair))
                        for _ in range(2))
        assert solver.on_arrival(pair) == ArrivalOutcome.EPOCH_OVERFLOW
        twin.arrival_init(pair)
        steps = 0
        while twin.objective <= kappa:
            assert twin.z_total(0) < 1.0 - fractional.COVER_TOL
            twin.growth_step()
            steps += 1
        assert steps > 1 and solver.objective > kappa
        assert solver_state(solver) == solver_state(twin)

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
            t += solver.growth_step()
            z = solver.z_total(0)
            expected = min(1.0, z0 * math.exp(t / L))
            assert z == pytest.approx(expected, rel=0.05)
        assert solver.z_total(0) >= 1 - 1e-9
        # total duration also matches the closed form L * ln(1/z0)
        assert t == pytest.approx(L * math.log(1 / z0), rel=0.05)


class TestPathRoutes:
    """A funnel whose ball is one simple path keeps its capacities in a
    ``flows.FlowPath``, which ``flows.max_delta`` solves without a
    network."""

    def test_single_path_route_has_no_network(self):
        up, down, roots, pair = single_path_instance(n_edges=3)
        solver = make_solver(up, down, roots,
                             guess=route_cost(up, down, *roots, pair))
        solver.arrival_init(pair)
        funnels = solver.routes[0][0].funnels
        assert all(isinstance(f.net, flows.FlowPath) for f in funnels)
        assert [f.net.route for f in funnels] == [(0, 1, 2), (0,)]
        # the unit length is the left fold along the route
        l = solver.up.l
        assert funnels[0].net.length == (l[0] + l[1]) + l[2]
        assert funnels[1].net.length == solver.down.l[0]

    def test_refused_capacities_change_nothing(self):
        up, down, roots, pair = single_path_instance(n_edges=3)
        solver = make_solver(up, down, roots,
                             guess=route_cost(up, down, *roots, pair))
        solver.arrival_init(pair)
        path = solver.routes[0][0].funnels[0].net
        path.set_capacities([0.5, 0.0, 0.25])
        for bad in ([0.75, 0.5], [0.75, -1.0, 0.5], [0.75, math.nan, 0.5]):
            with pytest.raises(flows.FlowError):
                path.set_capacities(bad)
            assert path.capacity == [0.5, 0.0, 0.25]

    def test_a_nan_capacity_variable_stops_the_step(self):
        # the path pass computes a NaN capacity for the arc, and the path
        # refuses the whole list: no capacity and no state moves
        up, down, roots, pair = single_path_instance(n_edges=3)
        solver = make_solver(up, down, roots,
                             guess=route_cost(up, down, *roots, pair))
        solver.arrival_init(pair)
        solver.growth_step()
        path = solver.routes[0][0].funnels[0].net
        assert isinstance(path, flows.FlowPath)
        installed = path.capacity
        bits = [cap.hex() for cap in installed]
        assert all(cap > 0.0 for cap in installed)
        solver.up.x[0][path.route[1]] = math.nan
        state = solver_state(solver)
        with pytest.raises(flows.FlowError, match="negative or NaN"):
            solver.growth_step()
        assert path.capacity is installed
        assert [cap.hex() for cap in path.capacity] == bits
        assert solver_state(solver) == state

    def test_every_root_solve_goes_through_max_delta(self, monkeypatch):
        # perfbench's flows.* counters wrap flows.max_delta and
        # flows.cheapest_flow_curve by name: every root solve is one
        # max_delta call, and only a network side that moves runs a curve
        solved, calls = [], {"max_delta": 0, "curve": 0}
        solve_root = CompositeSolver._solve_root

        def counted_solve_root(self, rid, route):
            solved.append(route.funnels)
            return solve_root(self, rid, route)

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CompositeSolver, "_solve_root", counted_solve_root)
        monkeypatch.setattr(flows, "max_delta",
                            counted("max_delta", flows.max_delta))
        monkeypatch.setattr(flows, "cheapest_flow_curve",
                            counted("curve", flows.cheapest_flow_curve))
        run_online(load_instance(grid(2, 2, k=3, seed=5)), RunConfig(mode="edge"))
        sides = [funnel for funnels in solved for funnel in funnels]
        moving = [f for f in sides
                  if isinstance(f.net, FlowNetwork) and f.ends[0] != f.ends[1]]
        assert calls == {"max_delta": len(solved), "curve": len(moving)}
        assert moving and any(isinstance(f.net, flows.FlowPath) for f in sides)

    # sha256 of the report, LP trace and assignment trace of the h = 1 edge
    # run below, as the solve through two flow networks per root gave them
    H1_EDGE_DIGESTS = (
        "914af3ff136449d4744c726a7ebcf3f1f8c317cb60c3d1c47a5ab7f43dd6b6e5",
        "16700a63d820104579b1a65eb26653517afdcd2f54eae1af29089823f543f0b0",
        "573d6404791cb08914f52834b05d6f1dee8269b220567055373e7e1df6ace195")

    def test_h1_edge_run_builds_no_flow_network(self, monkeypatch):
        # at h = 1 every ball is one layer arc, so every funnel is a path:
        # no network is built, and the reports keep their bits
        built, solved = [], []
        network, solve = fractional.FlowNetwork, flows.max_delta
        monkeypatch.setattr(fractional, "FlowNetwork",
                            lambda *args: built.append(args) or network(*args))
        monkeypatch.setattr(flows, "max_delta",
                            lambda *args: solved.append(args) or solve(*args))
        report = run_online(load_instance(grid(2, 3, k=4, seed=11)),
                            RunConfig(mode="edge", seed=0, h=1, dmax=0.4))
        assert solved and not built
        assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
            report.to_csv(), report.lp_trace_csv(),
            report.assignment_trace_csv())) == self.H1_EDGE_DIGESTS


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
            for rid in eligible:
                paths = []
                for i, funnel in enumerate(routes[rid].funnels):
                    side, arcs = solver.sides[i], ball[rid][i]
                    assert funnel.arcs == arcs
                    # the seed is the hop-shortest path inside the ball
                    path, _ = shortest_path(side.graph, [1.0] * side.graph.m,
                                            *funnel.ends,
                                            set(arcs).__contains__)
                    assert funnel.flow == dict.fromkeys(path, solver.v0)
                    paths.append(path)
                    compared += 1
                    shrunk += len(arcs) < len(usable_arcs(side, pair))
                # a funnel whose ball is its seed path is a FlowPath along
                # it; every other funnel has a network
                for path, funnel in zip(paths, routes[rid].funnels):
                    assert funnel.net.m == len(funnel.arcs)
                    if path and len(path) == len(funnel.arcs):
                        assert funnel.net.route == tuple(path)
                    else:
                        assert isinstance(funnel.net, FlowNetwork)
                        assert funnel.net.labels == funnel.arcs
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
                    solver.growth_step()
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
        search = fractional.distances
        monkeypatch.setattr(
            fractional, "distances",
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
    """x, flows, z and objective, floats as exact bits; the dense x arrays
    are packed as doubles, so that the state is cheap to take per step."""
    return ([{r: array("d", a).tobytes() for r, a in side.x.items()}
             for side in solver.sides],
            [sorted((e, f.hex()) for e, f in funnel.flow.items())
             for _, funnel in side_funnels(solver)],
            sorted((k, v.hex()) for k, v in z_values(solver).items()),
            solver.objective.hex())


class TestStepState:
    """Funnels keep their step capacities for the pair's arrival. A network
    funnel's step recomputes only the arcs the previous committed step
    touched, and a path funnel's step recomputes its whole route in one
    pass."""

    @pytest.mark.parametrize("mode, make", [
        ("edge", lambda: grid(2, 2, k=3, seed=5)),
        ("edge", lambda: star_of_paths(3, 2, k=4, seed=2)),
        ("prize", lambda: with_penalties(grid(2, 2, k=3, seed=5), seed=5,
                                         q_range=(0.3, 4.0))),
    ])
    def test_step_capacities_match_a_fresh_recomputation(self, mode, make,
                                                         monkeypatch):
        # both step-state seams: the network's dirty recomputation and the
        # path's one pass, whose tight set must also be a fresh scan's,
        # element for element and in iteration order
        step_capacities = CompositeSolver._step_capacities
        path_capacities = CompositeSolver._path_capacities
        checked = []

        def check(self, side, rid, funnel, tight):
            expected = reference_step_capacities(side, rid, funnel, tight,
                                                 self.dmax)
            # a path funnel keeps its capacities in id order too
            assert ([cap.hex() for cap in funnel.net.capacity]
                    == [cap.hex() for cap in expected])
            checked.append(isinstance(funnel.net, flows.FlowPath))

        def checked_step_capacities(self, side, rid, funnel, tight):
            step_capacities(self, side, rid, funnel, tight)
            check(self, side, rid, funnel, tight)

        def checked_path_capacities(self, side, rid, funnel):
            x = side.x[rid]
            fresh = {e for e, f in funnel.flow.items()
                     if x[e] <= f + fractional.TIGHT_TOL}
            tight = path_capacities(self, side, rid, funnel)
            assert tight == fresh and list(tight) == list(fresh)
            check(self, side, rid, funnel, tight)
            return tight

        monkeypatch.setattr(CompositeSolver, "_step_capacities",
                            checked_step_capacities)
        monkeypatch.setattr(CompositeSolver, "_path_capacities",
                            checked_path_capacities)
        run_online(load_instance(make()), RunConfig(mode=mode))
        assert len(checked) > 100
        assert any(checked)  # some funnels are paths, with no network

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
        truncated = 0
        for index in range(2):
            for solver in (kept, fresh):
                solver.arrival_init(PairSpec(index, *ends))
            assert kept.routes[index]
            # only a network funnel keeps a set of arcs to recompute
            for _, funnel in side_funnels(kept):
                assert (hasattr(funnel, "dirty")
                        == isinstance(funnel.net, FlowNetwork))
            if index == 1:
                # both pairs share their terminals, so pair 1's funnels read
                # the x that pair 0's steps moved
                assert any(kept.sides[i].x[rid][e] > kept.v0
                           for rid, route in kept.routes[1].items()
                           for i, funnel in enumerate(route.funnels)
                           for e in funnel.arcs)
            # steps until the pair is covered, the last one truncated
            for _ in range(400):
                if kept.z_total(index) >= 1.0 - fractional.COVER_TOL:
                    break
                for _, funnel in side_funnels(fresh):
                    # recompute every arc; a path funnel always does
                    if isinstance(funnel.net, FlowNetwork):
                        funnel.dirty = set(funnel.arcs)
                dt = kept.growth_step()
                assert dt.hex() == fresh.growth_step().hex()
                truncated += dt < kept.dmax
                assert solver_state(kept) == solver_state(fresh)
            assert kept.z_total(index) >= 1.0 - fractional.COVER_TOL
        assert truncated >= 2

    def test_growth_step_needs_an_arrival(self):
        up = build_graph(2, [(0, 1, 1.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)])
        with pytest.raises(ValueError, match="no pair has arrived"):
            solver.growth_step()
        solver.arrival_init(PairSpec(0, 0, 1))
        with pytest.raises(TypeError):  # a pair index is no longer taken
            solver.growth_step(0)
        with pytest.raises(TypeError):  # nor the pair's coverage
            solver.growth_step(covered=0.0)
        # the ball at guess 1 holds no root: nothing truncates the step
        assert solver.growth_step() == solver.dmax

    def test_step_recomputes_under_half_the_funnel_arcs(self, monkeypatch):
        entries, arcs = [], []
        update = FlowNetwork.update_capacities
        monkeypatch.setattr(
            FlowNetwork, "update_capacities",
            lambda net, changed, capacities: entries.append(len(changed))
            or update(net, changed, capacities))
        solve = flows.max_delta

        def counted_solve(up, *args):
            arcs.append(up.m + args[2].m)
            return solve(up, *args)

        monkeypatch.setattr(flows, "max_delta", counted_solve)
        # longer arms than the balls of smaller stars cut down to a few arcs
        run_online(load_instance(star_of_paths(4, 3, k=6, seed=5)),
                   RunConfig(mode="edge"))
        assert sum(arcs) > 50 * len(arcs)  # the funnels stay large
        # every step recomputed every funnel arc before; now under a third
        # of them (96,211 of 339,533 entries)
        assert 2 * sum(entries) < sum(arcs)


def _node_instance():
    data = grid(2, 2, k=3, seed=5)
    data["mode"] = "node"
    data["node_costs"] = [{"v": v, "c": 0.5 + 0.25 * v, "l": 0.1 * (v + 1)}
                          for v in range(data["n"])]
    return data


class TestStepMatchesReference:
    """The growth step, its arrival loop and the flow calls they make give
    the bits of ``helpers.ReferenceStepSolver``, the step as it was staged
    and then applied before each root side took one checked pass, at every
    step and in the final state."""

    @staticmethod
    def run(make, config, monkeypatch, solver_class):
        """Per step, its length as bits, the state it left and whether it
        took the objective past ``kappa``; then the final state and the
        reports. The reference stages a step and applies it unless it would
        pass ``kappa``; a step it refuses keeps its ``d_obj`` in that last
        place, with the state before it."""
        steps = []
        if solver_class is CompositeSolver:
            step = solver_class.growth_step

            def recorded_step(self, **kwargs):
                dt = step(self, **kwargs)
                steps.append((dt.hex(), solver_state(self),
                              self.objective > self.kappa))
                return dt

            patches = {"growth_step": recorded_step}
        else:
            stage, commit = solver_class.growth_step, solver_class.apply

            def recorded_stage(self, pair_index):
                staged = stage(self, pair_index)
                steps.append((staged.dt.hex(), solver_state(self),
                              staged.d_obj))
                return staged

            def recorded_commit(self, staged):
                commit(self, staged)
                steps[-1] = (staged.dt.hex(), solver_state(self), False)

            patches = {"growth_step": recorded_stage, "apply": recorded_commit}
        with monkeypatch.context() as patch:
            for name, method in patches.items():
                patch.setattr(solver_class, name, method)
            patch.setattr(harness, "CompositeSolver", solver_class)
            inst = load_instance(make())
            pipeline = OnlinePipeline(inst, config)
            for pair in inst.pairs:
                pipeline.process(pair)
            report = pipeline.finish()
        return (steps, solver_state(pipeline.solver),
                (report.to_csv(), report.lp_trace_csv(),
                 report.assignment_trace_csv()))

    @pytest.mark.parametrize("mode, make, settings", [
        ("edge", lambda: grid(2, 2, k=3, seed=5), {}),
        ("edge", lambda: star_of_paths(3, 2, k=6, seed=109305), {}),
        # a small spend cap: some epochs overflow on a step, which the
        # reference refuses and the solver commits past kappa
        ("edge", lambda: grid(2, 2, k=3, seed=5), {"kappa": 1.0}),
        ("edge", lambda: star_of_paths(3, 2, k=6, seed=109305),
         {"kappa": 1.0}),
        ("node", _node_instance, {}),
        ("directed", lambda: random_digraph(4, 9, 2, seed=3), {}),
        ("directed", lambda: random_digraph(8, 20, 3, seed=1),
         {"h": 3, "dmax": 0.4, "seed": 1}),
        ("prize", lambda: with_penalties(grid(2, 2, k=3, seed=5), seed=5,
                                         q_range=(0.3, 4.0)), {}),
    ])
    def test_pipeline_steps_match(self, mode, make, settings, monkeypatch):
        config = RunConfig(mode=mode, **settings)
        new = self.run(make, config, monkeypatch, CompositeSolver)
        ref = self.run(make, config, monkeypatch, ReferenceStepSolver)
        steps, ref_steps = new[0], ref[0]
        assert len(steps) == len(ref_steps) > 20
        overflows = 0
        for (dt, state, over), (ref_dt, ref_state, refused) in zip(steps,
                                                                    ref_steps):
            assert dt == ref_dt
            if over:
                # committed where the reference refused: the objective is
                # the reference's plus the refused step's d_obj, bit for bit
                overflows += 1
                assert isinstance(refused, float)
                assert state[3] == (float.fromhex(ref_state[3])
                                    + refused).hex()
            else:
                assert refused is False and state == ref_state
        assert new[1:] == ref[1:]  # the final state and the reports
        assert bool(overflows) == ("kappa" in settings)
        # truncated steps: the last one of each covered arrival
        assert any(float.fromhex(dt) < config.dmax for dt, *_ in steps)

    @pytest.mark.parametrize("seed", range(6))
    def test_planned_steps_match(self, seed):
        rng = random.Random(700 + seed)
        n = 6
        up = tie_heavy_side(rng, n, True)
        down = tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        ends = rng.randrange(n), rng.randrange(n)
        dmax = rng.choice([0.05, 0.2, 0.5]) / 3.0
        new, ref = (make_solver(up, down, roots, guess=3.0, dmax=dmax,
                                cls=cls)
                    for cls in (CompositeSolver, ReferenceStepSolver))
        truncated = 0
        for index in range(2):
            # pair 1 shares pair 0's terminals, so its funnels read the x
            # that pair 0's steps moved
            for solver in (new, ref):
                solver.arrival_init(PairSpec(index, *ends))
            assert new.routes[index]
            # steps until the pair is covered, the last one truncated
            for _ in range(400):
                if new.z_total(index) >= 1.0 - fractional.COVER_TOL:
                    break
                dt, reference = new.growth_step(), ref.growth_step(index)
                assert dt.hex() == reference.dt.hex()
                ref.apply(reference)
                truncated += dt < dmax
                assert solver_state(new) == solver_state(ref)
            assert new.z_total(index) >= 1.0 - fractional.COVER_TOL
        assert truncated >= 2


class TestBallDistanceCache:
    """Without an owner filter, a side's distances into or out of a root
    vertex are searched once per epoch and shared by its pairs."""

    @pytest.mark.parametrize("make", [
        lambda: grid(2, 2, k=6, seed=1),
        lambda: star_of_paths(3, 2, k=6, seed=109305),
    ])
    def test_cached_distances_equal_fresh_searches(self, make, monkeypatch):
        # the cached dict holds exactly the fresh search's vertices within
        # BALL_LIMIT, at the same bits; its order is the settle order of
        # the distance-only kernel, which no caller reads
        distances = fractional._Side.distances
        keys = []

        def checked(self, vertex, allowed, into):
            found = distances(self, vertex, allowed, into)
            fresh = shortest_paths(self.graph, self.w, vertex,
                                   allowed=allowed, backward=into)
            assert ({v: d.hex() for v, d in found.items()}
                    == {v: d.hex() for v, (_, d) in fresh.items()
                        if d <= fractional.BALL_LIMIT})
            keys.append((id(self), vertex, into))
            return found

        monkeypatch.setattr(fractional._Side, "distances", checked)
        run_online(load_instance(make()), RunConfig(mode="edge"))
        assert len(keys) > 2 * len(set(keys))  # most lookups were cached

    @pytest.mark.parametrize("seed", range(40))
    def test_owner_filtered_balls_are_searched_per_pair(self, seed):
        # pair-owned arcs make each pair's root distances its own: three
        # pairs in one epoch, each with the reference ball's funnels
        rng = random.Random(900 + seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solver = make_solver(up, down, roots, guess=2.0, dmax=0.2)
        for index in range(3):
            pair = PairSpec(index, rng.randrange(n), rng.randrange(n))
            ball = reference_ball(solver, pair)
            assert solver.arrival_init(pair) == list(ball)
            for rid, route in solver.routes[index].items():
                assert [f.arcs for f in route.funnels] == list(ball[rid])

    def test_ball_searches_once_per_root_and_epoch(self, monkeypatch):
        # every ball search, from a pair's terminal or at a root, goes
        # through the cache of its side view: at most one per side, guess,
        # vertex and direction, however many pairs arrive, and a probe's
        # views are the ones its guess's solver starts from
        searches, made, views = [], [], []
        search = fractional.distances
        init = CompositeSolver.arrival_init

        def counted_search(graph, weight, vertex, **kwargs):
            if kwargs.get("limit") == fractional.BALL_LIMIT:
                # a view's weight list is its own; kept, so ids stay unique
                views.append(weight)
                searches.append((id(weight), vertex, kwargs["backward"]))
            return search(graph, weight, vertex, **kwargs)

        def counted_init(self, pair):
            before = len(searches)
            eligible = init(self, pair)
            made.append(len(searches) - before)
            return eligible

        monkeypatch.setattr(fractional, "distances", counted_search)
        monkeypatch.setattr(CompositeSolver, "arrival_init", counted_init)
        run_online(load_instance(star_of_paths(3, 2, k=6, seed=109305)),
                   RunConfig(mode="edge"))
        assert searches and len(searches) == len(set(searches))
        # a pair whose terminals an earlier pair of the epoch shares, and
        # whose roots it searched, searches nothing
        assert 0 in made


@pytest.fixture
def seed_checks(monkeypatch):
    """Checks every seed path against ``shortest_path``'s hop-metric answer
    over the ball's arcs, ``Unreachable`` included, and counts how each was
    found ("walk" or "search"), the balls whose ends are one vertex
    ("same ends") and the balls that hold no path ("cut")."""
    seen = {"walk": 0, "search": 0, "same ends": 0, "cut": 0}
    seed_path, search = fractional._Side.seed_path, fractional.shortest_path
    searches = []

    def counted_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    def checked(self, arcs, ends):
        made = len(searches)
        try:
            path = seed_path(self, arcs, ends)
        except Unreachable:
            path = None
        seen["walk" if len(searches) == made else "search"] += 1
        try:
            expected, _ = search(self.graph, self.unit, *ends,
                                 set(arcs).__contains__)
        except Unreachable:
            expected = None
        assert path == expected
        seen["same ends"] += ends[0] == ends[1]
        if path is None:
            seen["cut"] += 1
            raise Unreachable("cut")
        return path

    monkeypatch.setattr(fractional, "shortest_path", counted_search)
    monkeypatch.setattr(fractional._Side, "seed_path", checked)
    return seen


class TestSeedWalk:
    """A ball in which no two arcs share a tail seeds along the walk from
    its source, the only path in it, and any other ball is searched: either
    way the seed is ``shortest_path``'s hop-metric path, or
    ``Unreachable``."""

    def test_pipelines(self, seed_checks):
        for data, mode, config in (
                (grid(2, 2, k=4, seed=2), "edge", {}),
                (grid(2, 3, k=3, seed=4), "edge", {}),
                (star_of_paths(3, 2, k=6, seed=109305), "edge", {}),
                (star_of_paths(4, 1, k=4, seed=3), "edge", {}),
                (random_digraph(5, 10, 3, seed=27), "directed",
                 {"h": 2, "dmax": 0.4}),
                (with_penalties(grid(2, 3, k=3, seed=31), 31,
                                q_range=(0.3, 4.0)), "prize",
                 {"h": 1, "dmax": 0.4})):
            run_online(load_instance(data), RunConfig(mode=mode, **config))
        assert seed_checks["walk"] and seed_checks["search"]

    def test_tie_heavy_sides_and_a_cut_ball(self, seed_checks):
        # a root may be a pair's terminal, so some sides have one end; the
        # instance of the rounding test cuts its ball at the bound
        for seed in range(30):
            rng = random.Random(seed)
            n = 6
            up = tie_heavy_side(rng, n, True)
            down = tie_heavy_side(rng, n, False)
            roots = [RootSpec(r, r, r) for r in range(n)]
            for guess in (0.6, 1.0, 2.5):
                solver = make_solver(up, down, roots, guess=guess)
                for index in range(2):
                    solver.arrival_init(PairSpec(index, rng.randrange(n),
                                                 rng.randrange(n)))
        a, b, c = 0.19150488850818106, 0.38358120866617673, 0.4249139038256424
        up = build_graph(4, [(0, 1, a, 0.0), (1, 2, b, 0.0), (2, 3, c, 0.0)])
        solver = make_solver(up, build_graph(1, []), [RootSpec(0, 3, 0)])
        assert solver.arrival_init(PairSpec(0, 0, 0)) == []
        assert all(seed_checks.values()), seed_checks


class TestReachability:
    """An arrival with no eligible root is ``LP_INFEASIBLE`` exactly when
    no root is reachable under the pair's owner rule, at any guess, and
    ``GUESS_TOO_SMALL`` otherwise."""

    @staticmethod
    def _check(make_sides, seed, counts):
        rng = random.Random(400 + seed)
        n = 6
        pairs = [PairSpec(index, rng.randrange(n), rng.randrange(n),
                          penalty=rng.choice([None, None, 0.5, 3.0]))
                 for index in range(3)]
        (up, down), roots = make_sides(rng, n, pairs)
        for guess in (0.3, 1.0):
            solver = make_solver(up, down, roots, guess=guess)
            unfiltered = make_solver(
                SideGraph(up.graph, upward=True),
                SideGraph(down.graph, upward=False), roots, guess=guess)
            for pair in pairs:
                reachable = reference_reaches_a_root(solver, pair)
                ball = reference_ball(solver, pair)
                eligible = solver.arrival_init(pair)
                assert eligible == (list(ball) if reachable else None)
                outcome = make_solver(up, down, roots,
                                      guess=guess).on_arrival(pair)
                if not reachable:
                    assert outcome == ArrivalOutcome.LP_INFEASIBLE
                    counts["infeasible"] += 1
                    # the arcs other pairs own cut it off
                    counts["owned off"] += reference_reaches_a_root(
                        unfiltered, pair)
                elif not ball:
                    assert outcome == ArrivalOutcome.GUESS_TOO_SMALL
                    counts["too small"] += 1

    def test_owner_filters(self):
        def sides(rng, n, pairs):
            # few roots, so that some pairs reach none
            return ((tie_heavy_side(rng, n, True),
                     tie_heavy_side(rng, n, False)),
                    [RootSpec(r, r, r) for r in rng.sample(range(n), 2)])

        counts = {"infeasible": 0, "too small": 0, "owned off": 0}
        for seed in range(60):
            self._check(sides, seed, counts)
        assert all(counts.values()), counts

    def test_prize_owner_filters(self):
        # the virtual root is reachable only over the pair's own discard
        # arcs, and a pair without a penalty has none
        def sides(rng, n, pairs):
            # sparse, so that some pairs reach no root
            bare = [SideGraph(tie_heavy_graph(rng, n, n, True), upward)
                    for upward in (True, False)]
            augmented, virtual = augment(bare, pairs)
            return augmented, [RootSpec(r, r, r)
                               for r in rng.sample(range(n), 1)] + [virtual]

        counts = {"infeasible": 0, "too small": 0, "owned off": 0}
        for seed in range(80):
            self._check(sides, seed, counts)
        assert all(counts.values()), counts
