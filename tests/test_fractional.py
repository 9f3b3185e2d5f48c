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
from bulkflow.fractional import (ArrivalOutcome, CompositeSolver, PairSpec,
                                 RootSpec, SideGraph, SolverConfig)
from bulkflow.graph import TwoMetricGraph, shortest_path
from bulkflow.junction import build_junction_forest
from helpers import build_graph, random_two_metric

BIG_KAPPA = 1e9


def make_solver(up, down, roots, n_scale=10, guess=1.0, kappa=BIG_KAPPA,
                dmax=0.05):
    """A solver over two sides; bare graphs become sides without owners."""
    if not isinstance(up, SideGraph):
        up, down = SideGraph(up, upward=True), SideGraph(down, upward=False)
    cfg = SolverConfig(kappa=kappa, dmax=dmax)
    return CompositeSolver(up, down, roots, n_scale, guess, cfg)


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
        up = build_graph(3, [(0, 1, 3.0, 0.1), (1, 2, 0.5, 0.1)])
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        solver = make_solver(up, down, [RootSpec(0, 2, 0)], guess=1.0)
        assert not solver.up.alive[0]  # c = 3 x the guess
        assert solver.up.alive[1]
        assert solver.up.x[0][0] == 0.0

    def test_initial_objective_is_small(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots, n_scale=10)
        n_vars = sum(solver.up.alive) + sum(solver.down.alive)
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


class TestArrivalInit:
    def test_seeds_eligible_roots(self):
        up, down, roots, pair = single_path_instance()
        solver = make_solver(up, down, roots)
        eligible = solver.arrival_init(pair)
        assert eligible == [0]
        assert solver.z[(0, 0)] == pytest.approx(solver.v0)
        # the seed flow follows the unique path, one unit of v0 per edge
        assert all(f == pytest.approx(solver.v0)
                   for f in solver.up.flow[(0, 0)].values())
        assert len(solver.up.flow[(0, 0)]) == 8

    def test_disconnected_root_excluded(self):
        up = build_graph(4, [(0, 1, 0.1, 0.1)])  # vertex 2 unreachable
        down = build_graph(2, [(0, 1, 0.1, 0.1)])
        roots = [RootSpec(0, 1, 0), RootSpec(1, 2, 0)]
        solver = make_solver(up, down, roots)
        eligible = solver.arrival_init(PairSpec(0, up_source=0, down_sink=1))
        assert eligible == [0]

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


class TestTightEdges:
    def _state(self):
        up = build_graph(2, [(0, 1, 0.5, 0.1)])
        down = build_graph(2, [(0, 1, 0.5, 0.1)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))
        return solver

    def test_source_side_tight(self):
        solver = self._state()
        solver.up.x[0][0] = 0.5
        solver.up.flow[(0, 0)][0] = 0.5
        up_tight, _ = solver.tight_edges(0, 0)
        assert up_tight == {0}

    def test_sink_side_tight(self):
        solver = self._state()
        solver.up.x[0][0] = 0.5
        solver.up.flow[(0, 0)][0] = 0.3
        solver.down.x[0][0] = 0.5
        solver.down.flow[(0, 0)][0] = 0.5
        up_tight, down_tight = solver.tight_edges(0, 0)
        assert up_tight == set() and down_tight == {0}

    def test_loose_everywhere(self):
        solver = self._state()
        solver.up.x[0][0] = 0.5
        solver.up.flow[(0, 0)][0] = 0.3
        solver.down.flow[(0, 0)][0] = 0.2
        solver.down.x[0][0] = 0.5
        up_tight, down_tight = solver.tight_edges(0, 0)
        assert up_tight == set() and down_tight == set()


class TestGrowthStep:
    def test_tight_edge_doubles_over_ln2(self):
        up = build_graph(2, [(0, 1, 1.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))
        solver.up.x[0][0] = 0.1
        solver.up.flow[(0, 0)][0] = 0.1  # tight at x = 0.1, c = 1
        solver.apply(solver.growth_step(0, dt=math.log(2)))
        assert solver.up.x[0][0] == pytest.approx(0.2)

    def test_zero_cost_tight_edge_jumps_to_one(self):
        up = build_graph(2, [(0, 1, 0.0, 0.1)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))
        # the seed put flow at x's level, so the arc starts tight
        solver.apply(solver.growth_step(0, dt=0.01))
        assert solver.up.x[0][0] == 1.0

    def test_blocked_roots_only_grow_x(self):
        up = build_graph(2, [(0, 1, 0.5, 0.5)])
        down = build_graph(2, [(0, 1, 0.01, 0.0)])
        solver = make_solver(up, down, [RootSpec(0, 1, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))
        # zero out the budget by hand: positive lengths then give delta = 0
        solver.z[(0, 0)] = 0.0
        solver.up.flow[(0, 0)][0] = solver.up.x[0][0]  # keep the edge tight
        x_before = solver.up.x[0][0]
        step = solver.growth_step(0, dt=0.05)
        solver.apply(step)
        assert step.solutions[0].delta == 0.0
        assert solver.z[(0, 0)] == 0.0
        assert solver.up.x[0][0] > x_before

    def test_flow_stays_within_capacity(self):
        rng = random.Random(1)
        up = build_graph(4, [(0, 1, 0.3, 0.2), (1, 3, 0.4, 0.1),
                             (0, 2, 0.2, 0.3), (2, 3, 0.1, 0.2)])
        down = build_graph(2, [(0, 1, 0.05, 0.05)])
        solver = make_solver(up, down, [RootSpec(0, 3, 0)])
        solver.arrival_init(PairSpec(0, 0, 1))
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
            return (dict(solver.z),
                    [{k: dict(v) for k, v in side.flow.items()}
                     for side in solver.sides],
                    [{r: list(a) for r, a in side.x.items()}
                     for side in solver.sides],
                    solver.objective)

        before = state()
        step = solver.growth_step(0)
        assert state() == before
        assert step.pair == 0 and step.staged_x and step.d_obj > 0.0
        solver.apply(step)
        assert solver.objective == before[3] + step.d_obj
        assert solver.z[(0, 0)] == before[0][(0, 0)] + (
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
        solver = make_solver(up, down, roots, kappa=kappa, dmax=0.2)
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
        solver = make_solver(up, down, roots)
        with pytest.raises(RuntimeError):
            solver.on_arrival(pair)


def test_check_pair_raises_under_python_optimize():
    script = textwrap.dedent('''
        import sys
        from bulkflow.fractional import (ArrivalOutcome, CompositeSolver,
                                         PairSpec, RootSpec, SideGraph,
                                         SolverConfig)
        from bulkflow.graph import TwoMetricGraph

        up = TwoMetricGraph(4)
        for i in range(3):
            up.add_arc(i, i + 1, 0.01, 0.2)
        down = TwoMetricGraph(2)
        down.add_arc(0, 1, 0.01, 0.0)
        solver = CompositeSolver(SideGraph(up.freeze(), upward=True),
                                 SideGraph(down.freeze(), upward=False),
                                 [RootSpec(0, up_vertex=3, down_vertex=0)],
                                 10, 1.0, SolverConfig(kappa=1e9, dmax=0.3))
        pair = PairSpec(index=0, up_source=0, down_sink=1)
        if solver.on_arrival(pair) != ArrivalOutcome.SATISFIED:
            sys.exit("arrival not satisfied")
        solver.check_pair(0)
        flows = solver.up.flow[(0, 0)]
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
        # one source-root path of total length L, free down side: the
        # coverage ODE is dz/dt = z / L starting from n**-5
        n_edges, l = 8, 0.75
        up, down, roots, pair = single_path_instance(n_edges=n_edges, l=l)
        solver = make_solver(up, down, roots, n_scale=10, dmax=0.05)
        L = n_edges * l
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
        solver = make_solver(up.graph, down.graph, roots)
        eligible = solver.arrival_init(
            PairSpec(0, up.vertex(0, 2), down.vertex(2, 2)))
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
            return (dict(solver.z), {k: dict(v) for k, v in solver.up.flow.items()},
                    {r: list(a) for r, a in solver.up.x.items()},
                    solver.objective)
        assert run() == run()


def tie_heavy_side(rng, n, upward):
    """A random side graph with parallel arcs, many equal lengths, zero-cost
    and zero-length arcs, arcs the unit guess prunes and pair-owned arcs."""
    g = TwoMetricGraph(n, directed=True)
    for _ in range(5 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_arc(u, v, rng.choice([0.0, 0.25, 0.25, 2.0]),
                      rng.choice([0.0, 0.5, 0.5, 1.5]))
    owner = {e: rng.randrange(2) for e in range(g.m) if rng.random() < 0.2}
    return SideGraph(g.freeze(), upward=upward, owner=owner)


def usable_arcs(side, pair):
    """Every arc the pair may use on a side, ignoring where it leads."""
    allowed = side.side_graph.allowed(pair.index)
    return [e for e in range(side.graph.m)
            if side.alive[e] and (allowed is None or allowed(e))]


class TestFunnel:
    @pytest.mark.parametrize("seed", range(8))
    def test_funnel_network_matches_full_usable_network(self, seed):
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solver = make_solver(up, down, roots, dmax=0.2)
        assert not all(solver.up.alive) and up.owner
        compared = shrunk = 0
        for index in range(2):
            pair = PairSpec(index, rng.randrange(n), rng.randrange(n))
            eligible = solver.arrival_init(pair)
            for rid, side in itertools.product(eligible, solver.sides):
                # the seed is the hop-shortest path over all usable arcs
                usable = set(usable_arcs(side, pair)).__contains__
                path, _ = shortest_path(side.graph, lambda e: 1.0,
                                        *side.side_graph.ends(pair, roots[rid]),
                                        usable)
                assert side.flow[(rid, index)] == dict.fromkeys(path, solver.v0)
            for _ in range(4):
                if not eligible or solver.z_total(index) >= 1.0 - 1e-12:
                    break
                # the full step reads the cached growth factors, 0.07 not
                for rid, dt in itertools.product(eligible, (0.2, 0.07)):
                    key = (rid, index)
                    funnel_step = solver._solve_root(pair, rid, dt)
                    funnels = [side.funnels[key] for side in solver.sides]
                    try:
                        for side in solver.sides:
                            side.funnels[key] = fractional._Funnel(
                                side, usable_arcs(side, pair), 0.2)
                        full_step = solver._solve_root(pair, rid, dt)
                    finally:
                        for side, funnel in zip(solver.sides, funnels):
                            side.funnels[key] = funnel
                    # same delta and, mapped back to arc ids, the same flows
                    assert funnel_step == full_step
                    compared += 1
                    shrunk += any(len(funnel.arcs) < len(usable_arcs(side, pair))
                                  for side, funnel in zip(solver.sides,
                                                          funnels))
                solver.apply(solver.growth_step(index))
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
        assert all(solver.up.alive)
        source, sink = forest.source_vertex[s], forest.sink_vertex[t]
        eligible = solver.arrival_init(PairSpec(0, source, sink))
        assert eligible
        graph = forest.graph
        for rid in eligible:
            up = solver.up.funnels[(rid, 0)].arcs
            down = solver.down.funnels[(rid, 0)].arcs
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
        # a step of 0.07 reads exp(dt/c) from the funnel when dmax is 0.07
        # and computes it when dmax is 0.2; both must give the same step
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solvers = [make_solver(up, down, roots, dmax=dmax)
                   for dmax in (0.07, 0.2)]
        compared = 0
        for index in range(2):
            pair = PairSpec(index, rng.randrange(n), rng.randrange(n))
            for solver in solvers:
                solver.arrival_init(pair)
            for _ in range(3):
                steps = [solver.growth_step(index, dt=0.07) for solver in solvers]
                assert steps[0].solutions == steps[1].solutions
                compared += len(steps[0].solutions)
                for solver, step in zip(solvers, steps):
                    solver.apply(step)
        assert compared

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_terminal_searched_once_per_side(self, seed, monkeypatch):
        rng = random.Random(seed)
        n = 6
        up, down = tie_heavy_side(rng, n, True), tie_heavy_side(rng, n, False)
        roots = [RootSpec(r, r, r) for r in range(n)]
        solver = make_solver(up, down, roots, dmax=0.2)
        calls = []
        for name in ("reachable_from", "reaches"):
            search = getattr(fractional, name)
            monkeypatch.setattr(
                fractional, name,
                lambda *args, search=search: calls.append(args) or search(*args))
        for index in range(2):
            calls.clear()
            solver.arrival_init(PairSpec(index, rng.randrange(n),
                                         rng.randrange(n)))
            # one search from each side's pair terminal, one per root and side
            assert len(calls) <= 2 + 2 * len(roots)

