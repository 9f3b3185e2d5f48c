"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and the recorded empirical constants.
"""

import itertools
import math
import random
import time

import pytest

from bulkflow.flows import FlowNetwork, max_delta
from bulkflow.generate import grid, random_digraph, star_of_paths, with_penalties
from bulkflow.graph import SolutionLedger, TerminalPair, solution_cost
from bulkflow.harness import OnlinePipeline, RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.junction import build_junction_forest, map_to_gst
from bulkflow.layering import build_layered, pull_back
from bulkflow.oracle import (OracleBudget, junction_opt, offline_opt,
                             ss_offline_opt)
from bulkflow.rounding import Assignment, choose_root, draw_thresholds, scaled_min_cut
from helpers import (assert_forest_routes_cross_their_root,
                     random_two_metric, z_values)
from test_fractional import make_solver, route_cost, single_path_instance
from test_flows import linprog_min_cost, random_network


def _suite_instances():
    """The 100-instance LP feasibility suite (n <= 20, k <= 8)."""
    rng = random.Random("acceptance-1")
    cases = []
    for i in range(70):
        n = rng.randint(5, 9)
        cases.append((random_digraph(n, rng.randint(n + 2, 2 * n + 4),
                                     rng.randint(2, 4), seed=1000 + i),
                      dict(h=1, dmax=0.5)))
    for i in range(20):
        n = rng.randint(10, 14)
        cases.append((random_digraph(n, rng.randint(n + 4, 2 * n + 6),
                                     rng.randint(3, 6), seed=2000 + i),
                      dict(h=1, dmax=0.5)))
    for i in range(10):
        n = rng.randint(15, 20)
        cases.append((random_digraph(n, rng.randint(n + 6, 2 * n),
                                     rng.randint(2, 4), seed=3000 + i),
                      dict(h=1 if i % 2 else 2, dmax=0.5)))
    return cases


def test_acceptance_1_lp_feasibility_suite():
    """Criterion 1: LP invariants after every arrival, 100 seeds, <= 60 s."""
    started = time.perf_counter()
    instances = _suite_instances()
    assert len(instances) == 100
    arrivals_checked = 0
    for idx, (data, kw) in enumerate(instances):
        inst = load_instance(data, name=f"c1-{idx}")
        pipeline = OnlinePipeline(inst, RunConfig(mode="edge", seed=idx, **kw))
        snapshot = None
        for pair in inst.pairs:
            pipeline.process(pair)
            if pipeline.solver is None:
                continue
            completed = [s.index for s in pipeline.arrived]
            pipeline.solver.check_invariants(completed)
            arrivals_checked += 1
            state = (pipeline.epoch,
                     z_values(pipeline.solver),
                     {r: tuple(a) for r, a in pipeline.solver.up.x.items()})
            if snapshot is not None and snapshot[0] == state[0]:
                for key, old in snapshot[1].items():
                    assert state[1][key] >= old, "z decreased"
                for r, old_arr in snapshot[2].items():
                    assert all(new >= old for new, old
                               in zip(state[2][r], old_arr)), "x decreased"
            snapshot = state
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"suite took {elapsed:.1f}s (budget 60s)"
    print(f"\nACCEPTANCE 1: PASS - invariants held after {arrivals_checked} "
          f"arrivals across 100 instances in {elapsed:.1f}s")


def test_acceptance_2_rounding_domination():
    """Criterion 2: scaled min-cuts >= 1 - 1e-6; fallback rate <= 2%."""
    data = random_digraph(16, 40, 4, seed=160)
    inst = load_instance(data, name="c2")
    pipeline = OnlinePipeline(inst, RunConfig(mode="edge", seed=0, h=1,
                                              dmax=0.4))
    for pair in inst.pairs:
        pipeline.process(pair)
    # pair 2's cheapest route costs 14.45, above the 9.72 its predecessors
    # set: the ball cuts it off, so the guess doubles once instead of the
    # pair falling back, and the draws below run in that second epoch
    assert pipeline.epoch == 1, "criterion-2 instance must double exactly once"
    assert [r.epoch for r in pipeline.records] == [0, 0, 1, 1]
    solver = pipeline.solver
    decisions = 0
    fallbacks = 0
    assigned_checked = 0
    for seed in range(200):
        draw = draw_thresholds(pipeline.root_ids, pipeline.n_scale,
                               f"c2:{seed}")
        for pair in inst.pairs:
            label, root = choose_root(solver, draw, pair.index)
            decisions += 1
            if label == Assignment.FALLBACK:
                fallbacks += 1
                continue
            assert label == Assignment.ASSIGNED
            for side in ("up", "down"):
                cut = scaled_min_cut(solver, draw, pair.index, root, side)
                assert cut >= 1 - 1e-6, f"cut {cut} below 1 on {side}"
            assigned_checked += 1
    rate = fallbacks / decisions
    assert rate <= 0.02, f"fallback rate {rate:.3%} above 2%"
    print(f"\nACCEPTANCE 2: PASS - {assigned_checked} assigned decisions "
          f"dominated; fallback rate {rate:.3%} over {decisions} decisions")


def _oracle_suite():
    """30 bundled instances inside the oracle budgets (keys <= 16, k <= 4)."""
    cases = []
    for i in range(6):
        cases.append(grid(2, 2, k=2 + i % 3, seed=40 + i))
    for i in range(6):
        cases.append(grid(2, 3, k=2 + i % 3, seed=50 + i))
    for i in range(4):
        cases.append(grid(2, 4, k=2 + i % 3, seed=60 + i))
    for i in range(8):
        n = 4 + i % 3
        cases.append(random_digraph(n, min(16, n + 4 + i), 2 + i % 3,
                                    seed=70 + i))
    for i in range(6):
        cases.append(star_of_paths(3, 2, k=2 + i % 3, seed=80 + i))
    return cases


def test_acceptance_3_oracle_ratio_suite():
    """Criterion 3: finite ratios <= 50; junction >= offline; <= 5 min."""
    started = time.perf_counter()
    cases = _oracle_suite()
    assert len(cases) == 30
    ratios = []
    for idx, data in enumerate(cases):
        inst = load_instance(data, name=f"c3-{idx}")
        report = run_online(inst, RunConfig(mode="edge", seed=idx, h=1,
                                            dmax=0.4, oracle=True))
        assert report.opt is not None and report.opt > 0
        assert report.ratio is not None and math.isfinite(report.ratio)
        assert report.ratio <= 50.0, f"instance {idx} ratio {report.ratio}"
        assert report.junction_opt_value is not None
        assert report.junction_opt_value >= report.opt - 1e-9
        ratios.append(report.ratio)
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0
    geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    print(f"\nACCEPTANCE 3: PASS - 30 instances, max ratio {max(ratios):.2f}, "
          f"geometric mean {geo:.2f}, junction >= offline everywhere, "
          f"{elapsed:.1f}s")


def test_acceptance_4_layering_inequalities():
    """Criterion 4: pull-back never gains; forward factor <= 4 h k^(1/h)."""
    rng = random.Random("acceptance-4")
    # pull-back inequality on random layered solutions
    pullback_checks = 0
    for _ in range(25):
        g = random_two_metric(rng, rng.randint(3, 6), 10, ensure_cycle=True)
        h = rng.randint(1, 3)
        layer = build_layered(g, k=rng.randint(1, 4), h=h)
        ledger = SolutionLedger()
        for pair, v in enumerate(range(g.n)):
            node = layer.vertex(v, h)
            path = []
            while layer.level_of(node) > 0:
                arcs = layer.graph.out_arcs[node]
                if not arcs:
                    path = None
                    break
                a = rng.choice(arcs)
                path.append(a)
                node = layer.graph.head[a]
            if path:
                ledger.add_path(layer.graph, pair, path)
        if not ledger.paths:
            continue
        layered_total = solution_cost(layer.graph, ledger)[2]
        pulled_total = solution_cost(g, pull_back(layer, ledger))[2]
        assert pulled_total <= layered_total + 1e-9
        pullback_checks += 1

    # forward factor on a bundled n <= 6 single-sink suite
    factors = []
    for i in range(10):
        n = rng.randint(3, 6)
        g = random_two_metric(rng, n, rng.randint(n, 2 * n),
                              ensure_cycle=True)
        root = 0
        k = rng.randint(1, 4)
        terminals = [rng.randrange(1, n) for _ in range(k)]
        h = 1 + i % 2
        base_opt, _ = offline_opt(g, [TerminalPair(j, t, root)
                                      for j, t in enumerate(terminals)])
        layer = build_layered(g, k=k, h=h)
        layered_opt = ss_offline_opt(
            layer.graph, [layer.vertex(t, h) for t in terminals],
            layer.vertex(root, 0), budget=OracleBudget(max_ss_terminals=4))
        bound = 4.0 * h * k ** (1.0 / h)
        factor = layered_opt / base_opt
        assert factor <= bound, f"factor {factor} above {bound}"
        factors.append(factor / (h * k ** (1.0 / h)))
    print(f"\nACCEPTANCE 4: PASS - pull-back <= layered on {pullback_checks} "
          f"solutions; forward constants C (factor / (h k^(1/h))): "
          f"max {max(factors):.2f}, mean {sum(factors)/len(factors):.2f}")


def test_acceptance_5_directed_reduction():
    """Criterion 5: GST bijection exact; one root link per route; factor."""
    rng = random.Random("acceptance-5")
    # (a) bijection on exhaustive <= 8-leaf instances, both sides
    bijection_checks = 0
    for trial in range(6):
        g = random_two_metric(rng, 3, 6, ensure_cycle=True)
        sources = [rng.randrange(3)]
        sinks = [rng.randrange(3)]
        forest = build_junction_forest(g, k=1, h=2, sources=sources,
                                       sinks=sinks)
        for side, terms in (("up", sources), ("down", sinks)):
            sub = map_to_gst(forest, side, rng.randrange(3), terminals=terms)
            if sub.infeasible_terminals:
                continue
            groups = [sub.instance.groups[gid]
                      for gid in sorted(sub.instance.groups)]
            assert sum(len(gr) for gr in groups) <= 8
            for combo in itertools.product(*groups):
                connections = dict(enumerate(combo))
                weight = sub.solution_weight(connections)
                h_total = solution_cost(forest.graph,
                                        sub.to_forest_ledger(connections))[2]
                assert h_total == pytest.approx(weight, abs=1e-12)
                bijection_checks += 1

    # (b) junction structure of every routed pair in directed pipeline runs
    routed = 0
    for seed in range(4):
        data = random_digraph(4, 9, 2, seed=500 + seed)
        inst = load_instance(data, name=f"c5-{seed}")
        pipeline = OnlinePipeline(inst, RunConfig(mode="directed", seed=seed,
                                                  h=2, dmax=0.4))
        for pair in inst.pairs:
            pipeline.process(pair)
        pipeline.finish()
        routed += assert_forest_routes_cross_their_root(pipeline)
    assert routed

    # (c) tree-instance optimum within 4 h k^(1/h) of the junction optimum
    factors = []
    for trial in range(5):
        n, h = 3 + trial % 2, 1 + trial % 2
        g = random_two_metric(rng, n, 2 * n, ensure_cycle=True)
        k = 2
        pairs = []
        for j in range(k):
            s, t = rng.sample(range(n), 2)
            pairs.append(TerminalPair(j, s, t))
        forest = build_junction_forest(g, k=k, h=h,
                                       sources=[p.s for p in pairs],
                                       sinks=[p.t for p in pairs])
        budget = OracleBudget(max_ss_terminals=4)
        best = math.inf
        for assignment in itertools.product(range(n), repeat=k):
            total = 0.0
            by_root = {}
            for p, r in zip(pairs, assignment):
                srcs, snks = by_root.setdefault(r, ([], []))
                srcs.append(forest.source_vertex[p.s])
                snks.append(forest.sink_vertex[p.t])
            try:
                for r, (srcs, snks) in by_root.items():
                    total += ss_offline_opt(forest.graph, srcs,
                                            forest.up_root[r], "sink", budget)
                    total += ss_offline_opt(forest.graph, snks,
                                            forest.down_root[r], "source",
                                            budget)
            except Exception:
                continue
            best = min(best, total)
        junc = junction_opt(g, pairs)
        bound = 4.0 * h * k ** (1.0 / h)
        factor = best / junc
        assert factor <= bound, f"factor {factor} above {bound}"
        factors.append(factor / (h * k ** (1.0 / h)))
    print(f"\nACCEPTANCE 5: PASS - {bijection_checks} bijection identities, "
          f"{routed} routed pairs each over one root link, tree-factor "
          f"constants max {max(factors):.2f}")


def test_acceptance_6_fractional_calibration():
    """Criterion 6: single-path z-trajectory within 5% of the ODE."""
    n_edges, l = 8, 0.75
    up, down, roots, pair = single_path_instance(n_edges=n_edges, l=l)
    # the guess holds the route; steps of 0.05 / guess keep dt / L as at
    # guess 1, which bounds the Euler error of the discrete steps
    guess = route_cost(up, down, *roots, pair)
    solver = make_solver(up, down, roots, n_scale=10, dmax=0.05 / guess,
                         guess=guess)
    L = n_edges * l / guess
    solver.arrival_init(pair)
    t = 0.0
    z0 = solver.v0
    worst = 0.0
    steps = 0
    while solver.z_total(0) < 1 - 1e-12 and steps < 5000:
        steps += 1
        t += solver.growth_step()
        z = solver.z_total(0)
        expected = min(1.0, z0 * math.exp(t / L))
        deviation = abs(z - expected) / expected
        worst = max(worst, deviation)
        assert deviation <= 0.05, f"step {steps}: deviation {deviation:.3%}"
    assert solver.z_total(0) >= 1 - 1e-9
    print(f"\nACCEPTANCE 6: PASS - {steps} steps, worst trajectory deviation "
          f"{worst:.2%} (tolerance 5%)")


def test_acceptance_7_flow_engine_oracle_equivalence():
    """Criterion 7: min-cost flow vs LP oracle 1e-7; closed forms 1e-8."""
    from bulkflow.flows import FlowError, max_flow, min_cost_flow
    rng = random.Random("acceptance-7")
    checked = 0
    trials = 0
    while checked < 100 and trials < 1000:
        trials += 1
        net = random_network(rng)
        try:
            full = max_flow(net, 0, net.n - 1)
        except FlowError:
            continue
        if full.value < 1e-6:
            continue
        target = rng.uniform(0.1, 1.0) * full.value
        expected = linprog_min_cost(net, 0, net.n - 1, target)
        result = min_cost_flow(net, 0, net.n - 1, target)
        assert abs(result.total_cost - expected) <= 1e-7
        checked += 1
    assert checked == 100

    # closed forms on path networks
    up = FlowNetwork(3, [0, 1], [1, 2], [0.1, math.inf], [2.0, 0.0])
    down = FlowNetwork(2, [0], [1], [math.inf], [1.0])
    assert abs(max_delta(up, 0, 2, down, 0, 1, 0.5)[0] - 0.1) <= 1e-8
    up2 = FlowNetwork(2, [0], [1], [math.inf], [4.0])
    down2 = FlowNetwork(2, [0], [1], [math.inf], [1.0])
    assert abs(max_delta(up2, 0, 1, down2, 0, 1, 1.0)[0] - 0.25) <= 1e-8
    assert max_delta(up2, 0, 1, down2, 0, 1, 0.0)[0] == 0.0
    print("\nACCEPTANCE 7: PASS - 100 LP-oracle matches within 1e-7, "
          "closed forms within 1e-8")


def test_acceptance_8_prize_collecting():
    """Criterion 8: q=0 free, q=1e12 matches plain, total <= sum of q."""
    zero = with_penalties(grid(2, 3, k=3, seed=90), seed=0, q_range=(0.0, 0.0))
    report = run_online(load_instance(zero), RunConfig(mode="prize", seed=0))
    assert report.online_total == pytest.approx(0.0)

    base = grid(2, 3, k=3, seed=91)
    huge = with_penalties(base, seed=0, q_range=(1e12, 1e12))
    matched = 0
    for seed in range(50):
        plain = run_online(load_instance(base),
                           RunConfig(mode="edge", seed=seed))
        prized = run_online(load_instance(huge),
                            RunConfig(mode="prize", seed=seed))
        assert ([(a.outcome, a.root) for a in plain.arrivals]
                == [(a.outcome, a.root) for a in prized.arrivals])
        matched += 1

    capped = 0
    for seed in range(8):
        data = with_penalties(grid(2, 3, k=3, seed=92 + seed), seed=seed,
                              q_range=(0.3, 4.0))
        rep = run_online(load_instance(data), RunConfig(mode="prize", seed=seed))
        total_q = sum(p["q"] for p in data["pairs"])
        assert rep.online_total <= total_q + 1e-9
        capped += 1
    print(f"\nACCEPTANCE 8: PASS - zero-penalty total 0, {matched} seeds "
          f"matched plain mode, penalty cap held on {capped} runs")


def test_acceptance_9_determinism():
    """Criterion 9: identical seed and config give byte-identical reports."""
    variants = [
        (grid(3, 3, k=4, seed=93), RunConfig(mode="edge", seed=5, h=1,
                                             dmax=0.4, oracle=True)),
        (random_digraph(5, 12, 3, seed=94),
         RunConfig(mode="directed", seed=2, h=2, dmax=0.4)),
        (with_penalties(grid(2, 3, k=3, seed=95), seed=1, q_range=(0.5, 3.0)),
         RunConfig(mode="prize", seed=9)),
    ]
    for data, config in variants:
        first = run_online(load_instance(data), config)
        second = run_online(load_instance(data), config)
        assert first.to_csv() == second.to_csv()
        assert first.assignment_trace_csv() == second.assignment_trace_csv()
    print("\nACCEPTANCE 9: PASS - byte-identical reports across 3 modes")
