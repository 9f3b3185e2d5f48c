"""Cross-module property suites: empirical constants recorded, bounds loose."""

import hashlib
import importlib
import math
import pkgutil
import random
import time

import pytest

import bulkflow
from bulkflow import flows
from bulkflow.fractional import ArrivalOutcome, CompositeSolver
from bulkflow.generate import (grid, random_digraph, star_of_paths,
                               with_penalties)
from bulkflow.graph import TerminalPair, shortest_path, shortest_paths
from bulkflow.harness import OnlinePipeline, RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.oracle import (InfeasibleInstance, lp_lower_bound, offline_opt,
                             ss_offline_opt)
from bulkflow.rounding import Assignment, draw_thresholds, scaled_min_cut
from helpers import random_two_metric, z_values


def test_end_to_end_feasibility_thousand_runs():
    """Every reachable pair is served across 1000 seeded runs (n<=20, k<=8)."""
    rng = random.Random("feasibility")
    started = time.perf_counter()
    unserved = 0
    runs = 0
    for i in range(1000):
        roll = rng.random()
        if roll < 0.8:
            n = rng.randint(4, 8)
        elif roll < 0.95:
            n = rng.randint(9, 14)
        else:
            n = rng.randint(15, 20)
        k = rng.randint(1, 4 if n < 10 else 8)
        data = random_digraph(n, rng.randint(n + 2, 2 * n), k, seed=7000 + i)
        inst = load_instance(data, name=f"feas-{i}")
        report = run_online(inst, RunConfig(mode="edge", seed=i, h=1, dmax=0.6))
        runs += 1
        for pair in inst.pairs:
            path = report.ledger.paths.get(pair.index)
            if path is None:
                unserved += 1
                continue
            if pair.s != pair.t:
                ok = (path and inst.graph.tail[path[0]] == pair.s
                      and inst.graph.head[path[-1]] == pair.t)
                if not ok:
                    unserved += 1
    elapsed = time.perf_counter() - started
    assert runs == 1000
    assert unserved == 0, f"{unserved} reachable pairs left unserved"
    print(f"\nfeasibility: 1000 runs, zero unserved pairs, {elapsed:.0f}s")


def _node_grid():
    data = grid(2, 2, k=3, seed=5)
    data["mode"] = "node"
    data["node_costs"] = [{"v": v, "c": 0.5 + 0.25 * v, "l": 0.1 * (v + 1)}
                          for v in range(data["n"])]
    return data


DEFAULT_CONFIG_INSTANCES = {
    "edge": lambda: grid(2, 2, k=3, seed=5),
    "prize": lambda: with_penalties(grid(2, 2, k=3, seed=5), seed=5,
                                    q_range=(0.3, 4.0)),
    "directed": lambda: random_digraph(4, 9, 2, seed=3),
    "node": _node_grid,
}

# sha256 of each mode's report; a refactor must leave these bytes alone
DEFAULT_CONFIG_DIGESTS = {
    "directed": "0c947b4297f39b667119ff9e24a1a15d41dc813e4f7449b1ad89eb2813cd54ea",
    "edge": "91376bfe356ae24565f54b5185a7c955fc8552d82c030c78bc87edd48d151009",
    "node": "90200a3e5d96b95afd18d9ef7bcd8000a22ea0a0bf2bad33342f5e9493043e5e",
    "prize": "00c1823ef66b7a9bf047e321726bfa2b5384bee4a58b3515ac88b697abb6eb2c",
}

# sha256 of each mode's (assignment trace, LP trace): the z_value, tau and
# steps columns appear only there
DEFAULT_CONFIG_TRACE_DIGESTS = {
    "directed": ("4ac88a21aab746fb90075f8066205a3038ebf3feb655cc3fe7f7705c5558c5b9",
                 "c2a1d9d935187bc5eb57373b55b782f9754a6616ab8732354276cd46360d2a44"),
    "edge": ("ba2394d3c19196b3410d536aeb76bbc1ed193b7d3935ddd4bb053d3e6e54f236",
             "15cb91ba69a16b357a6a74f35a45d3cbf5029610cf90ee989adecce7e9761bc5"),
    "node": ("a72ad99f12747a6f57851e4ecaeabb519edc22c68c48b7790c861fb668115a70",
             "ca3604dfa3fcaa6c0aac2dc791fbcd1abb956db09f9d6eadf835ad6bee494658"),
    "prize": ("d3decafb4b4b5f9c07ae790c6e248d148f3f1923e4af6b41e848a92b818ea29d",
              "7de99029f69b799f1b21b54e36ff443929fb0ab8c776ca85217b699abc392548"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(DEFAULT_CONFIG_INSTANCES))
def test_default_configuration_invariants(mode):
    """Every default of ``RunConfig``: LP invariants after each arrival."""

    def run_checked():
        inst = load_instance(DEFAULT_CONFIG_INSTANCES[mode]())
        pipeline = OnlinePipeline(inst, RunConfig(mode=mode, seed=0))
        snapshot = None
        cuts = 0
        for pair in inst.pairs:
            record = pipeline.process(pair)
            solver = pipeline.solver
            if solver is None:
                continue
            solver.check_invariants([s.index for s in pipeline.arrived])
            state = (pipeline.epoch, z_values(solver),
                     [{r: tuple(a) for r, a in side.x.items()}
                      for side in solver.sides])
            if snapshot is not None and snapshot[0] == state[0]:
                for key, old in snapshot[1].items():
                    assert state[1][key] >= old, "z decreased"
                for old_side, new_side in zip(snapshot[2], state[2]):
                    for r, old_arr in old_side.items():
                        assert all(new >= old for new, old
                                   in zip(new_side[r], old_arr)), "x decreased"
            snapshot = state
            if record.outcome == Assignment.ASSIGNED:
                for side in ("up", "down"):
                    cut = scaled_min_cut(solver, pipeline.tau, pair.index,
                                         record.root, side)
                    assert cut >= 1 - 1e-6, f"cut {cut} below 1 on {side}"
                    cuts += 1
        assert cuts > 0, "no pair was assigned to a root"
        report = pipeline.finish()
        return (report.to_csv(), report.assignment_trace_csv(),
                report.lp_trace_csv())

    report, assignment_trace, lp_trace = run_checked()
    assert (report, assignment_trace, lp_trace) == run_checked()
    assert _sha256(report) == DEFAULT_CONFIG_DIGESTS[mode]
    assert ((_sha256(assignment_trace), _sha256(lp_trace))
            == DEFAULT_CONFIG_TRACE_DIGESTS[mode])


PATH_FUNNEL_RUNS = {
    "default": [(lambda: grid(2, 2, k=3, seed=5), RunConfig(mode="edge")),
                (lambda: star_of_paths(3, 2, k=4, seed=2),
                 RunConfig(mode="edge")),
                (DEFAULT_CONFIG_INSTANCES["prize"], RunConfig(mode="prize"))],
    "h1": [(lambda: grid(2, 3, k=4, seed=11),
            RunConfig(mode="edge", h=1, dmax=0.4)),
           (lambda: random_digraph(6, 12, 4, seed=3),
            RunConfig(mode="edge", h=1)),
           (DEFAULT_CONFIG_INSTANCES["prize"], RunConfig(mode="prize", h=1))],
}


@pytest.mark.parametrize("runs", sorted(PATH_FUNNEL_RUNS))
def test_path_funnel_flows_follow_their_route(runs, monkeypatch):
    """After every growth step, every path funnel's flow holds its route's
    arcs in route order, each at its route's ``z``, bit for bit: the one
    pass over the flow visits the route in order, and a path's rates are
    ``delta`` on every arc or on none."""
    checks = []
    step = CompositeSolver.growth_step

    def checked_step(self):
        dt = step(self)
        for routes in self.routes.values():
            for route in routes.values():
                for funnel in route.funnels:
                    if isinstance(funnel.net, flows.FlowPath):
                        assert tuple(funnel.flow) == funnel.net.route
                        assert all(f.hex() == route.z.hex()
                                   for f in funnel.flow.values())
                        checks.append(funnel)
        return dt

    monkeypatch.setattr(CompositeSolver, "growth_step", checked_step)
    for make, config in PATH_FUNNEL_RUNS[runs]:
        run_online(load_instance(make()), config)
    assert len(checks) > 1000


# sha256 of one directed run at h = 3, whose funnels hold 4 to 24 arcs of
# a forest of 9,364 vertices
DIRECTED_H3_DIGEST = (
    "fcddd47350c160440716749eb39a3062af95b3e746ec92c7ad350414526990e7")


def test_directed_h3_report_pinned():
    report = run_online(load_instance(random_digraph(8, 20, 3, seed=1)),
                        RunConfig(mode="directed", h=3, dmax=0.4, seed=1))
    assert _sha256(report.to_csv()) == DIRECTED_H3_DIGEST


# sha256 of the (report, LP trace) of a heavier default-config edge run:
# 256 growth steps over sides of 147 arcs, one guess doubling and a replay
STAR_DEFAULT_DIGESTS = (
    "4e15ba84f2cc7e74deb0ea2b9600a0b7bfec61b5b049a3ece9858685d8fbf294",
    "a3f99821342ce22e4f1ae69fdbe506461ad5fd2b104f09b57b42aab5727a2aab")


def test_star_default_config_report_pinned():
    report = run_online(load_instance(star_of_paths(3, 2, k=6, seed=109305)),
                        RunConfig(mode="edge"))
    assert report.epochs == 2
    assert ((_sha256(report.to_csv()), _sha256(report.lp_trace_csv()))
            == STAR_DEFAULT_DIGESTS)


ORACLE_PIN_RUNS = {
    "edge": (lambda: grid(2, 3, k=4, seed=11), {"h": 1, "dmax": 0.4}),
    "directed": (lambda: random_digraph(4, 9, 2, seed=3), {"h": 2, "dmax": 0.4}),
    "prize": (lambda: with_penalties(grid(2, 3, k=3, seed=5), seed=5,
                                     q_range=(0.3, 4.0)),
              {"h": 1, "dmax": 0.4}),
}

# repr of (opt, junction_opt) of each run, as the unpruned searches gave them
ORACLE_PINS = {
    "directed": ("5.295985", "5.295985"),
    "edge": ("9.711192", "10.053365"),
    "prize": ("4.413032", "5.4047659999999995"),
}


@pytest.mark.parametrize("mode", sorted(ORACLE_PIN_RUNS))
def test_oracle_values_pinned(mode):
    """The report's exact baselines keep their float bits."""
    make, settings = ORACLE_PIN_RUNS[mode]
    report = run_online(load_instance(make()),
                        RunConfig(mode=mode, seed=0, oracle=True, **settings))
    assert (repr(report.opt), repr(report.junction_opt_value)) == ORACLE_PINS[mode]


def compensated_sum(values, start=0):
    """``sum()`` as Python 3.12 computes it: floats with Neumaier's
    compensated summation, integers exactly and kept as ints."""
    total, compensation, floats = start, 0.0, isinstance(start, float)
    for value in values:
        if isinstance(value, float):
            if not floats:
                total, floats = float(total), True
            t = total + value
            if abs(total) >= abs(value):
                compensation += (total - t) + value
            else:
                compensation += (value - t) + total
            total = t
        else:
            total += value
    if floats and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_pins_hold_under_a_compensated_sum(monkeypatch):
    """From Python 3.12 on ``sum()`` compensates float rounding; the
    reports must not depend on which ``sum()`` the interpreter has."""
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2, True]) == 4
    for info in pkgutil.iter_modules(bulkflow.__path__):
        module = importlib.import_module(f"bulkflow.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    for mode in sorted(DEFAULT_CONFIG_INSTANCES):
        test_default_configuration_invariants(mode)
    for mode in sorted(ORACLE_PIN_RUNS):
        test_oracle_values_pinned(mode)
    test_directed_h3_report_pinned()


def _random_instance(mode, rng, seed):
    """A small random instance for ``mode``."""
    if mode == "directed":
        n = rng.randint(4, 6)
        return random_digraph(n, rng.randint(n + 2, 2 * n + 2),
                              rng.randint(2, 3), seed=seed)
    data = grid(2, rng.randint(2, 3), k=rng.randint(2, 4), seed=seed)
    if mode == "prize":
        return with_penalties(data, seed=seed, q_range=(0.3, 4.0))
    if mode == "node":
        data["mode"] = "node"
        data["node_costs"] = [{"v": v, "c": rng.uniform(0.1, 1.0),
                               "l": rng.uniform(0.0, 0.5)}
                              for v in range(data["n"])]
    return data


def _cheapest_route(pipeline, spec):
    """``c + l`` of the pair's cheapest route through any root under the
    owner rule alone, ``inf`` if none."""
    up, down = (side.side_graph for side in pipeline.sides)

    def metric(graph):
        return [c + l for c, l in zip(graph.c, graph.l)]

    from_s = shortest_paths(up.graph, metric(up.graph), spec.up_source,
                            allowed=up.allowed(spec.index))
    into_t = shortest_paths(down.graph, metric(down.graph), spec.down_sink,
                            allowed=down.allowed(spec.index), backward=True)
    return min((from_s[r.up_vertex][1] + into_t[r.down_vertex][1]
                for r in pipeline.roots
                if r.up_vertex in from_s and r.down_vertex in into_t),
               default=math.inf)


def _assert_cheapest_routes_in_funnels(solver):
    """Each side's cheapest rescaled ``c + l`` path of each route lies in the
    route's funnel."""
    for pi, routes in solver.routes.items():
        for route in routes.values():
            for side, funnel in zip(solver.sides, route.funnels):
                path, _ = shortest_path(
                    side.graph, [c + l for c, l in zip(side.c, side.l)],
                    *funnel.ends, side.side_graph.allowed(pi))
                assert set(path) <= set(funnel.arcs), (pi, path, funnel.arcs)


@pytest.mark.parametrize("mode", sorted(DEFAULT_CONFIG_INSTANCES))
def test_distance_ball_is_sound(mode):
    """The ball keeps each pair's cheapest route through an eligible root,
    every pair is eligible somewhere at its own initial guess, and a pair
    whose cheapest route is dearer than the guess doubles it instead of
    falling back."""
    rng = random.Random(f"ball-{mode}")
    doubled = 0
    for i in range(12):
        inst = load_instance(_random_instance(mode, rng, 900 + i))
        pipeline = OnlinePipeline(inst, RunConfig(mode=mode, seed=i,
                                                  dmax=0.4))
        for pair in inst.pairs:
            if pair.s == pair.t:
                pipeline.process(pair)
                continue
            spec = pipeline.pair_specs[pair.index]
            cost = _cheapest_route(pipeline, spec)
            if cost < math.inf:
                # as if it arrived first: covered at its own guess
                alone = CompositeSolver(
                    *(side.side_graph for side in pipeline.sides),
                    pipeline.roots, pipeline.n_scale,
                    pipeline._initial_guess(spec), pipeline.kappa, 0.4)
                assert alone.on_arrival(spec) == ArrivalOutcome.SATISFIED
            epoch, lam = pipeline.epoch, pipeline.lam
            pipeline.process(pair)
            if lam is not None and cost < math.inf and cost > lam * 1.000001:
                assert pipeline.epoch > epoch
                assert spec in pipeline.arrived  # routed by the LP
                assert pipeline.lam * 1.000001 >= cost
                doubled += 1
            if pipeline.solver is not None:
                _assert_cheapest_routes_in_funnels(pipeline.solver)
    assert doubled, "no pair outgrew the guess"


def test_default_size_grid_stays_sound_and_searches_little(monkeypatch):
    """``grid(4,4,k=2,seed=3)`` at the default configuration: the LP
    invariants hold, and the balls cut the live residual searches to under
    a tenth of the reach-based funnels' 63,773."""
    searches = []
    search = flows.FlowNetwork._shortest_path

    def counted(net, *args):
        searches.append(None)
        return search(net, *args)

    monkeypatch.setattr(flows.FlowNetwork, "_shortest_path", counted)
    inst = load_instance(grid(4, 4, k=2, seed=3))
    pipeline = OnlinePipeline(inst, RunConfig(mode="edge"))
    for pair in inst.pairs:
        record = pipeline.process(pair)
        pipeline.solver.check_invariants([s.index for s in pipeline.arrived])
        if record.outcome == Assignment.ASSIGNED:
            for side in ("up", "down"):
                cut = scaled_min_cut(pipeline.solver, pipeline.tau,
                                     pair.index, record.root, side)
                assert cut >= 1 - 1e-6, f"cut {cut} below 1 on {side}"
    assert pipeline.finish().fallback_count == 0
    assert len(searches) < 6378


def test_lp_value_within_polylog_of_offline_opt():
    """Fractional value stays under kappa and is recorded against opt."""
    worst = 0.0
    for seed in range(8):
        data = grid(2, 3, k=3, seed=200 + seed)
        inst = load_instance(data, name=f"spend-{seed}")
        pipeline = OnlinePipeline(inst, RunConfig(mode="edge", seed=seed,
                                                  h=1, dmax=0.4))
        for pair in inst.pairs:
            pipeline.process(pair)
        solver = pipeline.solver
        assert solver.objective <= pipeline.kappa * (1 + 1e-6)
        opt, _ = offline_opt(inst.graph, inst.pairs)
        lp_value_absolute = solver.objective * pipeline.lam
        n = pipeline.n_scale
        kappa_prime = lp_value_absolute / (opt * math.log2(n) ** 3)
        worst = max(worst, kappa_prime)
    # the epoch cap uses 64 log^3; the realized constant should be far below
    assert worst <= 64.0
    print(f"\npolylog spend sanity: max recorded kappa' = {worst:.3f} "
          f"(cap constant 64)")


def test_expected_scaled_objective_blowup_recorded():
    """E[scaled objective] / fractional objective, recorded against log^2 n."""
    data = random_digraph(12, 28, 4, seed=300)
    inst = load_instance(data, name="scaling")
    pipeline = OnlinePipeline(inst, RunConfig(mode="edge", seed=0, h=1,
                                              dmax=0.5))
    for pair in inst.pairs:
        pipeline.process(pair)
    solver = pipeline.solver
    fractional = solver.lp_objective()
    n = pipeline.n_scale
    totals = []
    for seed in range(40):
        tau = draw_thresholds(pipeline.root_ids, n, f"scale:{seed}")
        # every variable divided by its root's threshold, capped at 1
        scaled = 0.0
        for side in solver.sides:
            for rid, x in side.x.items():
                for e, v in enumerate(x):
                    scaled += side.c[e] * min(1.0, v / tau[rid])
        for routes in solver.routes.values():
            for rid, route in routes.items():
                for side, funnel in zip(solver.sides, route.funnels):
                    for e, f in funnel.flow.items():
                        scaled += side.l[e] * min(1.0, f / tau[rid])
        totals.append(scaled)
    blowup = (sum(totals) / len(totals)) / fractional
    constant = blowup / math.log2(n) ** 2
    # thresholds are at most 1/(2n) small, so the blowup is at most 2n; the
    # interesting record is the log^2-normalized constant
    assert blowup <= 2 * n
    print(f"\nscaled-objective blowup {blowup:.2f} = {constant:.3f} * log2(n)^2")


def test_ss_lp_lower_bound_and_integrality_ratio():
    """LP optimum <= exact single-sink optimum; beta ratios recorded."""
    rng = random.Random("beta")
    ratios = []
    for _ in range(12):
        n = rng.randint(3, 5)
        g = random_two_metric(rng, n, rng.randint(n, 2 * n), ensure_cycle=True)
        root = 0
        terms = [rng.randrange(1, n) for _ in range(rng.randint(1, 3))]
        pairs = [TerminalPair(i, t, root) for i, t in enumerate(terms)]
        try:
            exact = ss_offline_opt(g, terms, root)
        except InfeasibleInstance:
            continue
        lp = lp_lower_bound(g, pairs)
        assert lp <= exact + 1e-7
        if lp > 1e-9:
            ratios.append(exact / lp)
    assert ratios, "no feasible single-sink instances sampled"
    print(f"\nintegrality ratios (exact/LP): max {max(ratios):.3f}, "
          f"mean {sum(ratios) / len(ratios):.3f}")
