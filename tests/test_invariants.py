"""Cross-module property suites: empirical constants recorded, bounds loose."""

import math
import random
import time

import pytest

from bulkflow.generate import grid, random_digraph, with_penalties
from bulkflow.graph import TerminalPair
from bulkflow.harness import OnlinePipeline, RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.oracle import (InfeasibleInstance, lp_lower_bound, offline_opt,
                             ss_offline_opt)
from bulkflow.rounding import (Assignment, draw_thresholds, scale,
                               scaled_min_cut)
from helpers import random_two_metric


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
            state = (pipeline.epoch, dict(solver.z),
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
                    cut = scaled_min_cut(solver, pipeline.draw, pair.index,
                                         record.root, side)
                    assert cut >= 1 - 1e-6, f"cut {cut} below 1 on {side}"
                    cuts += 1
        assert cuts > 0, "no pair was assigned to a root"
        return pipeline.finish().to_csv()

    assert run_checked() == run_checked()


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
        draw = draw_thresholds(pipeline.root_ids, n, f"scale:{seed}")
        image = scale(solver, draw)
        scaled = 0.0
        for (rid, e), v in image.x_up.items():
            scaled += solver.up.c[e] * v
        for (rid, e), v in image.x_down.items():
            scaled += solver.down.c[e] * v
        for (rid, pi, e), v in image.f_up.items():
            scaled += solver.up.l[e] * v
        for (rid, pi, e), v in image.f_down.items():
            scaled += solver.down.l[e] * v
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
