import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

from bulkflow.flows import (FlowError, FlowNetwork, InfeasibleFlow,
                            cheapest_flow_curve, max_delta, max_flow,
                            min_cost_flow)


def linprog_min_cost(net: FlowNetwork, source: int, sink: int, target: float):
    """Independent LP oracle for the min-cost flow polytope."""
    m = net.m
    cost = np.array(net.cost)
    a_eq = np.zeros((net.n, m))
    for a in range(m):
        a_eq[net.tail[a], a] += 1.0
        a_eq[net.head[a], a] -= 1.0
    b_eq = np.zeros(net.n)
    b_eq[source] = target
    b_eq[sink] = -target
    bounds = [(0, None if math.isinf(net.capacity[a]) else net.capacity[a])
              for a in range(m)]
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    return res.fun if res.success else None


def random_network(rng: random.Random, max_arcs: int = 6):
    n = rng.randint(2, 4)
    net = FlowNetwork(n)
    for _ in range(rng.randint(1, max_arcs)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            net.add_arc(u, v, rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0))
    return net


def tie_heavy_arcs(rng: random.Random, n: int, count: int):
    """(tail, head, cost) triples with parallel arcs and many equal and zero
    costs, so that shortest paths tie often."""
    arcs = []
    while len(arcs) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v, rng.choice([0.0, 0.0, 0.5, 1.0])))
    return arcs


def tie_heavy_capacities(rng: random.Random, count: int):
    return [rng.choice([0.0, 0.25, 1.0, math.inf]) for _ in range(count)]


def network(n: int, arcs, capacities) -> FlowNetwork:
    net = FlowNetwork(n)
    for (u, v, cost), cap in zip(arcs, capacities):
        net.add_arc(u, v, cap, cost)
    return net


class TestCapacityReset:
    @pytest.mark.parametrize("seed", range(6))
    def test_reset_network_solves_like_a_fresh_one(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        arcs = tie_heavy_arcs(rng, n, 4 * n)
        reused = network(n, arcs, [0.0] * len(arcs))
        for _ in range(5):
            capacities = tie_heavy_capacities(rng, len(arcs))
            reused.set_capacities(capacities)
            fresh = network(n, arcs, capacities)
            budget = rng.choice([0.0, 0.5, 2.0, math.inf])
            curves = [cheapest_flow_curve(net, 0, n - 1, value_cap=1.0,
                                          cost_cap=budget)
                      for net in (reused, fresh)]
            # FlowSegment equality compares amount, unit cost and steps
            assert curves[0] == curves[1]
            assert reused.capacity == fresh.capacity

    def test_add_arc_after_a_solve_rebuilds_the_topology(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 1.0, 1.0)
        net.add_arc(1, 2, 1.0, 1.0)
        first = cheapest_flow_curve(net, 0, 2, value_cap=2.0)
        assert [seg.unit_cost for seg in first] == [2.0]
        net.add_arc(0, 2, 1.0, 0.5)
        second = cheapest_flow_curve(net, 0, 2, value_cap=2.0)
        assert [(seg.unit_cost, seg.steps) for seg in second] == [
            (0.5, ((2, 1),)), (2.0, ((0, 1), (1, 1)))]

    def test_reset_refuses_negative_and_wrong_length(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1.0, 1.0)
        net.add_arc(1, 0, 1.0, 1.0)
        with pytest.raises(FlowError):
            net.set_capacities([1.0, -0.5])
        with pytest.raises(FlowError):
            net.set_capacities([1.0])
        with pytest.raises(FlowError):
            net.set_capacities([1.0, 1.0, 1.0])
        assert net.capacity == [1.0, 1.0]  # a refused reset changes nothing
        net.set_capacities([0.0, math.inf])
        assert net.capacity == [0.0, math.inf]


class TestMinCostFlow:
    def test_zero_target(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 1)
        result = min_cost_flow(net, 0, 1, 0)
        assert result.value == 0 and result.total_cost == 0

    def test_parallel_arc_split(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 1)
        net.add_arc(0, 1, 1, 5)
        # oracle: enumerate split fractions f on the cheap arc
        oracle = min(f * 1 + (1.5 - f) * 5
                     for f in [x / 100 for x in range(0, 101)])
        result = min_cost_flow(net, 0, 1, 1.5)
        assert result.total_cost == pytest.approx(oracle, abs=1e-9)
        result.validate(net, 0, 1)

    def test_infeasible_target(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 1, 1)
        with pytest.raises(InfeasibleFlow):
            min_cost_flow(net, 0, 1, 2)

    def test_negative_inputs_rejected(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_arc(0, 1, -1, 0)
        with pytest.raises(FlowError):
            net.add_arc(0, 1, 1, -1)
        net.add_arc(0, 1, 1, 1)
        with pytest.raises(FlowError):
            min_cost_flow(net, 0, 1, -0.5)

    def test_matches_lp_oracle_on_random_networks(self):
        rng = random.Random(11)
        checked = 0
        trials = 0
        while checked < 25 and trials < 300:
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
            result.validate(net, 0, net.n - 1)
            assert result.total_cost == pytest.approx(expected, abs=1e-7)
            checked += 1
        assert checked >= 25


class TestMaxFlow:
    def test_simple_cut(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 2, 0)
        net.add_arc(1, 2, 1.5, 0)
        assert max_flow(net, 0, 2).value == pytest.approx(1.5)

    def test_unbounded_guard(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, math.inf, 0)
        with pytest.raises(FlowError):
            max_flow(net, 0, 1)
        assert max_flow(net, 0, 1, value_cap=3.0).value == pytest.approx(3.0)


class TestMaxDelta:
    def test_zero_budget_positive_lengths(self):
        up = FlowNetwork(2)
        up.add_arc(0, 1, math.inf, 1.0)
        down = FlowNetwork(2)
        down.add_arc(0, 1, math.inf, 0.5)
        assert max_delta(up, 0, 1, down, 0, 1, 0.0).delta == 0.0

    def test_capacity_bound_path(self):
        up = FlowNetwork(3)
        up.add_arc(0, 1, 0.1, 2.0)
        up.add_arc(1, 2, math.inf, 0.0)
        down = FlowNetwork(2)
        down.add_arc(0, 1, math.inf, 1.0)
        result = max_delta(up, 0, 2, down, 0, 1, 0.5)
        # up: min(cap 0.1, budget 0.5 / length 2); down: 0.5 / 1
        assert result.delta == pytest.approx(0.1, abs=1e-8)
        result.up.validate(up, 0, 2)
        result.down.validate(down, 0, 1)

    def test_budget_bound_both_sides(self):
        up = FlowNetwork(2)
        up.add_arc(0, 1, math.inf, 4.0)
        down = FlowNetwork(2)
        down.add_arc(0, 1, math.inf, 1.0)
        result = max_delta(up, 0, 1, down, 0, 1, 1.0)
        assert result.delta == pytest.approx(0.25, abs=1e-8)

    def test_disconnected_side_gives_zero(self):
        up = FlowNetwork(3)
        up.add_arc(0, 1, 1, 1)
        down = FlowNetwork(2)
        down.add_arc(0, 1, math.inf, 1)
        result = max_delta(up, 0, 2, down, 0, 1, 5.0)
        assert result.delta == 0.0 and result.up.flow == {}

    def test_delta_capped_at_one(self):
        up = FlowNetwork(2)
        up.add_arc(0, 1, math.inf, 0.0)
        down = FlowNetwork(2)
        down.add_arc(0, 1, math.inf, 0.0)
        assert max_delta(up, 0, 1, down, 0, 1, 1.0).delta == pytest.approx(1.0)

    def test_budget_constraint_respected(self):
        rng = random.Random(5)
        for _ in range(25):
            up = random_network(rng)
            down = random_network(rng)
            budget = rng.uniform(0, 2)
            result = max_delta(up, 0, up.n - 1, down, 0, down.n - 1, budget)
            up_len = sum(up.cost[a] * f for a, f in result.up.flow.items())
            down_len = sum(down.cost[a] * f for a, f in result.down.flow.items())
            assert up_len <= budget + 1e-9
            assert down_len <= budget + 1e-9
            result.up.validate(up, 0, up.n - 1)
            result.down.validate(down, 0, down.n - 1)

    def test_monotone_in_budget_and_capacity(self):
        rng = random.Random(6)
        for _ in range(20):
            up = random_network(rng)
            down = random_network(rng)
            budget = rng.uniform(0.1, 1.5)
            base = max_delta(up, 0, up.n - 1, down, 0, down.n - 1, budget).delta
            more = max_delta(up, 0, up.n - 1, down, 0, down.n - 1,
                             budget * 1.5).delta
            assert more >= base - 1e-9
            bigger = FlowNetwork(up.n)
            for a in range(up.m):
                bigger.add_arc(up.tail[a], up.head[a], up.capacity[a] * 1.5,
                               up.cost[a])
            grown = max_delta(bigger, 0, up.n - 1, down, 0, down.n - 1,
                              budget).delta
            assert grown >= base - 1e-9
