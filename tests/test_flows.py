import math
import random

import numpy as np
import pytest
from scipy.optimize import linprog

import bulkflow.flows as flows
from bulkflow.flows import (EPS_CAP, FlowError, FlowNetwork, InfeasibleFlow,
                            cheapest_flow_curve, max_delta, max_flow,
                            min_cost_flow)
from bulkflow.generate import grid
from bulkflow.harness import RunConfig, run_online
from bulkflow.instance import load_instance


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


def curve_bits(net: FlowNetwork, source: int, sink: int, value_cap: float,
               cost_cap: float):
    """The curve's segments as exact bits, or the refusal it raised."""
    try:
        segments = cheapest_flow_curve(net, source, sink, value_cap=value_cap,
                                       cost_cap=cost_cap)
    except FlowError as exc:
        return str(exc)
    return [(seg.amount.hex(), seg.unit_cost.hex(), seg.steps)
            for seg in segments]


def replay_arcs(rng: random.Random, n: int, count: int):
    """Tie-heavy arcs plus an exact parallel twin and a reverse of some."""
    arcs = tie_heavy_arcs(rng, n, count)
    for u, v, cost in list(arcs):
        roll = rng.random()
        if roll < 0.3:
            arcs.append((u, v, cost))
        elif roll < 0.6:
            arcs.append((v, u, rng.choice([0.0, cost])))
    return arcs


# saturated, at the saturation threshold, just above it, and ordinary
REPLAY_CAPACITIES = [0.0, EPS_CAP, 2 * EPS_CAP, 0.25, 0.5, 1.0,
                     1.0 + EPS_CAP, math.inf]


class TestReplay:
    """A network that replays its previous solve's searches must return
    the same bits as a freshly built network, solve after solve."""

    def assert_solves_like_fresh(self, reused, n, arcs, capacities, source,
                                 sink, value_cap, cost_cap):
        reused.set_capacities(capacities)
        fresh = network(n, arcs, capacities)
        assert (curve_bits(reused, source, sink, value_cap, cost_cap)
                == curve_bits(fresh, source, sink, value_cap, cost_cap))

    @pytest.mark.parametrize("seed", range(25))
    def test_capacity_sequence_matches_fresh_networks(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        arcs = replay_arcs(rng, n, 3 * n)
        reused = network(n, arcs, [0.0] * len(arcs))
        capacities = [rng.choice(REPLAY_CAPACITIES) for _ in arcs]
        for _ in range(20):
            # change a few capacities at a time, mostly keeping which arcs
            # are closed, so that replays match and then diverge
            for a in rng.sample(range(len(arcs)), rng.randint(0, 3)):
                if capacities[a] > EPS_CAP and rng.random() < 0.8:
                    capacities[a] = rng.choice(REPLAY_CAPACITIES[2:])
                else:
                    capacities[a] = rng.choice(REPLAY_CAPACITIES)
            source, sink = (0, n - 1) if rng.random() < 0.7 else rng.sample(
                range(n), 2)
            self.assert_solves_like_fresh(
                reused, n, arcs, capacities, source, sink,
                rng.choice([1.0, 0.5, 2.0, 3 * EPS_CAP, math.inf]),
                rng.choice([0.0, 0.25, 1.0, 2.0, math.inf]))

    def test_spread_costs_resume_from_replayed_potentials(self):
        # reverse slots carry negative costs, so a live search after replayed
        # ones finds the cheapest path only from the replayed potentials
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(5, 9)
            arcs = []
            while len(arcs) < 3 * n:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.append((u, v, rng.choice([0.0, 0.5, 1.0, 2.0, 3.0,
                                                   5.0])))
            capacities = [rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in arcs]
            reused = network(n, arcs, capacities)
            curve_bits(reused, 0, n - 1, 3.0, math.inf)
            for _ in range(4):
                capacities[rng.randrange(len(arcs))] = rng.choice(
                    [0.25, 0.5, 1.0, 2.0])
                self.assert_solves_like_fresh(reused, n, arcs, capacities, 0,
                                              n - 1, 3.0, math.inf)

    @pytest.mark.parametrize("seed", range(5))
    def test_alternating_ends_on_one_network(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(3, 6)
        arcs = replay_arcs(rng, n, 4 * n)
        capacities = [rng.choice([0.25, 1.0, math.inf]) for _ in arcs]
        reused = network(n, arcs, capacities)
        for source, sink in [(0, n - 1), (n - 1, 0)] * 3:
            self.assert_solves_like_fresh(reused, n, arcs, capacities, source,
                                          sink, 1.0, math.inf)

    @pytest.mark.parametrize("closed", [0.0, EPS_CAP])
    def test_an_arc_closed_at_start_changes_the_first_key(self, closed):
        # the first solve uses twin arc 0; the second closes it at the start
        arcs = [(0, 1, 0.0), (0, 1, 0.0), (1, 2, 1.0)]
        reused = network(3, arcs, [1.0, 1.0, 2.0])
        assert curve_bits(reused, 0, 2, 2.0, math.inf) == [
            ((1.0).hex(), (1.0).hex(), ((0, 1), (2, 1))),
            ((1.0).hex(), (1.0).hex(), ((1, 1), (2, 1)))]
        self.assert_solves_like_fresh(reused, 3, arcs, [closed, 1.0, 2.0],
                                      0, 2, 2.0, math.inf)
        self.assert_solves_like_fresh(reused, 3, arcs, [2 * EPS_CAP, 1.0, 2.0],
                                      0, 2, 2.0, math.inf)

    def test_a_different_saturated_arc_changes_the_next_key(self):
        # both solves first take 0 -> 1 -> 2 on the free arcs 0 and 2; the
        # first saturates arc 2 and stops, the second saturates arc 0 and
        # goes on through the priced twin, arc 1
        arcs = [(0, 1, 0.0), (0, 1, 1.0), (1, 2, 0.0)]
        reused = network(3, arcs, [1.0, 1.0, 0.5])
        assert len(curve_bits(reused, 0, 2, 2.0, math.inf)) == 1
        self.assert_solves_like_fresh(reused, 3, arcs, [0.5, 1.0, 1.0],
                                      0, 2, 2.0, math.inf)
        assert len(curve_bits(reused, 0, 2, 2.0, math.inf)) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_add_arc_after_a_solve_discards_the_trail(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(3, 6)
        arcs = replay_arcs(rng, n, 3 * n)
        capacities = [rng.choice([0.25, 1.0, math.inf]) for _ in arcs]
        reused = network(n, arcs, capacities)
        curve_bits(reused, 0, n - 1, 2.0, math.inf)
        for _ in range(3):
            arcs.append((0, n - 1, rng.choice([0.0, 0.5])))
            capacities.append(rng.choice([0.25, 1.0]))
            reused.add_arc(0, n - 1, capacities[-1], arcs[-1][2])
            self.assert_solves_like_fresh(reused, n, arcs, capacities, 0,
                                          n - 1, 2.0, math.inf)

    def test_replay_skips_most_searches_on_a_default_run(self, monkeypatch):
        counts = {"searches": 0, "augmentations": 0}
        search, curve = flows._Residual.shortest_path, flows.cheapest_flow_curve

        def counted_search(self, source, sink):
            counts["searches"] += 1
            return search(self, source, sink)

        def counted_curve(*args, **kwargs):
            segments = curve(*args, **kwargs)
            counts["augmentations"] += len(segments)
            return segments

        monkeypatch.setattr(flows._Residual, "shortest_path", counted_search)
        monkeypatch.setattr(flows, "cheapest_flow_curve", counted_curve)
        run_online(load_instance(grid(2, 2, k=3, seed=5)), RunConfig(mode="edge"))
        # without replay every augmentation needs its own search
        assert counts["augmentations"] == 2003
        assert counts["searches"] * 10 < counts["augmentations"]


class TestCapacityUpdate:
    """``update_capacities`` changes some arcs in place; a network left by
    any mix of updates and resets solves like a freshly built one."""

    def test_update_refuses_bad_input_and_changes_nothing(self):
        net = network(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0])
        for changes in ([(0, -0.5)], [(1, math.nan)], [(2, 1.0)],
                        [(-1, 1.0)], [(0, 0.5), (1, -math.inf)]):
            with pytest.raises(FlowError):
                net.update_capacities(changes)
            assert net.capacity == [1.0, 1.0]
        net.update_capacities([(1, math.inf), (0, 0.0)])
        assert net.capacity == [0.0, math.inf]
        assert net.closed_arcs() == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_mixed_resets_and_updates_solve_like_fresh(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(3, 7)
        arcs = replay_arcs(rng, n, 3 * n)
        capacities = [rng.choice(REPLAY_CAPACITIES) for _ in arcs]
        reused = network(n, arcs, capacities)
        for _ in range(20):
            if rng.random() < 0.2:
                capacities = [rng.choice(REPLAY_CAPACITIES) for _ in arcs]
                reused.set_capacities(capacities)
            else:
                changes = [(a, rng.choice(REPLAY_CAPACITIES))
                           for a in rng.sample(range(len(arcs)),
                                               rng.randint(0, 3))]
                for a, cap in changes:
                    capacities[a] = cap
                reused.update_capacities(changes)
            fresh = network(n, arcs, capacities)
            assert reused.capacity == fresh.capacity
            assert reused.closed_arcs() == fresh.closed_arcs()
            value_cap = rng.choice([1.0, 2.0, 3 * EPS_CAP, math.inf])
            cost_cap = rng.choice([0.0, 0.25, 1.0, math.inf])
            assert (curve_bits(reused, 0, n - 1, value_cap, cost_cap)
                    == curve_bits(fresh, 0, n - 1, value_cap, cost_cap))

    @pytest.mark.parametrize("closed", [0.0, EPS_CAP])
    @pytest.mark.parametrize("opened", [2 * EPS_CAP, 1.0])
    def test_update_across_eps_cap_changes_the_first_key(self, closed, opened):
        # twin free arcs 0 and 1: a solve takes arc 0 while it is open, so
        # closing it, or opening it again, must change the replayed key
        arcs = [(0, 1, 0.0), (0, 1, 0.0), (1, 2, 1.0)]
        reused = network(3, arcs, [1.0, 1.0, 2.0])
        curve_bits(reused, 0, 2, 2.0, math.inf)
        for cap in (closed, opened, closed):
            reused.update_capacities([(0, cap)])
            fresh = network(3, arcs, [cap, 1.0, 2.0])
            assert (curve_bits(reused, 0, 2, 2.0, math.inf)
                    == curve_bits(fresh, 0, 2, 2.0, math.inf))
            assert reused.closed_arcs() == ((0,) if cap <= EPS_CAP else ())


class TestNonFiniteInput:
    def test_nan_capacity_refused(self):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_arc(0, 1, math.nan, 1.0)
        net.add_arc(0, 1, math.inf, 1.0)  # infinite capacity stays allowed
        with pytest.raises(FlowError):
            net.set_capacities([math.nan])
        assert net.capacity == [math.inf] and net.m == 1

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_refused(self, cost):
        net = FlowNetwork(2)
        with pytest.raises(FlowError):
            net.add_arc(0, 1, 1.0, cost)
        assert net.m == 0


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

    def test_zero_cost_network_is_solved_in_place(self, monkeypatch):
        rng = random.Random(4)
        arcs = [(u, v, 0.0) for u, v, _ in tie_heavy_arcs(rng, 5, 12)]
        capacities = [rng.choice([0.0, 0.25, 1.0]) for _ in arcs]
        priced = network(5, [(u, v, 1.0) for u, v, _ in arcs], capacities)
        expected = max_flow(priced, 0, 4)  # solved on a zero-cost copy
        net = network(5, arcs, capacities)
        copies = []
        monkeypatch.setattr(FlowNetwork, "add_arc",
                            lambda *args: copies.append(args))
        result = max_flow(net, 0, 4)
        assert copies == []
        assert (result.value, result.flow) == (expected.value, expected.flow)


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
