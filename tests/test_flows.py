import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import bulkflow.flows as flows
from bulkflow.flows import (EPS_CAP, FlowError, FlowNetwork, FlowPath,
                            FlowResult, InfeasibleFlow, cheapest_flow_curve,
                            max_delta, max_flow, min_cost_flow)
from bulkflow.generate import grid
from bulkflow.harness import RunConfig, run_online
from bulkflow.instance import load_instance

from helpers import (ReferenceTopology, reference_assemble, reference_curve,
                     reference_max_delta)


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
    arcs, capacities = [], []
    for _ in range(rng.randint(1, max_arcs)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            capacities.append(rng.uniform(0.2, 2.0))
            arcs.append((u, v, rng.uniform(0.0, 3.0)))
    return network(n, arcs, capacities)


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
    """The network of ``(tail, head, cost)`` arcs with these capacities."""
    return FlowNetwork(n, [u for u, _, _ in arcs], [v for _, v, _ in arcs],
                       capacities, [cost for _, _, cost in arcs])


def update(net: FlowNetwork, changes) -> None:
    """Apply ``(arc, capacity)`` changes through ``update_capacities``."""
    net.update_capacities([a for a, _ in changes], [cap for _, cap in changes])


def validate_rates(net: FlowNetwork, rates, source: int, sink: int,
                   value: float) -> None:
    """Check one side's ``max_delta`` flow, keyed by arc label, against the
    arc capacities and for conservation at ``value``."""
    arc = dict(zip(net.labels, range(net.m)))
    cost = 0.0
    for label, f in rates.items():
        cost += net.cost[arc[label]] * f
    FlowResult(value, rates, cost).validate(net, source, sink)


def rate_bits(rates):
    """A flow dict as exact bits, its arcs in key order."""
    return [(a, f.hex()) for a, f in rates.items()]


class TestCapacityReset:
    @pytest.mark.parametrize("seed", range(6))
    def test_reset_network_solves_like_a_fresh_one(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        arcs = tie_heavy_arcs(rng, n, 4 * n)
        reused = network(n, arcs, [0.0] * len(arcs))
        for _ in range(5):
            capacities = tie_heavy_capacities(rng, len(arcs))
            reused.update_capacities(range(len(capacities)), capacities)
            fresh = network(n, arcs, capacities)
            budget = rng.choice([0.0, 0.5, 2.0, math.inf])
            curves = [cheapest_flow_curve(net, 0, n - 1, value_cap=1.0,
                                          cost_cap=budget)
                      for net in (reused, fresh)]
            # FlowSegment equality compares amount, unit cost and steps
            assert curves[0] == curves[1]
            assert reused.capacity == fresh.capacity


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
        reused.update_capacities(range(len(capacities)), capacities)
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

    def test_replay_skips_most_searches_on_a_default_run(self, monkeypatch):
        counts = {"searches": 0, "augmentations": 0, "path segments": 0}
        search = flows.FlowNetwork._shortest_path
        curve, path_amount = flows.cheapest_flow_curve, flows._path_amount

        def counted_search(self, *args):
            counts["searches"] += 1
            return search(self, *args)

        def counted_curve(*args, **kwargs):
            segments = curve(*args, **kwargs)
            counts["augmentations"] += len(segments)
            return segments

        def counted_path_amount(*args):
            amount = path_amount(*args)
            counts["path segments"] += amount > 0.0  # one segment at most
            return amount

        monkeypatch.setattr(flows.FlowNetwork, "_shortest_path",
                            counted_search)
        monkeypatch.setattr(flows, "cheapest_flow_curve", counted_curve)
        monkeypatch.setattr(flows, "_path_amount", counted_path_amount)
        run_online(load_instance(grid(2, 2, k=3, seed=5)), RunConfig(mode="edge"))
        # path sides augment without a network; the rest search
        assert counts["augmentations"] == 821
        assert counts["augmentations"] + counts["path segments"] == 1439
        # without replay every augmentation needs its own search
        assert counts["searches"] * 10 < counts["augmentations"]


class TestCapacityUpdate:
    """``update_capacities`` changes some arcs in place; a network left by
    any mix of updates, some of every arc, solves like a freshly built
    one."""

    def test_update_refuses_bad_input_and_changes_nothing(self):
        net = network(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0])
        for changes in ([(0, -0.5)], [(1, math.nan)], [(2, 1.0)],
                        [(-1, 1.0)], [(0, 0.5), (1, -math.inf)]):
            with pytest.raises(FlowError):
                update(net, changes)
            assert net.capacity == [1.0, 1.0]
        capacity = net.capacity
        net.update_capacities([1, 0], [math.inf, 0.0])
        assert net.capacity is capacity == [0.0, math.inf]
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
                reused.update_capacities(range(len(capacities)), capacities)
            else:
                changes = [(a, rng.choice(REPLAY_CAPACITIES))
                           for a in rng.sample(range(len(arcs)),
                                               rng.randint(0, 3))]
                for a, cap in changes:
                    capacities[a] = cap
                update(reused, changes)
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
            reused.update_capacities([0], [cap])
            fresh = network(3, arcs, [cap, 1.0, 2.0])
            assert (curve_bits(reused, 0, 2, 2.0, math.inf)
                    == curve_bits(fresh, 0, 2, 2.0, math.inf))
            assert reused.closed_arcs() == ((0,) if cap <= EPS_CAP else ())


class TestNonFiniteInput:
    def test_nan_capacity_refused(self):
        with pytest.raises(FlowError):
            network(2, [(0, 1, 1.0)], [math.nan])
        # infinite capacity stays allowed
        net = network(2, [(0, 1, 1.0)], [math.inf])
        with pytest.raises(FlowError):
            net.update_capacities([0], [math.nan])
        assert net.capacity == [math.inf] and net.m == 1

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_refused(self, cost):
        with pytest.raises(FlowError):
            network(2, [(0, 1, 1.0), (0, 1, cost)], [1.0, 1.0])


class TestConstruction:
    """A network is built once from its arc columns and refuses a bad arc
    anywhere in them."""

    @pytest.mark.parametrize("tail,head", [(2, 1), (0, 2), (-1, 1), (0, -1)])
    def test_out_of_range_ends_refused(self, tail, head):
        with pytest.raises(FlowError, match="out of range"):
            network(2, [(0, 1, 1.0), (tail, head, 1.0)], [1.0, 1.0])

    def test_columns_of_unequal_length_refused(self):
        for columns in (([0, 1], [1], [1.0], [1.0]),
                        ([0], [1], [1.0, 1.0], [1.0]),
                        ([0], [1], [1.0], [])):
            with pytest.raises(FlowError, match="differ in length"):
                FlowNetwork(3, *columns)
        with pytest.raises(FlowError):
            FlowNetwork(-1, [], [], [], [])

    def test_columns_are_copied_as_floats(self):
        tail, head, capacity, cost = [0, 1], [1, 2], [1, 2], [3, 0]
        net = FlowNetwork(3, tail, head, capacity, cost)
        net.update_capacities([0], [0.5])
        assert capacity == [1, 2] and net.capacity == [0.5, 2.0]
        assert [type(c) for c in net.capacity + net.cost] == [float] * 4
        assert (net.n, net.m, net.tail, net.head) == (3, 2, tail, head)

    def test_labels_must_be_distinct_and_one_per_arc(self):
        for labels in ([4, 4], [4], [4, 5, 6]):
            with pytest.raises(FlowError, match="distinct labels"):
                FlowNetwork(3, [0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0], labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_labels_key_segments_and_flows(self, seed):
        # a labelled network solves like the plain one, with each arc id
        # replaced by its label and the flows in the same order
        rng = random.Random(1500 + seed)
        n = rng.randint(4, 7)
        arcs = replay_arcs(rng, n, 3 * n)
        capacities = [rng.choice(REPLAY_CAPACITIES[1:]) for _ in arcs]
        labels = rng.sample(range(10 ** 4), len(arcs))
        plain = network(n, arcs, capacities)
        labelled = FlowNetwork(n, plain.tail, plain.head, capacities,
                               plain.cost, labels)
        for budget in (0.5, 0.5, 2.0):  # live, then replayed solves
            ref = max_delta(plain, 0, n - 1, plain, 1, n - 2, budget)
            new = max_delta(labelled, 0, n - 1, labelled, 1, n - 2, budget)
            delta = new[0]
            assert delta.hex() == ref[0].hex()
            for ref_side, new_side in zip(ref[1:], new[1:]):
                assert ([(labels[a], f.hex()) for a, f in ref_side.items()]
                        == rate_bits(new_side))
            validate_rates(labelled, new[1], 0, n - 1, delta)
            validate_rates(labelled, new[2], 1, n - 2, delta)
            # the labelled costs: min_cost_flow at the same value
            for ends in ((0, n - 1), (1, n - 2)):
                ref_side = min_cost_flow(plain, *ends, delta)
                new_side = min_cost_flow(labelled, *ends, delta)
                assert ([(labels[a], f.hex()) for a, f in ref_side.flow.items()]
                        == rate_bits(new_side.flow))
                assert new_side.total_cost.hex() == ref_side.total_cost.hex()
                new_side.validate(labelled, *ends)
        ref, new = max_flow(plain, 0, n - 1), max_flow(labelled, 0, n - 1)
        assert ([(labels[a], f.hex()) for a, f in ref.flow.items()]
                == [(a, f.hex()) for a, f in new.flow.items()])
        assert (new.value, new.total_cost) == (ref.value, ref.total_cost)

    def test_an_end_that_touches_no_arc_is_unreachable(self):
        net = network(5, [(1, 3, 1.0)], [1.0])
        assert cheapest_flow_curve(net, 1, 3) == [
            flows.FlowSegment(1.0, 1.0, ((0, 1),))]
        for source, sink in ((0, 3), (1, 4), (0, 4), (3, 1)):
            assert cheapest_flow_curve(net, source, sink) == []
            assert max_flow(net, source, sink).value == 0.0


class TestEndpoints:
    """A source or sink outside ``[0, n)`` is refused, not wrapped around."""

    def test_negative_ends_are_refused_not_looped(self):
        # in a child process, since an unchecked -1 indexes the last node
        # and the walk back to the source may never end; flows.py and the
        # graph.py it imports are loaded without the package's __init__
        # (and all it imports) and the child's memory is capped, so a loop
        # ends in a failure
        code = "\n".join([
            "import resource, sys, types",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
            "package = sys.modules['bulkflow'] = types.ModuleType('bulkflow')",
            f"package.__path__ = [{os.path.dirname(flows.__file__)!r}]",
            "import bulkflow.flows as flows",
            "net = flows.FlowNetwork(3, [0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0])",
            "for call in (",
            "        lambda: flows.cheapest_flow_curve(net, -1, 2, value_cap=1.0),",
            "        lambda: flows.cheapest_flow_curve(net, 0, -1, value_cap=1.0),",
            "        lambda: flows.max_delta(net, -1, 2, net, 0, 2, 1.0)):",
            "    try:",
            "        call()",
            "    except flows.FlowError:",
            "        print('refused')"])
        try:
            child = subprocess.run([sys.executable, "-c", code],
                                   capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            pytest.fail("a solve with a negative end did not return")
        assert child.stdout.split() == ["refused"] * 3, child.stderr

    def test_out_of_range_ends_are_refused(self):
        net = network(3, [(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0])
        other = network(2, [(0, 1, 1.0)], [1.0])
        calls = [lambda: cheapest_flow_curve(net, 0, 3, value_cap=1.0),
                 lambda: cheapest_flow_curve(net, 3, 0, value_cap=1.0),
                 lambda: min_cost_flow(net, 0, 7, 0.5),
                 lambda: min_cost_flow(net, 0, 7, 0.0),
                 lambda: max_flow(net, 3, 0),
                 lambda: max_delta(net, 0, 2, other, 0, 2, 1.0),
                 lambda: max_delta(net, 0, 2, other, 5, 5, 1.0)]
        for call in calls:
            with pytest.raises(FlowError):
                call()
        # in range, the same networks still solve
        assert max_delta(net, 0, 2, other, 1, 1, 1.0)[0] == 0.5

    def test_nan_budget_and_target_are_refused(self):
        net = network(2, [(0, 1, 1.0)], [1.0])
        other = network(2, [(0, 1, 1.0)], [1.0])
        with pytest.raises(FlowError):
            max_delta(net, 0, 1, other, 0, 1, math.nan)
        with pytest.raises(FlowError):
            min_cost_flow(net, 0, 1, math.nan)
        with pytest.raises(FlowError):
            max_delta(net, 0, 1, other, 0, 1, -1.0)
        with pytest.raises(FlowError):
            max_flow(net, 0, 1, value_cap=math.nan)
        for caps in ({"value_cap": math.nan}, {"cost_cap": math.nan},
                     {"value_cap": -1.0}, {"cost_cap": -1.0},
                     {"value_cap": -math.inf}, {"cost_cap": -math.inf}):
            with pytest.raises(FlowError, match="negative or NaN"):
                cheapest_flow_curve(net, 0, 1, **caps)
        # infinite caps stay allowed
        assert len(cheapest_flow_curve(net, 0, 1, value_cap=math.inf,
                                       cost_cap=math.inf)) == 1


class TestMinCostFlow:
    def test_zero_target(self):
        net = network(2, [(0, 1, 1)], [1])
        result = min_cost_flow(net, 0, 1, 0)
        assert result.value == 0 and result.total_cost == 0

    def test_parallel_arc_split(self):
        net = network(2, [(0, 1, 1), (0, 1, 5)], [1, 1])
        # oracle: enumerate split fractions f on the cheap arc
        oracle = min(f * 1 + (1.5 - f) * 5
                     for f in [x / 100 for x in range(0, 101)])
        result = min_cost_flow(net, 0, 1, 1.5)
        assert result.total_cost == pytest.approx(oracle, abs=1e-9)
        result.validate(net, 0, 1)

    def test_infeasible_target(self):
        net = network(2, [(0, 1, 1)], [1])
        with pytest.raises(InfeasibleFlow):
            min_cost_flow(net, 0, 1, 2)

    def test_negative_inputs_rejected(self):
        with pytest.raises(FlowError):
            network(2, [(0, 1, 0)], [-1])
        with pytest.raises(FlowError):
            network(2, [(0, 1, -1)], [1])
        net = network(2, [(0, 1, 1)], [1])
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

    def test_cost_is_the_sum_over_the_flow_dict(self):
        # min_cost_flow and max_flow price their flow by one rule: cost
        # times flow, summed left to right over the flow dict
        rng = random.Random(23)
        priced = 0
        for _ in range(60):
            plain = random_network(rng)
            labels = rng.sample(range(100), plain.m)
            net = FlowNetwork(plain.n, plain.tail, plain.head, plain.capacity,
                              plain.cost, labels)
            cost = dict(zip(labels, net.cost))
            full = max_flow(net, 0, net.n - 1)
            results = [full]
            if full.value > 1e-6:
                results.append(min_cost_flow(net, 0, net.n - 1,
                                             rng.uniform(0.1, 1.0) * full.value))
            for result in results:
                total = 0.0
                for a, f in result.flow.items():
                    total += cost[a] * f
                assert result.total_cost.hex() == total.hex()
                priced += bool(result.flow)
        assert priced >= 40


class TestMaxFlow:
    def test_simple_cut(self):
        net = network(3, [(0, 1, 0), (1, 2, 0)], [2, 1.5])
        assert max_flow(net, 0, 2).value == pytest.approx(1.5)

    def test_unbounded_guard(self):
        net = network(2, [(0, 1, 0)], [math.inf])
        with pytest.raises(FlowError):
            max_flow(net, 0, 1)
        assert max_flow(net, 0, 1, value_cap=3.0).value == pytest.approx(3.0)

    def test_zero_cost_network_is_solved_in_place(self, monkeypatch):
        rng = random.Random(4)
        arcs = [(u, v, 0.0) for u, v, _ in tie_heavy_arcs(rng, 5, 12)]
        capacities = [rng.choice([0.0, 0.25, 1.0]) for _ in arcs]
        priced = network(5, [(u, v, 1.0) for u, v, _ in arcs], capacities)
        net = network(5, arcs, capacities)
        builds, init = [], FlowNetwork.__init__

        def counted_init(self, *args):
            builds.append(args)
            init(self, *args)

        monkeypatch.setattr(FlowNetwork, "__init__", counted_init)
        expected = max_flow(priced, 0, 4)  # solved on a zero-cost copy
        assert len(builds) == 1 and builds[0][4] == [0.0] * len(arcs)
        builds.clear()
        result = max_flow(net, 0, 4)
        assert builds == []
        assert (result.value, result.flow) == (expected.value, expected.flow)


class TestMaxDelta:
    def test_zero_budget_positive_lengths(self):
        up = network(2, [(0, 1, 1.0)], [math.inf])
        down = network(2, [(0, 1, 0.5)], [math.inf])
        assert max_delta(up, 0, 1, down, 0, 1, 0.0)[0] == 0.0

    def test_capacity_bound_path(self):
        up = network(3, [(0, 1, 2.0), (1, 2, 0.0)], [0.1, math.inf])
        down = network(2, [(0, 1, 1.0)], [math.inf])
        delta, up_rates, down_rates = max_delta(up, 0, 2, down, 0, 1, 0.5)
        # up: min(cap 0.1, budget 0.5 / length 2); down: 0.5 / 1
        assert delta == pytest.approx(0.1, abs=1e-8)
        validate_rates(up, up_rates, 0, 2, delta)
        validate_rates(down, down_rates, 0, 1, delta)

    def test_budget_bound_both_sides(self):
        up = network(2, [(0, 1, 4.0)], [math.inf])
        down = network(2, [(0, 1, 1.0)], [math.inf])
        delta, _, _ = max_delta(up, 0, 1, down, 0, 1, 1.0)
        assert delta == pytest.approx(0.25, abs=1e-8)

    def test_disconnected_side_gives_zero(self):
        up = network(3, [(0, 1, 1)], [1])
        down = network(2, [(0, 1, 1)], [math.inf])
        delta, up_rates, _ = max_delta(up, 0, 2, down, 0, 1, 5.0)
        assert delta == 0.0 and up_rates == {}

    def test_delta_capped_at_one(self):
        up = network(2, [(0, 1, 0.0)], [math.inf])
        down = network(2, [(0, 1, 0.0)], [math.inf])
        assert max_delta(up, 0, 1, down, 0, 1, 1.0)[0] == pytest.approx(1.0)

    def test_budget_constraint_respected(self):
        rng = random.Random(5)
        for _ in range(25):
            up = random_network(rng)
            down = random_network(rng)
            budget = rng.uniform(0, 2)
            delta, up_rates, down_rates = max_delta(up, 0, up.n - 1, down, 0,
                                                    down.n - 1, budget)
            up_len = sum(up.cost[a] * f for a, f in up_rates.items())
            down_len = sum(down.cost[a] * f for a, f in down_rates.items())
            assert up_len <= budget + 1e-9
            assert down_len <= budget + 1e-9
            validate_rates(up, up_rates, 0, up.n - 1, delta)
            validate_rates(down, down_rates, 0, down.n - 1, delta)

    def test_monotone_in_budget_and_capacity(self):
        rng = random.Random(6)
        for _ in range(20):
            up = random_network(rng)
            down = random_network(rng)
            budget = rng.uniform(0.1, 1.5)
            base = max_delta(up, 0, up.n - 1, down, 0, down.n - 1, budget)[0]
            more = max_delta(up, 0, up.n - 1, down, 0, down.n - 1,
                             budget * 1.5)[0]
            assert more >= base - 1e-9
            bigger = FlowNetwork(up.n, up.tail, up.head,
                                 [cap * 1.5 for cap in up.capacity], up.cost)
            grown = max_delta(bigger, 0, up.n - 1, down, 0, down.n - 1,
                              budget)[0]
            assert grown >= base - 1e-9


# free, at FEAS_TOL (no budget cap), just above it (capped) and ordinary
FUSED_COSTS = [0.0, 0.0, flows.FEAS_TOL, math.nextafter(flows.FEAS_TOL, 1.0),
               0.25, 0.5, 1.0, 1.0]
FUSED_CAPACITIES = [0.0, EPS_CAP, 2 * EPS_CAP, 0.25, 0.5, 1.0, 1.5, math.inf]


def segment_bits(segments):
    return [(seg.amount.hex(), seg.unit_cost.hex(), seg.steps)
            for seg in segments]


class TestFusedSolve:
    """The solve that walks each augmenting path once returns the bits of
    the solve that walked it four times (``helpers.reference_*``), on twin
    networks driven through the same capacity changes, so that replayed and
    live searches mix."""

    @staticmethod
    def twins(rng: random.Random, n: int):
        # node n - 1 has no arcs: a sink there is disconnected
        arcs = []
        while len(arcs) < 3 * n:
            u, v = rng.randrange(n - 1), rng.randrange(n - 1)
            if u != v:
                arcs.append((u, v, rng.choice(FUSED_COSTS)))
        for u, v, cost in list(arcs):
            if rng.random() < 0.3:  # exact parallel twins tie
                arcs.append((u, v, cost))
        capacities = [rng.choice(FUSED_CAPACITIES) for _ in arcs]
        return network(n, arcs, capacities), network(n, arcs, capacities)

    @staticmethod
    def change_capacities(rng: random.Random, nets):
        capacity = nets[0].capacity
        if rng.random() < 0.2:
            capacities = [rng.choice(FUSED_CAPACITIES) for _ in capacity]
            for net in nets:
                net.update_capacities(range(len(capacities)), capacities)
            return
        # mostly keep which arcs are closed, so that replays match
        changes = []
        for a in rng.sample(range(len(capacity)), rng.randint(0, 3)):
            if capacity[a] > EPS_CAP and rng.random() < 0.8:
                changes.append((a, rng.choice(FUSED_CAPACITIES[2:])))
            else:
                changes.append((a, rng.choice(FUSED_CAPACITIES)))
        for net in nets:
            update(net, changes)

    @staticmethod
    def ends(rng: random.Random, n: int):
        roll = rng.random()
        if roll < 0.1:
            return 1, 1  # already at its destination
        if roll < 0.2:
            return 0, n - 1  # disconnected
        if roll < 0.9:
            return 0, n - 2
        return tuple(rng.sample(range(n - 1), 2))

    def test_max_delta_matches_the_reference_bit_for_bit(self):
        seen = dict.fromkeys(["zero", "one", "budget binds", "capacity binds"],
                             0)
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(4, 8)
            up_new, up_ref = self.twins(rng, n)
            down_new, down_ref = self.twins(rng, n)
            for _ in range(15):
                self.change_capacities(rng, (up_new, up_ref))
                self.change_capacities(rng, (down_new, down_ref))
                up_ends, down_ends = self.ends(rng, n), self.ends(rng, n)
                budget = rng.choice([0.0, 1e-10, rng.uniform(0.0, 0.5),
                                     rng.uniform(0.0, 2.0), math.inf])
                delta, up_rates, down_rates = max_delta(
                    up_new, *up_ends, down_new, *down_ends, budget)
                ref = reference_max_delta(up_ref, *up_ends, down_ref,
                                          *down_ends, budget)
                assert delta.hex() == ref.delta.hex()
                assert rate_bits(up_rates) == rate_bits(ref.up.flow)
                assert rate_bits(down_rates) == rate_bits(ref.down.flow)
                for net, rates, (s, t) in ((up_new, up_rates, up_ends),
                                           (down_new, down_rates, down_ends)):
                    if s == t:  # a side at its destination carries nothing
                        assert rates == {}
                    else:
                        validate_rates(net, rates, s, t, delta)
                if delta in (0.0, 1.0):
                    seen["zero" if delta == 0.0 else "one"] += 1
                elif any(math.isclose(side.total_cost, budget)
                         for side in (ref.up, ref.down)):
                    seen["budget binds"] += 1
                else:
                    seen["capacity binds"] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("seed", range(25))
    def test_curve_and_assembly_match_the_reference(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, 8)
        new_net, ref_net = self.twins(rng, n)
        for _ in range(15):
            self.change_capacities(rng, (new_net, ref_net))
            source, sink = rng.choice([(0, n - 2), (0, n - 1)] + [
                tuple(rng.sample(range(n - 1), 2))])
            value_cap = rng.choice([0.5, 1.0, 2.0, 3 * EPS_CAP, math.inf])
            cost_cap = rng.choice([0.0, rng.uniform(0.0, 1.0), math.inf])
            try:
                segments = cheapest_flow_curve(new_net, source, sink,
                                               value_cap, cost_cap)
            except FlowError as exc:
                with pytest.raises(FlowError, match=str(exc)):
                    reference_curve(ref_net, source, sink, value_cap,
                                    cost_cap)
                continue
            reference = reference_curve(ref_net, source, sink, value_cap,
                                        cost_cap)
            assert segment_bits(segments) == segment_bits(reference)
            total = 0.0
            for seg in segments:
                total += seg.amount
            for value in (0.0, total / 3, total / 2, total, total + 1.0):
                flow = flows._assemble(segments, value)
                ref_flow, _ = reference_assemble(segments, value)
                assert ([(a, f.hex()) for a, f in flow.items()]
                        == [(a, f.hex()) for a, f in ref_flow.items()])

    def test_one_curve_per_moving_side_and_one_segment_per_augmentation(
            self, monkeypatch):
        # the per-layer counters read these seams: flows.curves counts
        # cheapest_flow_curve calls, flows.augmentations their segments;
        # a FlowPath side goes through _path_amount instead, which makes no
        # FlowSegment and one segment at most
        curves, path_curves, solves, made = [], [], [], []
        curve, solve, segment = (flows.cheapest_flow_curve, flows.max_delta,
                                 flows.FlowSegment)
        path_amount = flows._path_amount

        def counted_curve(net, source, sink, **caps):
            segments = curve(net, source, sink, **caps)
            curves.append((source, sink, len(segments)))
            return segments

        def counted_path_amount(*args):
            amount = path_amount(*args)
            path_curves.append(int(amount > 0.0))
            return amount

        def counted_solve(*args):
            before = len(curves), len(path_curves)
            result = solve(*args)
            paths = [isinstance(net, FlowPath) for net in args[0::3]]
            moving = sum(not path and s != t for path, s, t in zip(
                paths, args[1::3], args[2::3]))
            solves.append(((len(curves) - before[0], moving),
                           (len(path_curves) - before[1], sum(paths))))
            return result

        def counted_segment(*args):
            made.append(args)
            return segment(*args)

        monkeypatch.setattr(flows, "cheapest_flow_curve", counted_curve)
        monkeypatch.setattr(flows, "_path_amount", counted_path_amount)
        monkeypatch.setattr(flows, "FlowSegment", counted_segment)
        monkeypatch.setattr(flows, "max_delta", counted_solve)
        run_online(load_instance(grid(2, 2, k=3, seed=5)), RunConfig(mode="edge"))
        assert curves and path_curves
        assert all(calls == sides for solve in solves for calls, sides in solve)
        assert all(source != sink for source, sink, _ in curves)
        # one segment per augmentation, and none dropped
        assert sum(count for _, _, count in curves) == len(made) == 821
        assert len(made) + sum(path_curves) == 1439


PATH_CAPACITIES = [0.0, EPS_CAP / 2, EPS_CAP, 2 * EPS_CAP, 1e-6, 0.25, 0.5,
                   1.0, 1.5, math.inf, math.inf, 2.0]
PATH_LENGTHS = [0.0, flows.FEAS_TOL / 4, 0.1, 0.75]
PATH_BUDGETS = [0.0, EPS_CAP / 2, EPS_CAP, 2 * EPS_CAP, 0.3, 1.0, 2.5,
                math.inf]


def path_side(rng: random.Random, hops: int, length_scale: float = 1.0):
    """One simple path of at least one arc as a network over its arcs in id
    order, labelled, with its ends, and as a ``FlowPath`` along its route
    with the same capacities. Neither the route vertices nor the labels are
    in id order."""
    nodes = rng.sample(range(2 * hops + 2), hops + 1)
    labels = rng.sample(range(10 * hops + 10), hops)
    caps = [rng.choice(PATH_CAPACITIES) for _ in labels]
    lengths = [rng.choice(PATH_LENGTHS) * length_scale for _ in labels]
    by_id = sorted(range(hops), key=labels.__getitem__)
    net = FlowNetwork(2 * hops + 2, [nodes[i] for i in by_id],
                      [nodes[i + 1] for i in by_id], [caps[i] for i in by_id],
                      [lengths[i] for i in by_id], [labels[i] for i in by_id])
    path = FlowPath(labels, lengths)
    path.set_capacities([caps[i] for i in by_id])
    return net, (nodes[0], nodes[-1]), path


def solve_bits(up, up_ends, down, down_ends, budget):
    """``max_delta``'s result as exact bits, its rates in key order."""
    delta, up_rates, down_rates = max_delta(up, *up_ends, down, *down_ends,
                                            budget)
    return delta.hex(), rate_bits(up_rates), rate_bits(down_rates)


class TestPathDelta:
    """A ``FlowPath`` side of ``max_delta`` gives the bits of the same path
    as a ``FlowNetwork`` side, with no network."""

    def test_matches_max_delta_on_path_networks_bit_for_bit(self):
        seen = dict.fromkeys(["zero", "one", "budget binds", "capacity binds",
                              "infinite capacity", "side at destination",
                              "short length"], 0)
        at_destination = (FlowNetwork(1, [], [], [], []), (0, 0))
        for seed in range(3000):
            rng = random.Random(seed)
            # one run in three has long paths and a budget that binds near
            # their length, where a float residue of the budget can bring
            # the curve's loop round again
            scale = 1.0 if seed % 3 else rng.uniform(1e4, 1e6)
            sides = [path_side(rng, rng.choice([1, 1, 2, 3]), scale)
                     for _ in range(2)]
            budget = (rng.choice(PATH_BUDGETS) if seed % 3
                      else rng.uniform(0.05, 0.75) * scale)
            (up_net, up_ends, up), (down_net, down_ends, down) = sides
            ref = solve_bits(up_net, up_ends, down_net, down_ends, budget)
            # a path on either side or both
            assert solve_bits(up, up_ends, down_net, down_ends, budget) == ref
            assert solve_bits(up_net, up_ends, down, down_ends, budget) == ref
            assert solve_bits(up, (0, 0), down, (0, 0), budget) == ref
            if seed % 7 == 0:  # the other side is already at its destination
                assert (solve_bits(*at_destination, down, down_ends, budget)
                        == solve_bits(*at_destination, down_net, down_ends,
                                      budget))
                seen["side at destination"] += 1
            for net, (s, t), path in sides:
                # the curve makes one segment at most, of _path_amount's value
                segments = cheapest_flow_curve(net, s, t, value_cap=1.0,
                                               cost_cap=budget)
                amount = flows._path_amount(path.capacity, path.length,
                                            budget)
                assert [seg.amount.hex() for seg in segments] == (
                    [amount.hex()] if amount > 0.0 else [])
                seen["short length"] += 0.0 < path.length <= flows.FEAS_TOL
                seen["infinite capacity"] += math.inf in path.capacity
            delta = float.fromhex(ref[0])
            if delta in (0.0, 1.0):
                seen["zero" if delta == 0.0 else "one"] += 1
            elif any(path.length > flows.FEAS_TOL
                     and delta == budget / path.length
                     for _, _, path in sides):
                seen["budget binds"] += 1
            else:
                seen["capacity binds"] += 1
        assert min(seen.values()) >= 10, seen

    def test_a_side_at_its_destination_never_binds(self):
        rng = random.Random(5)
        net, ends, path = path_side(rng, 2)
        net.update_capacities([0, 1], [0.5, 0.75])
        path.set_capacities([0.5, 0.75])
        at_destination = FlowNetwork(1, [], [], [], [])
        for budget in (0.0, 1.0):
            ref = solve_bits(at_destination, (0, 0), net, ends, budget)
            assert solve_bits(at_destination, (0, 0), path, ends,
                              budget) == ref
            assert solve_bits(path, ends, at_destination, (0, 0),
                              budget) == (ref[0], ref[2], ref[1])
        assert max_delta(at_destination, 0, 0, at_destination, 0, 0,
                         0.0) == (1.0, {}, {})


class TestFlowPath:
    """A ``FlowPath`` is one simple route, checked like a network, and
    solved in closed form inside ``max_delta``."""

    def test_a_budget_residue_brings_the_loop_round_without_a_segment(self):
        # the one segment spends the budget but for a float residue above
        # EPS_CAP, so the curve searches again; the residue over the length
        # is below EPS_CAP, so it makes no second segment
        length, budget = 328033.351, 202676.415
        assert length * (budget / length) < budget - EPS_CAP
        searches = []
        net = FlowNetwork(2, [0], [1], [math.inf], [length])
        search = net._shortest_path
        net._shortest_path = lambda *args: searches.append(1) or search(*args)
        segments = cheapest_flow_curve(net, 0, 1, value_cap=1.0,
                                       cost_cap=budget)
        assert len(searches) == 2 and len(segments) == 1
        free = FlowNetwork(2, [0], [1], [math.inf], [0.0])
        up, down = FlowPath([7], [length]), FlowPath([3], [0.0])
        for path in (up, down):
            path.set_capacities([math.inf])
        delta, up_rates, down_rates = max_delta(up, 0, 1, down, 0, 1, budget)
        ref_delta, *ref_rates = max_delta(net, 0, 1, free, 0, 1, budget)
        assert delta.hex() == ref_delta.hex() == (budget / length).hex()
        assert up_rates == {7: delta} and down_rates == {3: delta}
        assert [list(rates.values()) for rates in ref_rates] == [[delta]] * 2

    def test_length_is_the_left_fold_of_the_costs_in_route_order(self):
        costs = [0.1, 0.2, 0.3]
        path = FlowPath([5, 2, 9], costs)
        assert path.route == (5, 2, 9) and path.m == 3
        assert path.length == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert path.capacity == [0.0] * 3

    def test_empty_or_bad_route_is_refused(self):
        for route, costs in (([], []), ([1, 1], [0.5, 0.5]), ([1, 2], [0.5]),
                             ([1], [-1.0]), ([1], [math.nan]),
                             ([1], [math.inf])):
            with pytest.raises(FlowError):
                FlowPath(route, costs)

    def test_refused_update_changes_nothing(self):
        # set_capacities installs a whole list, or refuses it and keeps the
        # installed one
        path = FlowPath([4, 1, 3], [0.1, 0.1, 0.1])
        installed = [0.5, 0.0, math.inf]
        path.set_capacities(installed)
        assert path.capacity is installed
        for caps, message in (([0.75, 1.0], "3 arcs but 2 capacities"),
                              ([0.75, 1.0, 0.0, 2.0], "3 arcs but 4"),
                              ([0.75, -1.0, 1.0], "negative or NaN"),
                              ([0.75, 1.0, math.nan], "negative or NaN"),
                              ([-math.inf, 1.0, 1.0], "negative or NaN")):
            with pytest.raises(FlowError, match=message):
                path.set_capacities(caps)
            assert path.capacity is installed
            assert path.capacity == [0.5, 0.0, math.inf]

    def test_negative_or_nan_budget_is_refused(self):
        path = FlowPath([1], [0.5])
        path.set_capacities([1.0])
        for budget in (-1.0, -math.inf, math.nan):
            with pytest.raises(FlowError, match="negative or NaN"):
                max_delta(path, 0, 1, path, 0, 1, budget)


def trail_bits(net: FlowNetwork):
    """The network's search trail with its floats as exact bits."""
    return [(key, path, unit_cost.hex(), steps, [p.hex() for p in potential])
            for key, path, unit_cost, steps, potential in net._trail]


class TestSparseIds:
    """A network numbers only the nodes its arcs touch. Its solves return
    the bits of the full-id search (``helpers.ReferenceTopology``), trail
    potentials included, however sparse and scattered those nodes are in
    the id range."""

    def test_ties_take_out_arcs_before_reverse_slots(self):
        # the second search reaches u from v at one cost both along arc 4
        # (v -> u) and against arc 1 (u -> v, which the first path filled);
        # v's out-arcs come first, as the full-id search lists them
        s, u, v, t = 9000, 17, 4000, 123
        arcs = [(s, u, 0.0), (u, v, 0.0), (v, t, 0.0), (s, v, 1.0),
                (v, u, 0.0), (u, t, 1.0)]
        capacities = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]
        expected = [flows.FlowSegment(1.0, 0.0, ((0, 1), (1, 1), (2, 1))),
                    flows.FlowSegment(1.0, 2.0, ((3, 1), (4, 1), (5, 1)))]
        assert cheapest_flow_curve(network(10 ** 4, arcs, capacities), s, t,
                                   value_cap=2.0) == expected
        assert reference_curve(network(10 ** 4, arcs, capacities), s, t,
                               value_cap=2.0) == expected

    def test_curve_and_trail_match_the_full_id_search(self):
        n = 10 ** 4
        seen = dict.fromkeys(["replayed", "resumed", "live", "untouched end"],
                             0)
        for seed in range(30):
            rng = random.Random(5000 + seed)
            ids = rng.sample(range(n), 8)  # scattered, not in id order
            untouched = rng.sample(sorted(set(range(n)) - set(ids)), 2)
            arcs = [(ids[u], ids[v], cost)
                    for u, v, cost in replay_arcs(rng, 8, 20)]
            capacities = [rng.choice(REPLAY_CAPACITIES) for _ in arcs]
            new, ref = network(n, arcs, capacities), network(n, arcs,
                                                              capacities)
            # the search nodes are the touched ids, in id order
            assert list(new._number) == ReferenceTopology(ref).nodes
            for _ in range(15):
                changes = []
                for a in rng.sample(range(len(arcs)), rng.randint(0, 3)):
                    if capacities[a] > EPS_CAP and rng.random() < 0.8:
                        capacities[a] = rng.choice(REPLAY_CAPACITIES[2:])
                    else:
                        capacities[a] = rng.choice(REPLAY_CAPACITIES)
                    changes.append((a, capacities[a]))
                for net in (new, ref):
                    update(net, changes)
                roll = rng.random()
                if roll < 0.1:
                    source, sink = rng.choice([
                        (ids[0], untouched[0]), (untouched[0], ids[1]),
                        tuple(untouched)])
                    seen["untouched end"] += 1
                elif roll < 0.9:
                    source, sink = ids[0], ids[1]
                else:
                    source, sink = rng.sample(ids, 2)
                value_cap = rng.choice([1.0, 2.0, 3.0, 3 * EPS_CAP])
                cost_cap = rng.choice([0.25, 1.0, math.inf])
                previous = list(new._trail)
                assert (segment_bits(cheapest_flow_curve(
                    new, source, sink, value_cap, cost_cap))
                        == segment_bits(reference_curve(
                            ref, source, sink, value_cap, cost_cap)))
                assert trail_bits(new) == trail_bits(ref)
                reused = 0
                while (reused < min(len(previous), len(new._trail))
                       and new._trail[reused] is previous[reused]):
                    reused += 1
                if reused == 0:
                    seen["live"] += 1
                else:
                    seen["replayed" if reused == len(new._trail)
                         else "resumed"] += 1
        assert min(seen.values()) >= 20, seen
