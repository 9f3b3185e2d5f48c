import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bulkflow.errors import InstanceError
from bulkflow.generate import grid, with_penalties
from bulkflow.graph import (GraphError, SolutionLedger, TerminalPair,
                            TwoMetricGraph, Unreachable, shortest_path,
                            shortest_paths, solution_cost, split_node_weights)
from bulkflow.instance import load_instance
from helpers import brute_min_node_cost_path, build_graph


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_add_arc_refuses_cost_and_length(self, bad):
        g = TwoMetricGraph(2)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, bad, 1.0)
        with pytest.raises(GraphError):
            g.add_arc(0, 1, 1.0, bad)
        assert g.m == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_node_split_refuses_weights(self, bad):
        with pytest.raises(GraphError):
            split_node_weights(2, [1.0, bad], [0.0, 0.0], [(0, 1)])
        with pytest.raises(GraphError):
            split_node_weights(2, [1.0, 1.0], [bad, 0.0], [(0, 1)])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_terminal_pair_refuses_penalty(self, bad):
        with pytest.raises(GraphError):
            TerminalPair(index=0, s=0, t=1, penalty=bad)

    @pytest.mark.parametrize("field", ["c", "l"])
    def test_load_instance_refuses_nan_edge(self, field):
        data = grid(2, 2, k=2, seed=1)
        data["edges"][1][field] = math.nan
        with pytest.raises(InstanceError):
            load_instance(data)

    @pytest.mark.parametrize("edit", [
        lambda d: d["edges"][0].update(c="abc"),
        lambda d: d.update(n="x"),
        lambda d: d.update(n=math.inf),
        lambda d: d["pairs"][0].update(d=1.5),
        lambda d: d.update(n=3.9),
        lambda d: d["edges"][0].update(head=1.7),
        lambda d: d["edges"][0].update(tail=True),
        lambda d: d["edges"][0].update(id=1.5),
        lambda d: d.update(directed="false"),
        lambda d: d.update(directed=[0]),
        lambda d: [1, 2],
        lambda d: d.update(edges=[[0, 1]]),
        lambda d: d.update(pairs=[[0, 3]]),
        lambda d: d.update(mode="node", node_costs=[[0, 1.0, 0.5]]),
        lambda d: d["edges"][0].update(c=True),
        lambda d: d["edges"][0].update(l="0.5"),
        lambda d: d.update(mode="prize", pairs=[{**d["pairs"][0], "q": "3"}]),
        lambda d: d.update(mode="node",
                           node_costs=[{"v": 0, "c": True, "l": 0.5}]),
        lambda d: d.update(mode="node",
                           node_costs=[{"v": 0, "c": 1.0, "l": "0.5"}]),
    ], ids=["edge-c", "n", "n-inf", "d-fraction", "n-fraction",
            "head-fraction", "tail-bool", "id-fraction", "directed-string",
            "directed-list", "top-level-list", "edge-entry-list",
            "pair-entry-list", "node-cost-entry-list", "c-bool", "l-string",
            "q-string", "node-c-bool", "node-l-string"])
    def test_load_instance_refuses_non_numeric_fields(self, edit):
        data = grid(2, 2, k=2, seed=1)
        replaced = edit(data)  # None when the edit works in place
        with pytest.raises(InstanceError):
            load_instance(data if replaced is None else replaced)

    @pytest.mark.parametrize("data, block", [
        ({"n": 2, "edges": {}}, "edges"),
        ({"n": 2, "pairs": {}}, "pairs"),
        ({"n": 2, "mode": "node", "node_costs": {}}, "node_costs"),
        ({"n": 2, "edges": {"id": 0, "tail": 0, "head": 1, "c": 1, "l": 1}},
         "edges"),
    ], ids=["edges-object", "pairs-object", "node-costs-object",
            "single-edge"])
    def test_load_instance_refuses_a_block_that_is_not_a_list(self, data,
                                                              block):
        with pytest.raises(InstanceError,
                           match=f"{block} must be a list of objects"):
            load_instance(data)

    def test_node_mode_refuses_fractional_edge_id(self):
        data = grid(2, 2, k=2, seed=1)
        data["mode"] = "node"
        data["node_costs"] = [{"v": v, "c": 1.0, "l": 0.5}
                              for v in range(data["n"])]
        load_instance(data)
        data["edges"][0]["id"] = 1.5
        with pytest.raises(InstanceError, match="id must be an integer"):
            load_instance(data)

    def test_load_instance_refuses_nan_penalty(self):
        data = with_penalties(grid(2, 2, k=2, seed=1), 1)
        data["pairs"][0]["q"] = math.nan
        with pytest.raises(InstanceError):
            load_instance(data)


# (tail, head, c, l) that add_arc refuses on two vertices
BAD_ARCS = [(-1, 0, 1.0, 1.0), (0, -1, 1.0, 1.0), (2, 0, 1.0, 1.0),
            (0, 2, 1.0, 1.0), (0, 1, -1.0, 1.0), (0, 1, 1.0, -0.5)] + [
    arc for bad in NON_FINITE for arc in ((0, 1, bad, 1.0), (0, 1, 1.0, bad))]


def _columns(arcs):
    return [list(column) for column in zip(*arcs)]


class TestFromArcs:
    @pytest.mark.parametrize("bad", BAD_ARCS)
    def test_refuses_what_add_arc_refuses(self, bad):
        with pytest.raises(GraphError):
            TwoMetricGraph(2).add_arc(*bad)
        # between good arcs, so that no check can stop at the first
        arcs = [(0, 1, 2.0, 1.0), bad, (1, 0, 0.0, 3.0)]
        with pytest.raises(GraphError):
            TwoMetricGraph.from_arcs(2, *_columns(arcs))

    def test_refuses_columns_of_unequal_length(self):
        tail, head, c, l = _columns([(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0)])
        for cut in range(4):
            columns = [tail, head, c, l]
            columns[cut] = columns[cut][:1]
            with pytest.raises(GraphError):
                TwoMetricGraph.from_arcs(2, *columns)

    def test_accepts_what_add_arc_accepts(self):
        rng = random.Random(4)
        # parallel arcs, loops, int and float weights, zeros, and weights
        # whose sum overflows to inf although each is finite
        arcs = [(rng.randrange(5), rng.randrange(5), rng.choice([0, 1, 2.5]),
                 rng.choice([0, 0.5, 3])) for _ in range(40)]
        arcs += [(0, 1, 1e308, 1e308), (0, 1, 1e308, 1e308)]
        g = TwoMetricGraph.from_arcs(5, *_columns(arcs))
        ref = TwoMetricGraph(5)
        for arc in arcs:
            ref.add_arc(*arc)
        for name in ("tail", "head", "twin", "out_arcs", "in_arcs"):
            assert getattr(g, name) == getattr(ref, name)
        for name in ("c", "l"):
            assert ([(type(x), x.hex()) for x in getattr(g, name)]
                    == [(type(x), x.hex()) for x in getattr(ref, name)])
        assert g.directed
        with pytest.raises(GraphError, match="frozen"):
            g.add_arc(0, 1, 1.0, 1.0)
        assert TwoMetricGraph.from_arcs(3, [], [], [], []).m == 0

    def test_reversed_view_flips_every_arc(self):
        g = build_graph(3, [(0, 1, 1, 2), (1, 2, 3, 0.5), (0, 1, 1, 1)],
                        directed=False)
        rev = g.reversed_view()
        assert (rev.tail, rev.head, rev.c, rev.l, rev.twin) == (
            g.head, g.tail, g.c, g.l, g.twin)
        assert rev.out_arcs == g.in_arcs and rev.in_arcs == g.out_arcs


class TestNodeSplit:
    def test_single_vertex(self):
        g, mapping = split_node_weights(1, [3.0], [1.0], [])
        assert g.n == 2 and g.m == 1
        assert g.c[0] == 3 and g.l[0] == 1

    def test_undirected_edge_zero_weights(self):
        g, _ = split_node_weights(2, [0, 0], [0, 0], [(0, 1)], directed=False)
        assert g.n == 4
        # 2 internal arcs + 2 connector arcs
        assert g.m == 4
        # the internal arcs come first, one per vertex
        connectors = range(2, g.m)
        assert all(g.tail[e] % 2 == 1 and g.head[e] % 2 == 0
                   for e in connectors)
        assert all(g.c[e] == 0 and g.l[e] == 0 for e in connectors)

    def test_middle_vertex_cost_five(self):
        g, mapping = split_node_weights(3, [0, 5, 0], [0, 0, 0],
                                        [(0, 1), (1, 2)], directed=False)
        start = mapping["source_vertex"][0]
        goal = mapping["sink_vertex"][2]
        _, cost = shortest_path(g, lambda e: g.c[e], start, goal)
        assert cost == pytest.approx(5.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            split_node_weights(1, [-1.0], [0.0], [])

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 5)
            node_c = [rng.uniform(0, 4) for _ in range(n)]
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.6]
            s, t = rng.sample(range(n), 2)
            expected = brute_min_node_cost_path(n, node_c, edges, s, t)
            g, mapping = split_node_weights(n, node_c, [0.0] * n, edges)
            try:
                _, cost = shortest_path(g, lambda e: g.c[e],
                                        mapping["source_vertex"][s],
                                        mapping["sink_vertex"][t])
            except Unreachable:
                cost = None
            if expected is None:
                assert cost is None
            else:
                assert cost == pytest.approx(expected, abs=1e-9)


class TestSolutionCost:
    def test_empty_ledger(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        assert solution_cost(g, SolutionLedger()) == (0, 0, 0)

    def test_single_path(self):
        g = build_graph(3, [(0, 1, 2, 1), (1, 2, 3, 4)])
        ledger = SolutionLedger()
        ledger.add_path(g, 0, [0, 1])
        assert solution_cost(g, ledger) == pytest.approx((5, 5, 10))

    def test_shared_edge_buys_once(self):
        g = build_graph(3, [(0, 1, 10, 1), (2, 0, 0, 0)])
        ledger = SolutionLedger()
        ledger.add_path(g, 0, [0])
        ledger.add_path(g, 1, [1, 0])
        buy, length, total = solution_cost(g, ledger)
        assert buy == 10 and length == 2 and total == 12

    def test_undirected_twin_shares_purchase(self):
        g = build_graph(2, [(0, 1, 7, 0.5)], directed=False)
        ledger = SolutionLedger()
        ledger.add_path(g, 0, [0])  # 0 -> 1
        ledger.add_path(g, 1, [1])  # 1 -> 0 uses the twin arc
        buy, length, total = solution_cost(g, ledger)
        assert buy == 7 and length == 1.0

    def test_second_path_for_a_pair_refused(self):
        # online irrevocability: a pair's committed path is never replaced
        g = build_graph(3, [(0, 1, 2, 1), (1, 2, 3, 4), (0, 2, 1, 1)])
        ledger = SolutionLedger()
        ledger.add_path(g, 0, [0, 1])
        with pytest.raises(GraphError, match="already has a committed path"):
            ledger.add_path(g, 0, [2])
        assert ledger.paths == {0: (0, 1)}
        assert ledger.bought == {0, 1}
        assert (ledger.buy_cost, ledger.length_cost) == (5, 5)

    def test_unbought_path_edge_is_integrity_failure(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        ledger = SolutionLedger()
        ledger.paths[0] = (0,)
        with pytest.raises(GraphError):
            solution_cost(g, ledger)

    def test_noncontiguous_path_rejected(self):
        g = build_graph(4, [(0, 1, 1, 1), (2, 3, 1, 1)])
        ledger = SolutionLedger()
        ledger.buy(g, 0)
        ledger.buy(g, 1)
        ledger.paths[0] = (0, 1)
        with pytest.raises(GraphError):
            solution_cost(g, ledger)

    @given(st.permutations(list(range(4))))
    @settings(max_examples=25, deadline=None)
    def test_order_independent(self, order):
        g = build_graph(5, [(0, 1, 2, 1), (1, 2, 1, 3), (2, 3, 4, 0.5),
                            (3, 4, 1, 1), (0, 2, 2, 2)])
        paths = {0: (0, 1), 1: (1, 2), 2: (4, 2, 3), 3: (0,)}
        ledger = SolutionLedger()
        for pair in order:
            ledger.add_path(g, pair, paths[pair])
        assert solution_cost(g, ledger) == pytest.approx((10.0, 12.0, 22.0))

    def test_buy_bits_do_not_depend_on_purchase_order(self):
        # ids 0 and 8 share a slot of an 8-slot set, so the two ledgers list
        # {0, 1, 8} in different orders; 1 + 2**-53 + 2**-53 rounds to 1
        # from the left but to 1 + 2**-52 with the small costs added first
        tiny = 2.0 ** -53
        g = build_graph(9, [(v, v + 1, 1.0 if v == 0 else tiny, 0.0)
                            for v in range(8)] + [(0, 8, tiny, 0.0)])
        ledgers = []
        for order in ((0, 1, 8), (8, 1, 0)):
            ledger = SolutionLedger()
            for e in order:
                ledger.buy(g, e)
            ledgers.append(ledger)
        assert list(ledgers[0].bought) != list(ledgers[1].bought)
        first, second = (solution_cost(g, ledger) for ledger in ledgers)
        assert [v.hex() for v in first] == [v.hex() for v in second]
        assert first[0] == 1.0  # in key order: 1, then tiny twice


class TestShortestPath:
    def test_start_equals_goal(self):
        g = build_graph(2, [(0, 1, 1, 0)])
        assert shortest_path(g, lambda e: 1.0, 0, 0) == ((), 0.0)

    def test_triangle(self):
        g = build_graph(3, [(0, 1, 1, 0), (1, 2, 1, 0), (0, 2, 3, 0)])
        path, w = shortest_path(g, lambda e: g.c[e], 0, 2)
        assert path == (0, 1) and w == 2

    def test_unreachable(self):
        g = build_graph(3, [(0, 1, 1, 0)])
        with pytest.raises(Unreachable):
            shortest_path(g, lambda e: 1.0, 0, 2)

    def test_lexicographic_tie_break(self):
        # two weight-2 routes; the one whose arc ids compare smaller wins
        g = TwoMetricGraph(4, directed=True)
        g.add_arc(0, 1, 1, 0)  # e0
        g.add_arc(1, 3, 1, 0)  # e1
        g.add_arc(0, 2, 1, 0)  # e2
        g.add_arc(2, 3, 1, 0)  # e3
        g.freeze()
        path, w = shortest_path(g, lambda e: g.c[e], 0, 3)
        assert path == (0, 1) and w == 2

    def test_negative_weight_rejected(self):
        g = build_graph(2, [(0, 1, 1, 0)])
        with pytest.raises(GraphError):
            shortest_path(g, lambda e: -1.0, 0, 1)


def _tie_break_graph():
    g = TwoMetricGraph(4, directed=True)
    g.add_arc(0, 1, 1, 0)
    g.add_arc(1, 3, 1, 0)
    g.add_arc(0, 2, 1, 0)
    g.add_arc(2, 3, 1, 0)
    return g.freeze()


def _tie_heavy_graph(rng):
    """Small multigraph with weights in {0, 1, 2}: zero arcs and many ties."""
    n = rng.randint(2, 6)
    g = TwoMetricGraph(n, directed=True)
    for _ in range(rng.randint(1, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_arc(u, v, rng.choice([0.0, 1.0, 2.0]), 0.0)
    return g.freeze()


def _brute_best_paths(g, start):
    """(weight, arc-id path) minimum over all simple paths, per vertex."""
    best = {}

    def walk(v, seen, path, w):
        best[v] = min(best.get(v, (w, path)), (w, path))
        for e in g.out_arcs[v]:
            if g.head[e] not in seen:
                walk(g.head[e], seen | {g.head[e]}, path + (e,), w + g.c[e])

    walk(start, {start}, (), 0.0)
    return best


def _assert_bit_equal(found, expected):
    """Same vertices, same arc tuples and bit-equal weights."""
    assert ({v: (p, w.hex()) for v, (p, w) in found.items()}
            == {v: (p, w.hex()) for v, (p, w) in expected.items()})


class TestShortestPaths:
    def test_matches_point_to_point_and_brute_force(self):
        rng = random.Random(11)
        graphs = [_tie_break_graph()] + [_tie_heavy_graph(rng)
                                         for _ in range(150)]
        for g in graphs:
            weight = lambda e: g.c[e]
            for s in range(g.n):
                found = shortest_paths(g, weight, s)
                # integer weights: sums are exact, ties are real ties
                brute = _brute_best_paths(g, s)
                assert {v: (w, p) for v, (p, w) in found.items()} == brute
                # against the arcs: the search on the reversed copy, exactly
                _assert_bit_equal(shortest_paths(g, weight, s, backward=True),
                                  shortest_paths(g.reversed_view(), weight, s))
                for v in range(g.n):
                    if v in found:
                        assert shortest_path(g, weight, s, v) == found[v]
                    else:
                        with pytest.raises(Unreachable):
                            shortest_path(g, weight, s, v)

    def test_goal_stops_early_and_allowed_filters(self):
        g = _tie_break_graph()
        assert shortest_paths(g, lambda e: g.c[e], 0, goal=1) == {
            0: ((), 0.0), 1: ((0,), 1.0)}
        found = shortest_paths(g, lambda e: g.c[e], 0, allowed=lambda e: e != 0)
        assert found == {0: ((), 0.0), 2: ((2,), 1.0), 3: ((2, 3), 2.0)}
        # backward from 3: paths into 3, listed from 3's end
        assert shortest_paths(g, lambda e: g.c[e], 3, goal=1,
                              backward=True) == {3: ((), 0.0), 1: ((1,), 1.0)}
        found = shortest_paths(g, lambda e: g.c[e], 3, backward=True,
                               allowed=lambda e: e != 1)
        assert found == {3: ((), 0.0), 2: ((3,), 1.0), 0: ((3, 2), 2.0)}
        rev = g.reversed_view()
        for goal in range(g.n):
            for banned in range(-1, g.m):
                _assert_bit_equal(
                    shortest_paths(g, lambda e: g.c[e], 3, goal=goal,
                                   allowed=lambda e: e != banned,
                                   backward=True),
                    shortest_paths(rev, lambda e: g.c[e], 3, goal=goal,
                                   allowed=lambda e: e != banned))
