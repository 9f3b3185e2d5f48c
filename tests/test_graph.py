import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bulkflow.errors import InstanceError
from bulkflow.generate import grid, with_penalties
from bulkflow.graph import (CableType, GraphError, SolutionLedger,
                            TerminalPair, TwoMetricGraph, Unreachable,
                            expand_cables, shortest_path, solution_cost,
                            split_node_weights)
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

    def test_load_instance_refuses_nan_penalty(self):
        data = with_penalties(grid(2, 2, k=2, seed=1), 1)
        data["pairs"][0]["q"] = math.nan
        with pytest.raises(InstanceError):
            load_instance(data)


class TestExpandCables:
    def test_single_cable_identity(self):
        g = expand_cables(2, [(0, 1, [CableType(5, 2)])])
        assert g.m == 1
        assert g.c[0] == 5 and g.l[0] == 2

    def test_two_cables_two_parallel_edges(self):
        g = expand_cables(2, [(0, 1, [CableType(1, 3), CableType(4, 1)])])
        assert g.m == 2
        assert {(g.c[e], g.l[e]) for e in range(2)} == {(1, 3), (4, 1)}
        assert g.source[0] == (0, 0) and g.source[1] == (0, 1)

    def test_load_three_routes_on_best_cable(self):
        # independent oracle: enumerate sigma + load*delta over cable types
        cables = [CableType(1, 3), CableType(4, 1)]
        load = 3
        oracle = min(c.sigma + load * c.delta for c in cables)
        assert oracle == 7
        g = expand_cables(2, [(0, 1, cables)])
        best_copy = min(range(g.m), key=lambda e: g.c[e] + load * g.l[e])
        ledger = SolutionLedger()
        for i in range(load):
            ledger.add_path(g, i, [best_copy])
        assert solution_cost(g, ledger)[2] == pytest.approx(oracle)

    def test_empty_cable_list_rejected(self):
        with pytest.raises(GraphError):
            expand_cables(2, [(0, 1, [])])

    def test_routing_cost_matches_min_cable_assignment_exhaustive(self):
        # exhaustively: for any fixed routing with integer loads, the best
        # parallel-copy choice reproduces min-over-cables exactly
        import itertools
        catalog = [CableType(0, 2), CableType(1, 3), CableType(4, 1)]
        menus = [list(combo) for size in (1, 2, 3)
                 for combo in itertools.combinations(catalog, size)]
        for n_edges in (1, 2):
            for cable_lists in itertools.product(menus, repeat=n_edges):
                for loads in itertools.product((1, 3), repeat=n_edges):
                    direct = sum(min(c.sigma + loads[i] * c.delta for c in cl)
                                 for i, cl in enumerate(cable_lists))
                    g = expand_cables(
                        n_edges + 1,
                        [(i, i + 1, cl) for i, cl in enumerate(cable_lists)])
                    per_edge = []
                    for i in range(n_edges):
                        copies = [e for e in range(g.m) if g.source[e][0] == i]
                        per_edge.append(min(g.c[e] + loads[i] * g.l[e]
                                            for e in copies))
                    assert sum(per_edge) == pytest.approx(direct)


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
        connectors = [e for e in range(g.m) if g.source[e][0] == "edge"]
        assert len(connectors) == 2
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
