import itertools
import random

import pytest

from bulkflow.errors import BudgetExceeded
from bulkflow.graph import (SolutionLedger, Unreachable, shortest_path,
                            solution_cost)
from bulkflow.junction import (build_junction_forest, map_to_gst,
                               pull_forest_ledger, root_links_on_path)
from bulkflow.oracle import ss_offline_opt
from helpers import build_graph, random_two_metric


def cycle_graph(n=3, c=1.0, l=0.2):
    g = build_graph(n, [(i, (i + 1) % n, c, l) for i in range(n)])
    return g


class TestBuildForest:
    def test_tuple_counts(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=2, h=2, sources=[0], sinks=[2])
        for side in ("up", "down"):
            for r in range(3):
                count = sum(1 for (s, rr, _t) in forest.tuple_of.values()
                            if s == side and rr == r)
                assert count == 1 + 3 + 9

    def test_arc_weights_inherited_from_layered_edges(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=2, h=2, sources=[0], sinks=[2])
        fg = forest.graph
        for a in range(fg.m):
            inherit = forest.layered_edge[a]
            if inherit is None:
                assert fg.c[a] == 0 and fg.l[a] == 0
                continue
            side, le = inherit
            layer = forest.up_layer if side == "up" else forest.down_layer
            assert fg.c[a] == layer.graph.c[le]
            assert fg.l[a] == layer.graph.l[le]

    def test_every_terminal_route_crosses_one_root_link(self):
        g = cycle_graph(4)
        forest = build_junction_forest(g, k=1, h=2, sources=[0], sinks=[2])
        s = forest.source_vertex[0]
        t = forest.sink_vertex[2]
        # many cheapest routes under random metrics still use exactly one link
        rng = random.Random(0)
        for _ in range(10):
            jitter = [rng.uniform(0.5, 2.0) for _ in range(forest.graph.m)]
            try:
                path, _ = shortest_path(forest.graph,
                                        lambda e: forest.graph.c[e] * jitter[e]
                                        + forest.graph.l[e], s, t)
            except Unreachable:
                pytest.fail("terminal pair should be routable through the forest")
            assert root_links_on_path(forest, path) == 1

    def test_node_budget_refusal_reports_requirement(self):
        g = cycle_graph(4)
        with pytest.raises(BudgetExceeded) as exc:
            build_junction_forest(g, k=1, h=3, sources=[0], sinks=[1],
                                  node_budget=100)
        assert exc.value.required == 2 * 4 * (1 + 4 + 16 + 64)


class TestGstMapping:
    def test_single_terminal_weight_equals_route_objective(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[1], sinks=[2])
        sub = map_to_gst(forest, "up", 0, terminals=[1])
        assert not sub.infeasible_terminals
        for member in sub.instance.groups[0]:
            weight = sub.solution_weight({0: member})
            ledger = sub.to_forest_ledger({0: member})
            assert solution_cost(forest.graph, ledger)[2] == pytest.approx(weight)

    def test_two_terminals_share_internal_arcs(self):
        # sources 1 and 2 join the same tree; shared tuple arcs are paid once
        g = build_graph(4, [(1, 0, 2, 0.1), (2, 3, 1, 0.1), (3, 0, 4, 0.1)])
        forest = build_junction_forest(g, k=2, h=2, sources=[1, 2], sinks=[0])
        sub = map_to_gst(forest, "up", 0, terminals=[1, 2])
        best = None
        for combo in itertools.product(sub.instance.groups[0],
                                       sub.instance.groups[1]):
            connections = {0: combo[0], 1: combo[1]}
            weight = sub.solution_weight(connections)
            total = solution_cost(forest.graph,
                                  sub.to_forest_ledger(connections))[2]
            assert total == pytest.approx(weight)
            if best is None or weight < best:
                best = weight
        # exact exhaustive GST value matches the tree-DP single-sink optimum on H
        dp = ss_offline_opt(forest.graph,
                            [forest.source_vertex[1], forest.source_vertex[2]],
                            forest.up_root[0])
        assert best == pytest.approx(dp)

    def test_down_side_mapping(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[0], sinks=[1])
        sub = map_to_gst(forest, "down", 0, terminals=[1])
        assert sub.instance.groups[0]
        for member in sub.instance.groups[0]:
            h_total = solution_cost(forest.graph,
                                    sub.to_forest_ledger({0: member}))[2]
            assert h_total == pytest.approx(sub.solution_weight({0: member}))

    def test_map_back_never_costs_more(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_two_metric(rng, 3, 6, ensure_cycle=True)
            forest = build_junction_forest(g, k=1, h=2, sources=[1], sinks=[2])
            sub = map_to_gst(forest, "up", 0, terminals=[1])
            if sub.infeasible_terminals:
                continue
            member = rng.choice(sub.instance.groups[0])
            weight = sub.solution_weight({0: member})
            base = pull_forest_ledger(forest,
                                      sub.to_forest_ledger({0: member}))
            assert solution_cost(g, base)[2] <= weight + 1e-9

    def test_round_trip_single_path(self):
        # a path graph: the unique route must survive the round trip exactly
        g = build_graph(3, [(0, 1, 1, 0.5), (1, 2, 2, 0.25)])
        forest = build_junction_forest(g, k=1, h=2, sources=[0], sinks=[2])
        sub = map_to_gst(forest, "up", 2, terminals=[0])
        assert sub.instance.groups[0]
        for member in sub.instance.groups[0]:
            base = pull_forest_ledger(forest,
                                      sub.to_forest_ledger({0: member}))
            assert base.paths[0] == (0, 1)
            assert solution_cost(g, base)[2] == pytest.approx(3.75)

    def test_internal_junction_vertex(self):
        # map the subtree hanging below a level-1 tuple vertex
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[1], sinks=[2])
        level1 = [v for v, (side, r, tup) in forest.tuple_of.items()
                  if side == "up" and r == 0 and len(tup) == 1]
        checked = 0
        for junction in level1:
            sub = map_to_gst(forest, "up", 0, terminals=[1], junction=junction)
            if sub.infeasible_terminals:
                continue
            for member in sub.instance.groups[0]:
                weight = sub.solution_weight({0: member})
                ledger = sub.to_forest_ledger({0: member})
                # paths stop at the junction, not the tree root
                assert forest.graph.head[ledger.paths[0][-1]] == junction
                assert solution_cost(forest.graph,
                                     ledger)[2] == pytest.approx(weight)
                checked += 1
        assert checked > 0

    def test_empty_terminal_set(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[0], sinks=[2])
        sub = map_to_gst(forest, "up", 0, terminals=[])
        assert sub.instance.groups == {}
        assert sub.solution_weight({}) == 0.0

    def test_unreachable_terminal_flagged(self):
        g = build_graph(3, [(0, 1, 1, 1)])  # vertex 2 isolated
        forest = build_junction_forest(g, k=1, h=1, sources=[2], sinks=[1])
        sub = map_to_gst(forest, "up", 0, terminals=[2])
        assert sub.infeasible_terminals == (0,)


class TestPullForestLedger:
    def test_structural_arcs_vanish(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[1], sinks=[2])
        ledger = SolutionLedger()
        link = forest.root_link_arc[0]
        ledger.buy(forest.graph, link)
        pulled = pull_forest_ledger(forest, ledger)
        assert not pulled.bought

    def test_overlapping_back_paths_merge(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=2, h=2, sources=[1], sinks=[2])
        fg = forest.graph
        inherited = [a for a in range(fg.m)
                     if forest.layered_edge[a] is not None
                     and forest.layered_edge[a][0] == "up"]
        # two different forest arcs inheriting the same layered edge
        by_layer = {}
        twin = None
        for a in inherited:
            le = forest.layered_edge[a][1]
            if le in by_layer and forest.up_layer.back_path[le]:
                twin = (by_layer[le], a)
                break
            by_layer[le] = a
        assert twin is not None
        ledger = SolutionLedger()
        ledger.buy(fg, twin[0])
        ledger.buy(fg, twin[1])
        pulled = pull_forest_ledger(forest, ledger)
        le = forest.layered_edge[twin[0]][1]
        assert pulled.buy_cost == pytest.approx(
            sum(g.c[e] for e in set(forest.up_layer.back_path[le])))
