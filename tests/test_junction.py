import itertools
import random
from operator import attrgetter

import pytest

from bulkflow.errors import BudgetExceeded
from bulkflow.generate import random_digraph
from bulkflow.graph import (GraphError, SolutionLedger, Unreachable,
                            shortest_path, solution_cost)
from bulkflow.instance import load_instance
from bulkflow.junction import (build_junction_forest, dump_forest_edges,
                               map_to_gst, pull_forest_ledger,
                               root_links_on_path)
from bulkflow.oracle import ss_offline_opt
from helpers import (build_graph, random_two_metric,
                     reference_build_junction_forest, reference_map_to_gst)


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
                path, _ = shortest_path(
                    forest.graph, [c * j + l for c, j, l in zip(
                        forest.graph.c, jitter, forest.graph.l)], s, t)
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


FOREST_FIELDS = ("graph.n", "graph.tail", "graph.head", "graph.c", "graph.l",
                 "layered_edge", "tuple_of", "up_root", "down_root",
                 "source_vertex", "sink_vertex", "root_link_arc", "back_path")
GST_FIELDS = ("junction", "instance.groups", "instance.parent_arc", "dangling",
              "tree_arc_id", "infeasible_terminals")


def differing(ours, theirs, fields):
    """The dotted fields on which two objects differ (a short list keeps a
    failure report fast; pytest's diff of large dicts is not)."""
    return [name for name in fields
            if attrgetter(name)(ours) != attrgetter(name)(theirs)]


def seeded_forest_cases():
    """Digraphs with n 2-5 and h 1-3, strongly and not strongly connected,
    each with a repeated source and a repeated sink."""
    for seed, (n, h, strong) in enumerate(itertools.product(
            range(2, 6), range(1, 4), (True, False))):
        data = random_digraph(n, 2 * n, 3, seed, strongly_connected=strong)
        rng = random.Random(seed)
        s, t = rng.randrange(n), rng.randrange(n)
        yield (load_instance(data).graph, h, [s, rng.randrange(n), s],
               [t, t, rng.randrange(n)])


class TestReferenceEquivalence:
    """The one-path-per-side builder and ``map_to_gst`` number and map
    everything exactly as the side-by-side code before them did."""

    def test_forests_and_group_steiner_views_match(self):
        for g, h, sources, sinks in seeded_forest_cases():
            forest = build_junction_forest(g, 2, h, sources, sinks)
            ref = reference_build_junction_forest(g, 2, h, sources, sinks)
            assert differing(forest, ref, FOREST_FIELDS) == []
            level1 = [v for v, (_s, _r, tup) in forest.tuple_of.items()
                      if len(tup) == 1]
            for side, terminals in (("up", sources), ("down", sinks)):
                terminals = terminals + [g.n - 1]
                junctions = [(r, None) for r in range(g.n)] + [
                    (forest.tuple_of[v][1], v) for v in level1
                    if forest.tuple_of[v][0] == side]
                for root, junction in junctions:
                    sub = map_to_gst(forest, side, root, terminals, junction)
                    want = reference_map_to_gst(ref, side, root, terminals,
                                                junction)
                    assert differing(sub, want, GST_FIELDS) == [], \
                        (side, root, junction)


class TestMapToGstRefusals:
    def test_bad_junction_and_root_raise_graph_error(self):
        g = cycle_graph(3)
        forest = build_junction_forest(g, k=1, h=2, sources=[0], sinks=[2])
        with pytest.raises(GraphError, match="not a tuple vertex"):
            map_to_gst(forest, "up", 0, terminals=[0],
                       junction=forest.source_vertex[0])
        with pytest.raises(GraphError, match="not a tuple vertex"):
            map_to_gst(forest, "down", 0, terminals=[2],
                       junction=forest.graph.n)
        for root in (3, -1):
            with pytest.raises(GraphError, match="not a base vertex"):
                map_to_gst(forest, "down", root, terminals=[2])


def test_dump_labels_name_tuples_and_terminals():
    g = cycle_graph(3)
    forest = build_junction_forest(g, k=1, h=1, sources=[0], sinks=[2, 1])
    rows = dump_forest_edges(forest)
    assert [row["id"] for row in rows] == list(range(forest.graph.m))
    labels = {row["tail"] for row in rows} | {row["head"] for row in rows}
    assert {"src:0", "snk:1", "snk:2", "up:0|", "down:2|"} <= labels
    link = rows[forest.root_link_arc[1]]
    assert (link["tail"], link["head"]) == ("up:1|", "down:1|")
    hookups = [row for row in rows if row["tail"] == "src:0"]
    assert [row["head"] for row in hookups] == ["up:0|0", "up:1|0", "up:2|0"]
