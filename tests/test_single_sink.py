import itertools
import random

import pytest

import bulkflow.single_sink as single_sink
from bulkflow.graph import GraphError, TerminalPair, solution_cost
from bulkflow.oracle import offline_opt
from bulkflow.single_sink import (GreedySingleSink, GroupSteinerGreedy,
                                  GroupSteinerInstance)
from helpers import build_graph, random_two_metric


class TestGreedySingleSink:
    def test_first_terminal_takes_combined_metric_path(self):
        g = build_graph(3, [(0, 1, 2, 1), (1, 2, 1, 0.5), (0, 2, 9, 0.1)])
        ss = GreedySingleSink(g, root=2, direction="sink")
        path = ss.on_terminal(0, pair_index=0)
        assert path == (0, 1)
        assert ss.cost() == pytest.approx((3.0, 1.5))

    def test_terminal_at_root_is_free(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        ss = GreedySingleSink(g, root=1)
        assert ss.on_terminal(1, pair_index=0) == ()
        assert ss.cost() == (0.0, 0.0)

    def test_second_terminal_pays_only_length_on_shared_prefix(self):
        # 5-vertex: two branches joining a shared expensive trunk to the root
        g = build_graph(5, [(0, 2, 1, 0.1), (1, 2, 1, 0.1), (2, 3, 6, 0.2),
                            (3, 4, 1, 0.1), (1, 4, 9, 0.1)])
        ss = GreedySingleSink(g, root=4)
        ss.on_terminal(0, pair_index=0)
        first_buy, first_len = ss.cost()
        assert first_buy == pytest.approx(1 + 6 + 1)
        ss.on_terminal(1, pair_index=1)
        buy, length = ss.cost()
        # second path 1->2->3->4 adds only edge (1,2)'s buy price
        assert buy - first_buy == pytest.approx(1.0)
        assert length == pytest.approx(2 * 0.4)
        # exhaustive two-path optimum can only be cheaper
        opt, _ = offline_opt(g, [TerminalPair(0, 0, 4), TerminalPair(1, 1, 4)])
        assert buy + length >= opt - 1e-9

    def test_reported_cost_matches_ledger_accounting(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_two_metric(rng, 5, 12, ensure_cycle=True)
            ss = GreedySingleSink(g, root=0)
            for i, t in enumerate(rng.sample(range(1, 5), 3)):
                ss.on_terminal(t, pair_index=i)
            buy, length = ss.cost()
            assert (buy, length) == pytest.approx(
                solution_cost(g, ss.ledger)[:2])

    def test_source_direction(self):
        g = build_graph(3, [(0, 1, 1, 0.5), (1, 2, 2, 0.25)])
        ss = GreedySingleSink(g, root=0, direction="source")
        path = ss.on_terminal(2, pair_index=0)
        assert path == (0, 1)
        assert ss.cost() == pytest.approx((3.0, 0.75))

    def test_quote_then_serve_searches_once(self, monkeypatch):
        searches = []
        search = single_sink.shortest_path

        def counted(graph, weight, start, goal):
            searches.append((start, goal))
            return search(graph, weight, start, goal)

        monkeypatch.setattr(single_sink, "shortest_path", counted)
        # the shared trunk 2 -> 3 is bought by the first terminal
        g = build_graph(4, [(0, 2, 1, 0.1), (1, 2, 1, 0.1), (2, 3, 6, 0.2),
                            (1, 3, 7.0, 0.1)])
        ss = GreedySingleSink(g, root=3)
        assert ss.marginal_cost(1) == pytest.approx(7.1)
        assert ss.marginal_cost(0) == pytest.approx(7.3)
        assert ss.on_terminal(0, pair_index=0) == (0, 2)
        assert searches == [(1, 3), (0, 3)]
        # the purchase makes terminal 1's quote stale: it is searched again
        assert ss.marginal_cost(1) == pytest.approx(1.3)
        assert ss.on_terminal(1, pair_index=1) == (1, 2)
        assert searches == [(1, 3), (0, 3), (1, 3)]

    def test_greedy_within_k_times_offline(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_two_metric(rng, 5, 12, ensure_cycle=True)
            terms = rng.sample(range(1, 5), 3)
            ss = GreedySingleSink(g, root=0)
            for i, t in enumerate(terms):
                ss.on_terminal(t, pair_index=i)
            greedy_total = sum(ss.cost())
            opt, _ = offline_opt(g, [TerminalPair(i, t, 0)
                                     for i, t in enumerate(terms)])
            assert greedy_total <= len(terms) * opt + 1e-9


def chain_instance(weights_by_leaf):
    """Star of root paths: leaf i hangs below a chain with given arc weights."""
    parent_arc = {}
    groups = {}
    next_vertex = 1
    for gid, chains in weights_by_leaf.items():
        members = []
        for weights in chains:
            parent = 0
            for w in weights:
                parent_arc[next_vertex] = (parent, w)
                parent = next_vertex
                next_vertex += 1
            members.append(parent)
        groups[gid] = tuple(members)
    return GroupSteinerInstance(root=0, parent_arc=parent_arc, groups=groups)


def brute_force_gst(instance):
    best = None
    gids = sorted(instance.groups)
    for combo in itertools.product(*(instance.groups[g] for g in gids)):
        arcs = set()
        total = 0.0
        for member in combo:
            for child, parent, w in instance.root_path(member):
                if (child, parent) not in arcs:
                    arcs.add((child, parent))
                    total += w
        if best is None or total < best:
            best = total
    return best


class TestGroupSteinerGreedy:
    def test_singleton_group_buys_unique_path(self):
        inst = chain_instance({0: [[2.0, 3.0]]})
        greedy = GroupSteinerGreedy(inst)
        greedy.on_group(0)
        assert greedy.total_weight == pytest.approx(5.0)

    def test_connected_member_is_free(self):
        inst = chain_instance({0: [[2.0]], 1: [[2.0]]})
        # both groups share nothing; craft sharing: group 1 member == group 0 member
        inst.groups = {0: inst.groups[0], 1: inst.groups[0]}
        greedy = GroupSteinerGreedy(inst)
        greedy.on_group(0)
        w = greedy.total_weight
        greedy.on_group(1)
        assert greedy.total_weight == w

    def test_empty_group_rejected(self):
        inst = chain_instance({0: [[1.0]]})
        inst.groups = {0: ()}
        with pytest.raises(GraphError):
            GroupSteinerGreedy(inst).on_group(0)

    def test_shared_subtree_marginal_excludes_bought(self):
        # two groups on chains that share a prefix through vertex 1
        parent_arc = {1: (0, 4.0), 2: (1, 1.0), 3: (1, 1.5)}
        inst = GroupSteinerInstance(root=0, parent_arc=parent_arc,
                                    groups={0: (2,), 1: (3,)})
        greedy = GroupSteinerGreedy(inst)
        greedy.on_group(0)
        assert greedy.total_weight == pytest.approx(5.0)
        greedy.on_group(1)
        assert greedy.total_weight == pytest.approx(6.5)

    def test_against_exhaustive_on_small_trees(self):
        rng = random.Random(5)
        for _ in range(20):
            weights_by_leaf = {}
            leaves = 0
            gid = 0
            while leaves < 8 and gid < 3:
                chains = []
                for _ in range(rng.randint(1, 3)):
                    chains.append([round(rng.uniform(0.5, 3), 3)
                                   for _ in range(rng.randint(1, 2))])
                    leaves += 1
                weights_by_leaf[gid] = chains
                gid += 1
            inst = chain_instance(weights_by_leaf)
            opt = brute_force_gst(inst)
            greedy = GroupSteinerGreedy(inst)
            for g in sorted(inst.groups):
                greedy.on_group(g)
            assert greedy.total_weight >= opt - 1e-9
            assert greedy.total_weight <= len(inst.groups) * opt + 1e-9
