import random

import pytest

from bulkflow.generate import grid
from bulkflow.graph import TerminalPair, Unreachable, solution_cost
from bulkflow.harness import OnlinePipeline, RunConfig
from bulkflow.instance import load_instance
from bulkflow.oracle import offline_opt
from bulkflow.single_sink import GreedySingleSink, combined_weight
from helpers import (build_graph, random_two_metric, reference_shortest_paths,
                     tie_heavy_graph)


def cost(ss):
    return ss.ledger.buy_cost, ss.ledger.length_cost


class TestGreedySingleSink:
    def test_first_terminal_takes_combined_metric_path(self):
        g = build_graph(3, [(0, 1, 2, 1), (1, 2, 1, 0.5), (0, 2, 9, 0.1)])
        ss = GreedySingleSink(g, root=2, direction="sink")
        path = ss.on_terminal(0, pair_index=0)
        assert path == (0, 1)
        assert cost(ss) == pytest.approx((3.0, 1.5))

    def test_terminal_at_root_is_free(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        ss = GreedySingleSink(g, root=1)
        assert ss.on_terminal(1, pair_index=0) == ()
        assert cost(ss) == (0.0, 0.0)

    def test_second_terminal_pays_only_length_on_shared_prefix(self):
        # 5-vertex: two branches joining a shared expensive trunk to the root
        g = build_graph(5, [(0, 2, 1, 0.1), (1, 2, 1, 0.1), (2, 3, 6, 0.2),
                            (3, 4, 1, 0.1), (1, 4, 9, 0.1)])
        ss = GreedySingleSink(g, root=4)
        ss.on_terminal(0, pair_index=0)
        first_buy, first_len = cost(ss)
        assert first_buy == pytest.approx(1 + 6 + 1)
        ss.on_terminal(1, pair_index=1)
        buy, length = cost(ss)
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
            buy, length = cost(ss)
            assert (buy, length) == pytest.approx(
                solution_cost(g, ss.ledger)[:2])

    def test_source_direction(self):
        g = build_graph(3, [(0, 1, 1, 0.5), (1, 2, 2, 0.25)])
        ss = GreedySingleSink(g, root=0, direction="source")
        path = ss.on_terminal(2, pair_index=0)
        assert path == (0, 1)
        assert cost(ss) == pytest.approx((3.0, 0.75))

    def test_marginal_cost_prices_bought_edges_at_their_length(self):
        # the shared trunk 2 -> 3 is bought by the first terminal
        g = build_graph(4, [(0, 2, 1, 0.1), (1, 2, 1, 0.1), (2, 3, 6, 0.2),
                            (1, 3, 7.0, 0.1)])
        ss = GreedySingleSink(g, root=3)
        assert ss.marginal_cost(1) == pytest.approx(7.1)
        assert ss.marginal_cost(0) == pytest.approx(7.3)
        assert cost(ss) == (0.0, 0.0)  # a quote commits nothing
        assert ss.on_terminal(0, pair_index=0) == (0, 2)
        assert ss.marginal_cost(1) == pytest.approx(1.3)
        assert ss.on_terminal(1, pair_index=1) == (1, 2)

    def test_greedy_within_k_times_offline(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_two_metric(rng, 5, 12, ensure_cycle=True)
            terms = rng.sample(range(1, 5), 3)
            ss = GreedySingleSink(g, root=0)
            for i, t in enumerate(terms):
                ss.on_terminal(t, pair_index=i)
            greedy_total = sum(cost(ss))
            opt, _ = offline_opt(g, [TerminalPair(i, t, 0)
                                     for i, t in enumerate(terms)])
            assert greedy_total <= len(terms) * opt + 1e-9


class TestMarginalWeights:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("direction", ["sink", "source"])
    def test_list_keeps_the_marginal_rule(self, seed, direction):
        """After every terminal the weight list is, arc for arc, ``l`` on a
        bought purchase (either twin) and ``c + l`` elsewhere; paths and
        costs are those of the unpruned search under that rule."""
        rng = random.Random(60 + seed)
        g = tie_heavy_graph(rng, 7, 12, directed=False)
        ss = GreedySingleSink(g, root=0, direction=direction)

        def marginal(e):
            if g.purchase_key(e) in ss.ledger.bought:
                return g.l[e]
            return g.c[e] + g.l[e]

        used, twins_only = set(), 0
        for index, terminal in enumerate(rng.choices(range(7), k=6)):
            ends = (terminal, 0) if direction == "sink" else (0, terminal)
            expected = reference_shortest_paths(g, marginal, *ends).get(ends[1])
            if expected is None:
                with pytest.raises(Unreachable):
                    ss.on_terminal(terminal, pair_index=index)
                continue
            assert ss.marginal_cost(terminal).hex() == expected[1].hex()
            assert ss.on_terminal(terminal, pair_index=index) == expected[0]
            used.update(expected[0])
            assert ([w.hex() for w in ss._weight]
                    == [marginal(e).hex() for e in range(g.m)])
            twins_only += sum(e not in used
                              and g.purchase_key(e) in ss.ledger.bought
                              for e in range(g.m))
        # some arc went to its length through its twin's purchase alone
        assert twins_only > 0

    def test_instances_sharing_a_weight_list_buy_apart(self):
        """Instances built from one ``c + l`` list each write their own
        copy: buying on one root's instance leaves the list and another
        root's weights unchanged."""
        g = tie_heavy_graph(random.Random(5), 7, 12, directed=False)
        shared = combined_weight(g)
        fresh = [w.hex() for w in shared]
        first, second = (GreedySingleSink(g, root=root, weight=shared)
                         for root in (0, 1))
        path = first.on_terminal(3, pair_index=0)
        assert path and any(first._weight[e] != shared[e] for e in path)
        assert [w.hex() for w in shared] == fresh
        assert [w.hex() for w in second._weight] == fresh
        assert second.marginal_cost(3) == GreedySingleSink(g, 1).marginal_cost(3)

    def test_pipeline_roots_keep_their_own_weights(self):
        """After a run each side's list is still ``c + l``, and each root's
        instance holds the marginal rule of its own purchases only."""
        inst = load_instance(grid(2, 3, k=6, seed=2))
        pipeline = OnlinePipeline(inst, RunConfig(mode="edge", seed=2, h=1,
                                                  dmax=0.4))
        pipeline.run()
        buying_roots = 0
        for side in pipeline.sides:
            g = side.expansion.graph
            assert ([w.hex() for w in side.weight]
                    == [w.hex() for w in combined_weight(g)])
            for ss in side.single_sinks.values():
                bought = ss.ledger.bought
                assert ss._weight == [
                    g.l[e] if g.purchase_key(e) in bought else g.c[e] + g.l[e]
                    for e in range(g.m)]
                buying_roots += bool(bought)
        assert buying_roots > len(pipeline.sides)
