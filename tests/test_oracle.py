import json
import math
import random
from dataclasses import replace

import pytest

from bulkflow import cli, oracle
from bulkflow import graph as graph_module
from bulkflow.errors import BudgetExceeded
from bulkflow.generate import grid, random_digraph, with_penalties
from bulkflow.graph import (SolutionLedger, TerminalPair, TwoMetricGraph,
                            solution_cost)
from bulkflow.instance import load_instance
from bulkflow.oracle import (InfeasibleInstance, OracleBudget, exact_opt,
                             junction_opt, lp_lower_bound, offline_opt,
                             offline_opt_prize, ss_offline_opt)
from helpers import (build_graph, random_two_metric,
                     reference_block_junction_opt, reference_junction_opt,
                     reference_offline_opt, reference_offline_opt_prize,
                     reference_ss_offline_opt, tie_heavy_graph)
from test_invariants import ORACLE_PIN_RUNS

# repr of lp_lower_bound on the instances of the penalty-free oracle pin runs
LP_PINS = {"directed": "5.295985", "edge": "8.794669500000001"}


def small_instance(kind, seed):
    """A seeded instance small enough for every exact oracle."""
    if kind == "directed":
        return load_instance(random_digraph(5, 9, 2, seed=seed))
    if kind == "node":
        data = grid(2, 2, k=3, seed=seed)
        rng = random.Random(f"node:{seed}")
        data["mode"] = "node"
        data["node_costs"] = [{"v": v, "c": round(rng.uniform(0.2, 3.0), 6),
                               "l": round(rng.uniform(0.05, 1.0), 6)}
                              for v in range(data["n"])]
        return load_instance(data)
    data = grid(2, 3, k=3, seed=seed)
    if kind == "prize":
        data = with_penalties(data, seed=seed, q_range=(0.3, 4.0))
    return load_instance(data)


def random_pairs(rng, n, k):
    pairs = []
    for i in range(k):
        s, t = rng.sample(range(n), 2)
        pairs.append(TerminalPair(i, s, t))
    return pairs


class TestOfflineOpt:
    def test_triangle_detour_beats_direct(self):
        g = build_graph(3, [(0, 2, 10, 1), (0, 1, 1, 1), (1, 2, 1, 1)])
        value, ledger = offline_opt(g, [TerminalPair(0, 0, 2)])
        assert value == pytest.approx(4.0)
        assert ledger.paths[0] == (1, 2)

    def test_no_pairs(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        value, ledger = offline_opt(g, [])
        assert value == 0 and not ledger.bought

    def test_two_pairs_share_expensive_edge(self):
        g = build_graph(4, [(0, 1, 10, 0.5), (2, 0, 0.5, 0.5),
                            (3, 0, 0.5, 0.5)], directed=False)
        pairs = [TerminalPair(0, 2, 1), TerminalPair(1, 3, 1)]
        value, ledger = offline_opt(g, pairs)
        # hub edge bought once: 10 + 0.5 + 0.5 buys, 2 per-path lengths
        assert value == pytest.approx(13.0)
        assert solution_cost(g, ledger)[2] == pytest.approx(value)

    def test_infeasible_pair(self):
        g = build_graph(3, [(0, 1, 1, 1)])
        with pytest.raises(InfeasibleInstance):
            offline_opt(g, [TerminalPair(0, 0, 2)])

    def test_budget_refusal(self):
        g = random_two_metric(random.Random(0), 6, 25)
        with pytest.raises(BudgetExceeded) as exc:
            offline_opt(g, [TerminalPair(0, 0, 1)], OracleBudget(max_edges=4))
        assert exc.value.required > 4

    def test_pairs_with_equal_ends_are_dropped_before_the_budget(self, tmp_path,
                                                                  capsys):
        """24 purchases are past the subset budget, but no pair needs any."""
        data = grid(4, 4, k=1, seed=0)
        data["pairs"] = [{"s": 3, "t": 3}, {"s": 5, "t": 5}]
        inst = load_instance(data)
        assert len({inst.graph.purchase_key(e) for e in range(inst.graph.m)}) == 24
        assert offline_opt(inst.graph, inst.pairs) == (0.0, SolutionLedger())
        path = tmp_path / "loops.json"
        path.write_text(json.dumps(data))
        assert cli.main(["oracle", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "opt": 0.0, "junction_opt": 0.0, "lp_lb": 0.0}

    def test_invariant_under_pair_reordering_and_edge_relabeling(self):
        rng = random.Random(4)
        g = random_two_metric(rng, 4, 8, ensure_cycle=True)
        pairs = random_pairs(rng, 4, 3)
        base, _ = offline_opt(g, pairs)
        shuffled = [pairs[2], pairs[0], pairs[1]]
        assert offline_opt(g, shuffled)[0] == pytest.approx(base)
        # rebuild with edges inserted in reverse order
        g2 = TwoMetricGraph(4, directed=True)
        for e in reversed(range(g.m)):
            g2.add_arc(g.tail[e], g.head[e], g.c[e], g.l[e])
        g2.freeze()
        assert offline_opt(g2, pairs)[0] == pytest.approx(base)


class TestSingleSinkOpt:
    def test_single_terminal_is_shortest_combined_path(self):
        g = build_graph(3, [(0, 1, 2, 1), (1, 2, 1, 0.5), (0, 2, 9, 9)])
        assert ss_offline_opt(g, [0], 2) == pytest.approx(4.5)

    def test_terminal_at_root(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        assert ss_offline_opt(g, [1], 1) == 0.0

    def test_star_shares_hub_edge(self):
        # two leaves feed a hub that connects to the root by one pricey edge
        g = build_graph(4, [(1, 0, 1, 0.1), (2, 0, 1, 0.1), (0, 3, 8, 0.2)])
        value = ss_offline_opt(g, [1, 2], 3)
        assert value == pytest.approx(1 + 1 + 8 + 0.1 + 0.1 + 2 * 0.2)

    def test_duplicate_terminals_pay_length_twice(self):
        g = build_graph(2, [(0, 1, 5, 1)])
        assert ss_offline_opt(g, [0, 0], 1) == pytest.approx(5 + 2)

    def test_source_direction_reverses(self):
        g = build_graph(3, [(0, 1, 1, 0.5), (1, 2, 2, 0.25)])
        assert ss_offline_opt(g, [2], 0, "source") == pytest.approx(3.75)

    def test_unreachable_terminal(self):
        g = build_graph(3, [(0, 1, 1, 1)])
        with pytest.raises(InfeasibleInstance):
            ss_offline_opt(g, [2], 1)

    def test_agrees_with_subset_enumeration(self):
        # two independent exact methods must coincide
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            g = random_two_metric(rng, n, rng.randint(n, 2 * n))
            terms = [rng.randrange(1, n) for _ in range(rng.randint(1, 3))]
            try:
                dp = ss_offline_opt(g, terms, 0)
            except InfeasibleInstance:
                continue
            pairs = [TerminalPair(i, t, 0) for i, t in enumerate(terms)]
            enum, _ = offline_opt(g, pairs)
            assert dp == pytest.approx(enum, abs=1e-7)
            checked += 1
        assert checked >= 15


class TestJunctionOpt:
    def test_single_sink_instance_equals_offline(self):
        rng = random.Random(8)
        g = random_two_metric(rng, 4, 10, ensure_cycle=True)
        pairs = [TerminalPair(i, s, 3) for i, s in enumerate([0, 1, 2])]
        assert junction_opt(g, pairs) == pytest.approx(offline_opt(g, pairs)[0])

    def test_dominates_offline_on_random_instances(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_two_metric(rng, 4, 9, ensure_cycle=True)
            pairs = random_pairs(rng, 4, rng.randint(1, 3))
            opt, _ = offline_opt(g, pairs)
            assert junction_opt(g, pairs) >= opt - 1e-9

    def test_crossing_pairs_on_cycle_strictly_worse(self):
        g = TwoMetricGraph(4, directed=True)
        for i in range(4):
            g.add_arc(i, (i + 1) % 4, 1.0, 0.1)
        g.freeze()
        pairs = [TerminalPair(0, 0, 3), TerminalPair(1, 2, 1)]
        opt, _ = offline_opt(g, pairs)
        junc = junction_opt(g, pairs)
        assert opt == pytest.approx(4.6)
        assert junc > opt + 1e-9

    def test_budget_refusals(self):
        g = random_two_metric(random.Random(1), 4, 8)
        many = random_pairs(random.Random(2), 4, 6)
        with pytest.raises(BudgetExceeded):
            junction_opt(g, many)
        big = random_two_metric(random.Random(3), 9, 12)
        with pytest.raises(BudgetExceeded):
            junction_opt(big, random_pairs(random.Random(4), 9, 2))


    def test_prize_value_is_the_best_drop_set(self):
        # every split into dropped pairs (paying q) and routed pairs (the
        # junction optimum without penalties); some seeds drop a pair
        dropping = 0
        for seed in range(10):
            inst = small_instance("prize", seed)
            pairs = inst.pairs
            best = math.inf
            for mask in range(1 << len(pairs)):
                dropped = [p.penalty for i, p in enumerate(pairs)
                           if mask >> i & 1]
                kept = [replace(p, penalty=None)
                        for i, p in enumerate(pairs) if not mask >> i & 1]
                try:
                    value = junction_opt(inst.graph, kept)
                except InfeasibleInstance:
                    continue
                best = min(best, sum(dropped) + value)
            found = junction_opt(inst.graph, pairs)
            assert abs(found - best) <= 1e-9
            routed = junction_opt(inst.graph,
                                  [replace(p, penalty=None) for p in pairs])
            dropping += found < routed - 1e-9
        assert dropping >= 3


class TestLpLowerBound:
    def test_sandwiched_by_offline_opt(self):
        rng = random.Random(10)
        for _ in range(12):
            g = random_two_metric(rng, 4, 8, ensure_cycle=True)
            pairs = random_pairs(rng, 4, 2)
            opt, _ = offline_opt(g, pairs)
            lb = lp_lower_bound(g, pairs)
            assert lb <= opt + 1e-7
            assert lb > 0

    def test_single_path_tight(self):
        g = build_graph(3, [(0, 1, 1, 0.5), (1, 2, 2, 0.25)])
        assert lp_lower_bound(g, [TerminalPair(0, 0, 2)]) == pytest.approx(3.75)

    def test_no_pairs(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        assert lp_lower_bound(g, []) == 0.0

    @pytest.mark.parametrize("mode", sorted(LP_PINS))
    def test_pinned(self, mode):
        make, _ = ORACLE_PIN_RUNS[mode]
        inst = load_instance(make())
        assert repr(lp_lower_bound(inst.graph, inst.pairs)) == LP_PINS[mode]

    @pytest.mark.parametrize("kind", ["edge", "node", "directed", "prize"])
    def test_below_the_exact_and_junction_optima(self, kind):
        for seed in range(6):
            inst = small_instance(kind, seed)
            assert inst.mode == ("edge" if kind == "directed" else kind)
            lb = lp_lower_bound(inst.graph, inst.pairs)
            opt = exact_opt(inst.graph, inst.pairs, inst.mode)
            assert 0 <= lb <= opt + 1e-7
            assert opt <= junction_opt(inst.graph, inst.pairs) + 1e-9

    def test_prize_pair_pays_its_penalty_instead(self, tmp_path, capsys):
        path = tmp_path / "prize.json"
        path.write_text(json.dumps({
            "n": 2, "mode": "prize",
            "edges": [{"tail": 0, "head": 1, "c": 10, "l": 1}],
            "pairs": [{"s": 0, "t": 1, "q": 1}]}))
        assert cli.main(["oracle", "--instance", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert (printed["opt"], printed["lp_lb"]) == (1.0, 1.0)
        assert printed["junction_opt"] == 1.0


class TestPrizeOracle:
    def test_drops_when_penalty_cheaper(self):
        g = build_graph(2, [(0, 1, 10, 1)])
        pairs = [TerminalPair(0, 0, 1, penalty=3.0)]
        assert offline_opt_prize(g, pairs) == pytest.approx(3.0)

    def test_routes_when_penalty_expensive(self):
        g = build_graph(2, [(0, 1, 1, 0.5)])
        pairs = [TerminalPair(0, 0, 1, penalty=100.0)]
        assert offline_opt_prize(g, pairs) == pytest.approx(1.5)

    def test_mixed_split(self):
        g = build_graph(3, [(0, 1, 1, 0.1), (1, 2, 50, 1)])
        pairs = [TerminalPair(0, 0, 1, penalty=9.0),
                 TerminalPair(1, 0, 2, penalty=2.0)]
        # route the cheap pair, drop the one that needs the pricey edge
        assert offline_opt_prize(g, pairs) == pytest.approx(1.1 + 2.0)

    def test_drop_sets_are_the_subsets_of_the_penalized_pairs(self,
                                                              monkeypatch):
        """Only penalized pairs are dropped, so the search routes 2**q drop
        sets, and its bits are those of the loop over every drop mask."""
        routed = []

        def counted(graph, pairs, *args):
            routed.append(len(pairs))
            return offline_opt(graph, pairs, *args)
        # the reference calls offline_opt as imported, uncounted
        monkeypatch.setattr(oracle, "offline_opt", counted)
        for seed in range(6):
            inst = small_instance("prize", seed)
            # the first pair may no longer be dropped
            pairs = [replace(inst.pairs[0], penalty=None), *inst.pairs[1:]]
            for case in (inst.pairs, pairs):
                routed.clear()
                assert (outcome(offline_opt_prize, inst.graph, case)
                        == outcome(reference_offline_opt_prize, inst.graph,
                                   case))
                charged = sum(p.penalty is not None for p in case)
                assert 1 <= len(routed) <= 2 ** charged
                # every routed set holds the pairs that pay no penalty
                assert min(routed) >= len(case) - charged

    def test_more_penalized_pairs_than_the_drop_budget_are_refused(
            self, tmp_path, capsys):
        g = build_graph(2, [(0, 1, 1.0, 0.5)])
        pairs = [TerminalPair(i, 0, 1, penalty=2.0) for i in range(11)]
        with pytest.raises(BudgetExceeded) as exc:
            offline_opt_prize(g, pairs)
        assert exc.value.required == 11
        three = pairs[:3] + [TerminalPair(3, 0, 1)]
        with pytest.raises(BudgetExceeded) as exc:
            offline_opt_prize(g, three, OracleBudget(max_drop_pairs=2))
        assert exc.value.required == 3
        assert (offline_opt_prize(g, three, OracleBudget(max_drop_pairs=3))
                == reference_offline_opt_prize(g, three))
        path = tmp_path / "many.json"
        path.write_text(json.dumps({
            "n": 2, "mode": "prize",
            "edges": [{"tail": 0, "head": 1, "c": 1, "l": 0.5}],
            "pairs": [{"s": 0, "t": 1, "q": 2}] * 11}))
        assert cli.main(["oracle", "--instance", str(path)]) == cli.EXIT_BUDGET
        assert "drop budget" in capsys.readouterr().err

    def test_pairs_with_equal_ends_are_dropped_before_the_drop_budget(
            self, tmp_path, capsys):
        """An ``s == t`` pair routes at cost 0 and pays a penalty ``>= 0``
        when dropped, so it neither counts toward the drop budget nor moves
        the value."""
        g = build_graph(2, [(0, 1, 1.0, 0.5)])
        pairs = [TerminalPair(i, 0, 1, penalty=2.0) for i in range(10)]
        looped = pairs + [TerminalPair(10, 1, 1, penalty=0.5)]
        assert exact_opt(g, pairs, "prize") == 6.0
        assert exact_opt(g, looped, "prize") == 6.0
        assert offline_opt_prize(g, looped) == 6.0
        # a free loop, or the only penalty on a loop, changes nothing either
        free_loop = TerminalPair(10, 0, 0, penalty=0.0)
        assert offline_opt_prize(g, [*pairs, free_loop]) == 6.0
        plain = [TerminalPair(0, 0, 1), TerminalPair(1, 1, 1, penalty=0.5)]
        assert exact_opt(g, plain, "prize") == offline_opt(g, plain)[0] == 1.5
        # five routed pairs (the junction budget) and six penalized loops
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({
            "n": 2, "mode": "prize",
            "edges": [{"tail": 0, "head": 1, "c": 1, "l": 0.5}],
            "pairs": ([{"s": 0, "t": 1, "q": 2}] * 5
                      + [{"s": 1, "t": 1, "q": 0.5}] * 6)}))
        assert cli.main(["oracle", "--instance", str(path)]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["opt"] == 3.5


def outcome(fn, *args, **kwargs):
    """A result, with ledgers as (value, bought, paths), or the refusal."""
    try:
        result = fn(*args, **kwargs)
    except InfeasibleInstance:
        return "infeasible"
    if isinstance(result, tuple):
        value, ledger = result
        return value, ledger.bought, ledger.paths
    return result


def tie_heavy_cases(seed_base, count):
    for seed in range(seed_base, seed_base + count):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        g = tie_heavy_graph(rng, n, rng.randint(n, 2 * n + 2),
                            directed=seed % 2 == 0)
        # endpoints drawn with repetition: s == t pairs, shared terminals
        pairs = [TerminalPair(i, rng.randrange(n), rng.randrange(n))
                 for i in range(rng.randint(1, 5))]
        yield rng, g, pairs


def random_weight_cases(seed_base, count):
    """Random non-dyadic weights, directed and undirected, half of the
    graphs with a spanning cycle; 1-5 pairs, ``s == t`` allowed."""
    for seed in range(seed_base, seed_base + count):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        g = random_two_metric(rng, n, rng.randint(n, 2 * n),
                              directed=seed % 2 == 0,
                              ensure_cycle=seed % 4 < 2)
        pairs = [TerminalPair(i, rng.randrange(n), rng.randrange(n))
                 for i in range(rng.randint(1, 5))]
        yield rng, g, pairs


def count_length_cuts(monkeypatch):
    """A one-item list counting the nodes ``offline_opt``'s length bound
    prunes."""
    cuts = [0]
    cut = oracle._length_cut

    def counted(*args):
        pruned = cut(*args)
        cuts[0] += pruned
        return pruned
    monkeypatch.setattr(oracle, "_length_cut", counted)
    return cuts


class TestPrunedSearchesMatchReference:
    """The pruned searches return the unpruned ones' exact bits."""

    def test_offline_opt_bit_equal_with_equal_ledgers(self):
        outcomes = set()
        for _rng, g, pairs in tie_heavy_cases(100, 120):
            got = outcome(offline_opt, g, pairs)
            assert got == outcome(reference_offline_opt, g, pairs)
            outcomes.add(got == "infeasible")
        assert outcomes == {True, False}

    def test_offline_opt_bit_equal_on_random_weights(self, monkeypatch):
        """Non-dyadic costs and lengths round, so a length bound that cut a
        leaf the plain search accepts, or a slack too small for the
        rounding, would show as a different value or ledger."""
        cuts = count_length_cuts(monkeypatch)
        seen = set()
        for _rng, g, pairs in random_weight_cases(0, 240):
            got = outcome(offline_opt, g, pairs)
            assert got == outcome(reference_offline_opt, g, pairs)
            seen.add((g.directed, got == "infeasible"))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}
        assert cuts[0] > 0

    def test_prize_optimum_bit_equal_on_random_weights(self, monkeypatch):
        cuts = count_length_cuts(monkeypatch)
        seen = set()
        for rng, g, pairs in random_weight_cases(1000, 80):
            priced = [replace(p, penalty=rng.choice((None, 0.4, 1.3, 2.9)))
                      for p in pairs]
            got = outcome(exact_opt, g, priced, "prize")
            assert got == outcome(reference_offline_opt_prize, g, priced)
            routed = outcome(offline_opt, g, pairs)
            seen.add("infeasible" if got == "infeasible"
                     else "drop" if routed == "infeasible" or got < routed[0]
                     else "route")
        assert seen == {"infeasible", "drop", "route"}
        assert cuts[0] > 0

    def test_junction_opt_bit_equal(self):
        outcomes = set()
        for _rng, g, pairs in tie_heavy_cases(300, 120):
            got = outcome(junction_opt, g, pairs)
            assert got == outcome(reference_junction_opt, g, pairs)
            outcomes.add(got == "infeasible")
        assert outcomes == {True, False}

    def test_junction_opt_bit_equal_to_the_block_search_with_penalties(self):
        """The product loop has no penalty branch; the tuple block search
        does, and the bitmask search must return its bits."""
        seen = set()
        for rng, g, pairs in tie_heavy_cases(900, 200):
            pairs = [replace(p, penalty=rng.choice((None, None, 0.0, 0.3,
                                                     0.7, 2.1)))
                     for p in pairs]
            got = outcome(junction_opt, g, pairs)
            assert got == outcome(reference_block_junction_opt, g, pairs)
            routed = outcome(junction_opt, g,
                             [replace(p, penalty=None) for p in pairs])
            seen.add("infeasible" if got == "infeasible"
                     else "drop" if routed == "infeasible" or got < routed
                     else "route")
            if any(p.s == p.t for p in pairs):
                seen.add("loop")
            ends = [v for p in pairs if p.s != p.t for v in (p.s, p.t)]
            if len(ends) > len(set(ends)):
                seen.add("shared")
        assert seen == {"infeasible", "drop", "route", "loop", "shared"}
        for seed in range(10):
            inst = small_instance("prize", seed)
            assert (junction_opt(inst.graph, inst.pairs)
                    == reference_block_junction_opt(inst.graph, inst.pairs))

    def test_junction_opt_dp_budget_refusal_is_order_free(self):
        """A DP budget below the pair count: junction_opt refuses whenever
        the product loop does, and where it does not refuse both give the
        same bits. It checks the widest block (all pairs on one root) before
        searching, so it may also refuse where the product loop's pruning
        never built that block."""
        def refused(fn, *args, **kwargs):
            try:
                return outcome(fn, *args, **kwargs)
            except BudgetExceeded:
                return "budget"

        seen = set()
        for rng, g, pairs in tie_heavy_cases(700, 200):
            budget = OracleBudget(max_ss_terminals=rng.randint(1, 2))
            got = refused(junction_opt, g, pairs, budget)
            ref = refused(reference_junction_opt, g, pairs, budget)
            if ref == "budget" or got != "budget":
                assert got == ref
            seen.add(got == "budget")
        assert seen == {True, False}
        # the widest block is all three pairs on root 2; the product loop
        # meets a two-terminal block on root 0 first and reports that
        g = build_graph(3, [(1, 0, 0.5, 0.25), (0, 2, 2.0, 0.25),
                            (0, 2, 1.0, 0.5), (2, 1, 1.0, 0.5)])
        pairs = [TerminalPair(0, 0, 1), TerminalPair(1, 1, 2),
                 TerminalPair(2, 1, 0)]
        with pytest.raises(BudgetExceeded) as exc:
            junction_opt(g, pairs, OracleBudget(max_ss_terminals=1))
        assert exc.value.required == 3
        wide_enough = OracleBudget(max_ss_terminals=3)
        assert (junction_opt(g, pairs, wide_enough)
                == reference_junction_opt(g, pairs, wide_enough) == 4.5)

    def test_junction_opt_keeps_the_block_sum_order(self):
        # random costs round differently when blocks are summed in another order
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            g = random_two_metric(rng, n, rng.randint(n, 2 * n),
                                  directed=seed % 2 == 0, ensure_cycle=True)
            pairs = [TerminalPair(i, rng.randrange(n), rng.randrange(n))
                     for i in range(rng.randint(2, 5))]
            assert junction_opt(g, pairs) == reference_junction_opt(g, pairs)

    def test_ss_offline_opt_bit_equal_with_root_among_terminals(self):
        for rng, g, _pairs in tie_heavy_cases(500, 80):
            root = rng.randrange(g.n)
            terms = [rng.randrange(g.n) for _ in range(rng.randint(1, 4))]
            terms.append(root)
            for direction in ("sink", "source"):
                assert (outcome(ss_offline_opt, g, terms, root, direction)
                        == outcome(reference_ss_offline_opt, g, terms, root,
                                   direction))

    def test_unreachable_pair_refused_by_both(self):
        g = build_graph(4, [(0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0),
                            (2, 3, 0.0, 0.5)])
        pairs = [TerminalPair(0, 0, 1), TerminalPair(1, 1, 1),
                 TerminalPair(2, 0, 3)]
        for fn in (offline_opt, reference_offline_opt, junction_opt,
                   reference_junction_opt):
            with pytest.raises(InfeasibleInstance):
                fn(g, pairs)


def test_oracle_work_is_bounded(monkeypatch):
    """Each pair's route is kept through the subset search, which prunes on
    the kept routes' lengths, DP tables are shared and each block's root
    rows are built once: on this instance the unpruned searches make 5,241
    route searches and 488 Dijkstra runs, a search that tests every excluded
    purchase for connectivity makes 688 route searches and 809 reachability
    walks, the kept-route search pruned on the buy cost alone makes 311
    route searches, and with the length bound it makes 35."""
    calls = {"shortest_path": 0, "_multi_weight_dijkstra": 0, "_root_row": 0}
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)
    # every reachability walk, however reachable_from is imported
    calls["walks"] = 0
    walk = graph_module._traverse

    def counted_walk(*args):
        calls["walks"] += 1
        return walk(*args)
    monkeypatch.setattr(graph_module, "_traverse", counted_walk)
    inst = load_instance(random_digraph(6, 12, 4, seed=3))
    offline_opt(inst.graph, inst.pairs)
    assert calls["shortest_path"] + calls["walks"] <= 60
    junction_opt(inst.graph, inst.pairs)
    # one table per non-empty sub-multiset of the sources and of the sinks,
    # and a sink row and a source row per block (a non-empty pair subset)
    k = len(inst.pairs)
    assert calls["_multi_weight_dijkstra"] <= 2 * (2 ** k - 1)
    assert 0 < calls["_root_row"] <= 2 * (2 ** k - 1)


def test_offline_opt_builds_a_ledger_only_for_an_improvement(monkeypatch):
    """A leaf prices its routes without a ledger and builds one only when it
    beats the best value, so every ledger after the seed bound's is an
    improvement. On this instance a ledger per leaf makes 171."""
    made = []

    def counted(*args, **kwargs):
        ledger = SolutionLedger(*args, **kwargs)
        made.append(ledger)
        return ledger

    monkeypatch.setattr(oracle, "SolutionLedger", counted)
    inst = load_instance(random_digraph(6, 12, 4, seed=3))
    value, ledger = offline_opt(inst.graph, inst.pairs)
    totals = [built.total for built in made]
    improvements = sum(later < earlier - oracle.VALUE_TOL
                       for earlier, later in zip(totals, totals[1:]))
    assert improvements >= 1
    assert len(made) <= 1 + improvements
    assert ledger is made[-1] and value == ledger.total
    monkeypatch.undo()
    assert outcome(offline_opt, inst.graph, inst.pairs) == outcome(
        reference_offline_opt, inst.graph, inst.pairs)


def test_exact_opt_dispatches_on_mode_and_penalties():
    g = build_graph(2, [(0, 1, 10, 1)])
    priced = [TerminalPair(0, 0, 1, penalty=3.0)]
    assert exact_opt(g, priced, "prize") == offline_opt_prize(g, priced)
    assert exact_opt(g, priced, "edge") == offline_opt(g, priced)[0]
    plain = [TerminalPair(0, 0, 1)]
    assert exact_opt(g, plain, "prize") == offline_opt(g, plain)[0]
