import pytest

from bulkflow.fractional import ArrivalOutcome, PairSpec, RootSpec, SideGraph
from bulkflow.generate import grid, with_penalties
from bulkflow.graph import GraphError
from bulkflow.harness import RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.prize import VIRTUAL_ROOT_ID, augment, settle
from bulkflow.rounding import Assignment
from helpers import build_graph
from test_fractional import make_solver


def two_sides(up, down):
    return SideGraph(up, upward=True), SideGraph(down, upward=False)


def private_arc(side, pair_index):
    """The one arc of a side that only ``pair_index`` may use."""
    arcs = [e for e, owner in side.owner.items() if owner == pair_index]
    assert len(arcs) == 1
    return arcs[0]


class TestAugment:
    def test_adds_private_arcs_and_virtual_root(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        pairs = [PairSpec(0, up_source=0, down_sink=1, penalty=4.0),
                 PairSpec(1, up_source=0, down_sink=1, penalty=None)]
        sides, virtual = augment(two_sides(up, down), pairs)
        assert [side.upward for side in sides] == [True, False]
        assert [side.graph.n for side in sides] == [3, 3]
        assert (virtual.up_vertex, virtual.down_vertex) == (2, 2)
        # upstairs source -> virtual root, downstairs virtual root -> sink
        for side, ends in zip(sides, [(0, 2), (2, 1)]):
            e = private_arc(side, 0)
            assert (side.graph.tail[e], side.graph.head[e]) == ends
            assert side.graph.c[e] == 0.0
            assert side.graph.l[e] == pytest.approx(2.0)  # q / 2
            assert side.owner[e] == 0
            assert 1 not in side.owner.values()  # no penalty, no escape arc
        assert virtual.root_id == VIRTUAL_ROOT_ID
        assert virtual.virtual

    def test_negative_penalty_rejected(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        with pytest.raises(GraphError):
            augment(two_sides(up, down), [PairSpec(0, 0, 1, penalty=-1.0)])

    def test_private_arc_unusable_by_other_pairs(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        pairs = [PairSpec(0, 0, 1, penalty=0.5), PairSpec(1, 0, 1, penalty=0.5)]
        sides, virtual = augment(two_sides(up, down), pairs)
        solver = make_solver(*sides, [RootSpec(1, 1, 0), virtual])
        for pair in pairs:
            assert solver.on_arrival(pair) == ArrivalOutcome.SATISFIED
        arc = private_arc(sides[0], 0)
        assert arc in solver.up.funnels[(VIRTUAL_ROOT_ID, 0)].arcs
        others = [funnel.arcs for (_, pi), funnel in solver.up.funnels.items()
                  if pi == 1]
        assert len(others) == 2  # the real root and pair 1's own discard
        assert all(arc not in funnel for funnel in others)


class TestFractionalDiscard:
    def test_coverage_constraint_includes_discard_mass(self):
        up = build_graph(2, [(0, 1, 0.6, 0.4)])
        down = build_graph(2, [(0, 1, 0.6, 0.4)])
        pairs = [PairSpec(0, 0, 1, penalty=0.8)]
        sides, virtual = augment(two_sides(up, down), pairs)
        solver = make_solver(*sides, [RootSpec(1, 1, 0), virtual], dmax=0.2)
        assert solver.on_arrival(pairs[0]) == ArrivalOutcome.SATISFIED
        z_real = solver.z[(0, 1)]
        z_discard = solver.z[(0, VIRTUAL_ROOT_ID)]
        assert z_real + z_discard >= 1 - 1e-7
        assert z_discard > 0
        # fractional split contributes q * z_discard through the arc lengths
        arc = private_arc(sides[0], 0)
        assert solver.up.flow[(VIRTUAL_ROOT_ID, 0)][arc] == pytest.approx(z_discard,
                                                                     abs=1e-7)

    def test_zero_penalty_discard_is_free_and_instant(self):
        up = build_graph(2, [(0, 1, 0.6, 0.4)])
        down = build_graph(2, [(0, 1, 0.6, 0.4)])
        pairs = [PairSpec(0, 0, 1, penalty=0.0)]
        sides, virtual = augment(two_sides(up, down), pairs)
        solver = make_solver(*sides, [RootSpec(1, 1, 0), virtual])
        before = solver.lp_objective()
        assert solver.on_arrival(pairs[0]) == ArrivalOutcome.SATISFIED
        assert solver.z[(0, VIRTUAL_ROOT_ID)] >= 0.9
        assert solver.lp_objective() - before < 0.01


class TestSettle:
    def test_dropped_charges_penalty(self):
        assert settle(7.0, Assignment.DROPPED) == 7.0

    def test_other_outcomes_free(self):
        assert settle(7.0, Assignment.ASSIGNED) == 0.0
        assert settle(None, Assignment.FALLBACK) == 0.0

    def test_dropping_without_penalty_is_an_error(self):
        with pytest.raises(GraphError):
            settle(None, Assignment.DROPPED)


class TestPrizePipeline:
    def test_zero_penalties_yield_zero_total(self):
        data = with_penalties(grid(2, 2, k=2, seed=3), seed=1,
                              q_range=(0.0, 0.0))
        report = run_online(load_instance(data), RunConfig(mode="prize", seed=0))
        assert report.online_total == pytest.approx(0.0)
        assert all(a.outcome == "dropped" for a in report.arrivals)

    def test_huge_penalties_match_plain_mode(self):
        base = grid(2, 3, k=3, seed=4)
        pc = with_penalties(base, seed=1, q_range=(1e12, 1e12))
        for seed in range(5):
            plain = run_online(load_instance(base),
                               RunConfig(mode="edge", seed=seed))
            prized = run_online(load_instance(pc),
                                RunConfig(mode="prize", seed=seed))
            assert ([(a.outcome, a.root) for a in plain.arrivals]
                    == [(a.outcome, a.root) for a in prized.arrivals])
            assert prized.penalty_total == 0.0

    def test_total_never_exceeds_penalty_sum(self):
        for seed in range(6):
            data = with_penalties(grid(2, 3, k=3, seed=seed), seed=seed,
                                  q_range=(0.5, 3.0))
            report = run_online(load_instance(data),
                                RunConfig(mode="prize", seed=seed))
            total_q = sum(p["q"] for p in data["pairs"])
            assert report.online_total <= total_q + 1e-9

    def test_report_totals_include_penalty_column(self):
        data = with_penalties(grid(2, 2, k=2, seed=3), seed=2,
                              q_range=(0.1, 0.2))
        report = run_online(load_instance(data), RunConfig(mode="prize", seed=0))
        assert "penalty," in report.to_csv()
