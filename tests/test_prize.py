import pytest

from bulkflow.fractional import ArrivalOutcome, PairSpec, RootSpec
from bulkflow.generate import grid, with_penalties
from bulkflow.graph import GraphError
from bulkflow.harness import RunConfig, run_online
from bulkflow.instance import load_instance
from bulkflow.prize import VIRTUAL_ROOT_ID, augment, settle
from bulkflow.rounding import Assignment
from helpers import build_graph
from test_fractional import make_solver


class TestAugment:
    def test_adds_private_arcs_and_virtual_root(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        pairs = [PairSpec(0, up_source=0, down_sink=1, penalty=4.0),
                 PairSpec(1, up_source=0, down_sink=1, penalty=None)]
        aug = augment(up, down, pairs)
        assert aug.up_graph.n == 3 and aug.down_graph.n == 3
        e_up = aug.up_arc_of_pair[0]
        assert aug.up_graph.c[e_up] == 0.0
        assert aug.up_graph.l[e_up] == pytest.approx(2.0)  # q / 2
        assert aug.up_owner[e_up] == 0
        assert 1 not in aug.up_arc_of_pair  # no penalty, no escape arc
        assert aug.virtual_root.root_id == VIRTUAL_ROOT_ID
        assert aug.virtual_root.virtual

    def test_negative_penalty_rejected(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        with pytest.raises(GraphError):
            augment(up, down, [PairSpec(0, 0, 1, penalty=-1.0)])

    def test_private_arc_unusable_by_other_pairs(self):
        up = build_graph(2, [(0, 1, 1, 0.1)])
        down = build_graph(2, [(0, 1, 1, 0.1)])
        pairs = [PairSpec(0, 0, 1, penalty=0.5), PairSpec(1, 0, 1, penalty=0.5)]
        aug = augment(up, down, pairs)
        solver = make_solver(aug.up_graph, aug.down_graph,
                             [RootSpec(1, 1, 0), aug.virtual_root],
                             up_owner=aug.up_owner, down_owner=aug.down_owner)
        assert not solver.up.usable(aug.up_arc_of_pair[0], pair_index=1)
        assert solver.up.usable(aug.up_arc_of_pair[0], pair_index=0)


class TestFractionalDiscard:
    def test_coverage_constraint_includes_discard_mass(self):
        up = build_graph(2, [(0, 1, 0.6, 0.4)])
        down = build_graph(2, [(0, 1, 0.6, 0.4)])
        pairs = [PairSpec(0, 0, 1, penalty=0.8)]
        aug = augment(up, down, pairs)
        solver = make_solver(aug.up_graph, aug.down_graph,
                             [RootSpec(1, 1, 0), aug.virtual_root],
                             up_owner=aug.up_owner, down_owner=aug.down_owner,
                             dmax=0.2)
        assert solver.on_arrival(pairs[0]) == ArrivalOutcome.SATISFIED
        z_real = solver.z[(0, 1)]
        z_discard = solver.z[(0, VIRTUAL_ROOT_ID)]
        assert z_real + z_discard >= 1 - 1e-7
        assert z_discard > 0
        # fractional split contributes q * z_discard through the arc lengths
        arc = aug.up_arc_of_pair[0]
        assert solver.up.flow[(VIRTUAL_ROOT_ID, 0)][arc] == pytest.approx(z_discard,
                                                                     abs=1e-7)

    def test_zero_penalty_discard_is_free_and_instant(self):
        up = build_graph(2, [(0, 1, 0.6, 0.4)])
        down = build_graph(2, [(0, 1, 0.6, 0.4)])
        pairs = [PairSpec(0, 0, 1, penalty=0.0)]
        aug = augment(up, down, pairs)
        solver = make_solver(aug.up_graph, aug.down_graph,
                             [RootSpec(1, 1, 0), aug.virtual_root],
                             up_owner=aug.up_owner, down_owner=aug.down_owner)
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
