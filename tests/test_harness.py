import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import bulkflow
from bulkflow import cli, fractional, harness
from bulkflow.errors import InstanceError
from bulkflow.flows import EPS_CAP
from bulkflow.generate import (adversarial_order, generate, grid,
                               random_digraph, star_of_paths, with_penalties,
                               _greedy_dispatch_cost)
from bulkflow.graph import Unreachable, shortest_path, solution_cost
from bulkflow.harness import (OnlinePipeline, RunConfig, default_kappa,
                              run_experiment, run_online)
from bulkflow.instance import dump_instance, load_instance
from bulkflow.prize import settle
from bulkflow.rounding import Assignment, LazyThresholds, draw_thresholds
from bulkflow.single_sink import GreedySingleSink
from helpers import (EveryDoublingPipeline,
                     assert_forest_routes_cross_their_root, build_graph)


def run(data, mode="edge", seed=0, **kw):
    return run_online(load_instance(data), RunConfig(mode=mode, seed=seed, **kw))


def decide(monkeypatch, label, root=None):
    """Make the rounding decide ``(label, root)`` for every pair."""
    monkeypatch.setattr(harness, "choose_root", lambda *_: (label, root))


def base_route(inst, pair):
    g = inst.graph
    return shortest_path(g, [c + l for c, l in zip(g.c, g.l)], pair.s, pair.t)


def prize_pair(penalty):
    """One discardable pair on a 2x2 grid, with the given penalty."""
    data = grid(2, 2, k=1, seed=4)
    data["mode"] = "prize"
    data["pairs"][0]["q"] = penalty
    return data


class TestRunOnline:
    def test_every_reachable_pair_connected(self):
        data = grid(2, 3, k=3, seed=1)
        inst = load_instance(data)
        report = run(data)
        for pair in inst.pairs:
            path = report.ledger.paths[pair.index]
            if not path:
                assert pair.s == pair.t
                continue
            assert inst.graph.tail[path[0]] == pair.s
            assert inst.graph.head[path[-1]] == pair.t

    def test_totals_match_recomputed_ledger(self):
        data = grid(2, 3, k=3, seed=2)
        inst = load_instance(data)
        report = run(data)
        buy, length, total = solution_cost(inst.graph, report.ledger)
        assert report.buy_cost == pytest.approx(buy)
        assert report.length_cost == pytest.approx(length)
        assert report.online_total == pytest.approx(total + report.penalty_total)

    def test_deterministic_replay_is_byte_identical(self):
        data = random_digraph(6, 14, 3, seed=5)
        a = run(data, seed=3, oracle=True)
        b = run(data, seed=3, oracle=True)
        assert a.to_csv() == b.to_csv()
        assert a.assignment_trace_csv() == b.assignment_trace_csv()

    def test_fallback_cost_added_verbatim(self, monkeypatch):
        # a declined plain pair gets the direct path at its own cost
        decide(monkeypatch, Assignment.FALLBACK)
        data = grid(2, 2, k=1, seed=4)
        inst = load_instance(data)
        report = run(data)
        pair = inst.pairs[0]
        path, cost = base_route(inst, pair)
        assert report.fallback_count == 1
        assert report.ledger.paths[pair.index] == path
        assert report.online_total == pytest.approx(cost, rel=1e-12)
        assert report.penalty_total == 0.0

    def test_unreachable_pair_reported_run_continues(self):
        data = {"directed": True, "n": 3, "mode": "edge",
                "edges": [{"id": 0, "tail": 0, "head": 1, "c": 1, "l": 1}],
                "pairs": [{"s": 0, "t": 2}, {"s": 0, "t": 1}]}
        report = run(data)
        assert report.infeasible_count == 1
        outcomes = [a.outcome for a in report.arrivals]
        assert outcomes[0] == "infeasible"
        assert outcomes[1] in ("assigned", "fallback")

    def test_trivial_pair_served_free(self):
        data = {"directed": False, "n": 2, "mode": "edge",
                "edges": [{"id": 0, "tail": 0, "head": 1, "c": 1, "l": 1}],
                "pairs": [{"s": 0, "t": 0}]}
        report = run(data)
        assert report.arrivals[0].outcome == "trivial"
        assert report.online_total == 0.0

    def test_small_kappa_forces_epoch_doubling(self):
        data = grid(2, 3, k=3, seed=6)
        report = run(data, kappa=0.25)
        assert report.epochs > 1
        # later epochs replay earlier pairs; everything still routes
        assert report.infeasible_count == 0

    def test_directed_mode_runs_junction_pipeline(self):
        data = random_digraph(4, 9, 2, seed=7)
        inst = load_instance(data)
        config = RunConfig(mode="directed", seed=0, h=2, oracle=True)
        pipeline = OnlinePipeline(inst, config)
        for pair in inst.pairs:
            pipeline.process(pair)
        report = pipeline.finish()
        assert pipeline.forest is not None
        assert assert_forest_routes_cross_their_root(pipeline) > 0
        assert report.online_total > 0

    @pytest.mark.parametrize("mode", ["edge", "directed"])
    def test_dear_edge_on_no_route_leaves_the_guess_alone(self, mode):
        # a pendant vertex behind an edge far dearer than any route: its
        # layer arcs lie in no ball, so they spend nothing of the epoch
        data = (grid(2, 2, k=2, seed=1) if mode == "edge"
                else random_digraph(6, 14, 2, seed=1))
        data["n"] += 1
        base = run(data, mode)
        data["edges"].append({"id": len(data["edges"]), "tail": 0,
                              "head": data["n"] - 1, "c": 1e6, "l": 1.0})
        dear = run(data, mode)

        def epochs(report):
            return [(a.outcome, a.root, a.epoch, a.lam)
                    for a in report.arrivals]

        assert epochs(dear) == epochs(base)
        assert dear.online_total == base.online_total

    def test_an_overflowed_epoch_is_never_read_again(self, monkeypatch):
        # the solver of an epoch that overflowed is dropped: the pipeline
        # restarts from a fresh one, so the overflowing step may leave its
        # state past the spend cap
        overflowed, late = [], []
        on_arrival, choose = (fractional.CompositeSolver.on_arrival,
                              harness.choose_root)

        def dropped(solver):
            return any(solver is old for old in overflowed)

        def recorded_arrival(solver, pair):
            if dropped(solver):
                late.append(("on_arrival", pair.index))
            outcome = on_arrival(solver, pair)
            if outcome == fractional.ArrivalOutcome.EPOCH_OVERFLOW:
                overflowed.append(solver)
            return outcome

        def recorded_choose(solver, tau, pair_index):
            if dropped(solver):
                late.append(("choose_root", pair_index))
            return choose(solver, tau, pair_index)

        monkeypatch.setattr(fractional.CompositeSolver, "on_arrival",
                            recorded_arrival)
        monkeypatch.setattr(harness, "choose_root", recorded_choose)
        inst = load_instance(grid(2, 2, k=3, seed=5))
        pipeline = OnlinePipeline(inst, RunConfig(mode="edge", kappa=1.0))
        for pair in inst.pairs:
            pipeline.process(pair)
        pipeline.finish()
        assert overflowed
        assert not dropped(pipeline.solver)
        assert late == []

    def test_directed_mode_requires_directed_graph(self):
        data = grid(2, 2, k=1, seed=0)
        with pytest.raises(InstanceError):
            run(data, mode="directed")

    @pytest.mark.parametrize("mode, data", [
        ("edge", with_penalties(grid(2, 3, k=4, seed=0), seed=0)),
        ("directed", with_penalties(random_digraph(4, 9, 2, seed=7), seed=0)),
        ("prize", grid(2, 2, k=1, seed=0))])
    def test_prize_instance_and_prize_mode_go_together(self, mode, data):
        # outside prize mode the LP has no discard root, so the penalties
        # would be paid against an optimum that ignores them
        with pytest.raises(InstanceError, match="prize"):
            run(data, mode=mode, h=1, dmax=0.4)

    def test_default_kappa_formula(self):
        assert default_kappa(16) == pytest.approx(64 * 4 ** 3)
        assert default_kappa(20) == pytest.approx(64 * 5 ** 3)


class TestServing:
    """Each branch of serving a pair, forced through the rounding decision
    or the single sink."""

    def test_cheap_fallback_served_after_one_base_search(self, monkeypatch):
        # a fallback cheaper than the penalty is served, and the base
        # graph is searched once for it
        decide(monkeypatch, Assignment.FALLBACK)
        inst = load_instance(prize_pair(1e6))
        searched = []

        def counting(graph, *args, **kw):
            if graph is inst.graph:
                searched.append(args[1:])
            return shortest_path(graph, *args, **kw)

        monkeypatch.setattr(harness, "shortest_path", counting)
        report = run_online(inst, RunConfig(mode="prize"))
        pair = inst.pairs[0]
        assert [a.outcome for a in report.arrivals] == ["fallback"]
        assert searched == [(pair.s, pair.t)]
        path, cost = base_route(inst, pair)
        assert report.ledger.paths[pair.index] == path
        assert report.penalty_total == 0.0
        assert report.online_total == pytest.approx(cost, rel=1e-12)

    def test_dear_fallback_dropped_and_penalty_charged_once(self, monkeypatch):
        # a fallback dearer than the penalty is dropped
        decide(monkeypatch, Assignment.FALLBACK)
        settled = []

        def counting(penalty, outcome):
            settled.append(outcome)
            return settle(penalty, outcome)

        monkeypatch.setattr(harness, "settle", counting)
        report = run(prize_pair(0.001), mode="prize")
        assert [a.outcome for a in report.arrivals] == ["dropped"]
        assert report.arrivals[0].root is None
        assert settled == [Assignment.DROPPED]
        assert report.penalty_total == 0.001
        assert report.online_total == 0.001
        assert report.fallback_count == 0
        assert report.ledger.paths == {}

    def test_dear_assigned_quote_dropped(self, monkeypatch):
        # an assigned root whose single sinks quote more than the
        # penalty: the pair is dropped and nothing is bought for it
        inst = load_instance(prize_pair(0.001))
        decide(monkeypatch, Assignment.ASSIGNED, inst.pairs[0].s)
        served = []
        monkeypatch.setattr(GreedySingleSink, "on_terminal",
                            lambda *args, **kw: served.append(args))
        report = run_online(inst, RunConfig(mode="prize"))
        assert [a.outcome for a in report.arrivals] == ["dropped"]
        assert report.arrivals[0].root is None
        assert served == []
        assert report.penalty_total == 0.001
        assert report.online_total == 0.001

    def test_unreachable_single_sink_falls_back(self, monkeypatch):
        # the defensive catch: a single sink that cannot serve the pair
        def refuse(*_args, **_kw):
            raise Unreachable("no path to the root")

        monkeypatch.setattr(GreedySingleSink, "on_terminal", refuse)
        data = grid(2, 2, k=1, seed=4)
        inst = load_instance(data)
        report = run(data)
        assert [a.outcome for a in report.arrivals] == ["fallback"]
        assert report.arrivals[0].root is None
        assert report.to_csv().splitlines()[1].split(",")[2:4] == ["fallback", ""]
        pair = inst.pairs[0]
        assert report.ledger.paths[pair.index] == base_route(inst, pair)[0]


class TestThresholdDraws:
    INSTANCES = [
        (grid(2, 3, k=4, seed=1), "edge", {}),
        (star_of_paths(3, 2, k=6, seed=109305), "edge", {}),
        (with_penalties(grid(2, 2, k=4, seed=3), 3, q_range=(0.3, 4.0)),
         "prize", {"h": 1, "dmax": 0.4}),
        (random_digraph(4, 9, 3, 2), "directed", {"h": 2, "dmax": 0.4}),
    ]

    def test_lazy_draws_are_the_eager_ones(self, monkeypatch):
        """Each epoch draws a root's threshold when a pair first reads it:
        the entries read equal ``draw_thresholds``, fewer are drawn, and
        the assignment trace is the one the eager draws give."""
        epochs = []

        class Recorded(LazyThresholds):
            def __init__(self, roots, n, seed):
                super().__init__(roots, n, seed)
                epochs.append((self, draw_thresholds(roots, n, seed)))

        traces = []
        for data, mode, config in self.INSTANCES:
            monkeypatch.setattr(harness, "LazyThresholds", Recorded)
            lazy = run(data, mode, seed=5, **config)
            monkeypatch.setattr(harness, "LazyThresholds", draw_thresholds)
            eager = run(data, mode, seed=5, **config)
            assert lazy.assignment_trace_csv() == eager.assignment_trace_csv()
            traces.append(lazy.assignment_trace_csv())
        assert len(epochs) > len(self.INSTANCES)  # some guess doubled
        for drawn, expected in epochs:
            assert drawn.items() <= expected.items()
        assert sum(map(len, (drawn for drawn, _ in epochs))) < sum(
            len(expected) for _, expected in epochs)
        assert any("assigned" in trace for trace in traces)


def _longest_too_small_run(outcomes):
    """The most ``GUESS_TOO_SMALL`` outcomes in a row."""
    longest = run_length = 0
    for outcome in outcomes:
        run_length = (run_length + 1
                      if outcome == fractional.ArrivalOutcome.GUESS_TOO_SMALL
                      else 0)
        longest = max(longest, run_length)
    return longest


class TestReplaySkip:
    """After an arrival ends ``GUESS_TOO_SMALL``, history is replayed only
    at the first doubled guess at which the pair has an eligible root: the
    reports, epochs and guess are those of replaying at every doubling."""

    # each has an arrival whose ball holds no root at two or more guesses
    # in a row
    INSTANCES = [
        (grid(2, 3, k=3, seed=4), "edge", {"h": 1, "dmax": 0.4}),
        (grid(2, 2, k=3, seed=18), "edge", {}),
        (random_digraph(5, 10, 3, seed=27), "directed",
         {"h": 2, "dmax": 0.4}),
        (with_penalties(grid(2, 3, k=3, seed=31), 31, q_range=(0.3, 4.0)),
         "prize", {"h": 1, "dmax": 0.4}),
    ]

    @staticmethod
    def _run(cls, data, mode, config, monkeypatch):
        """The pipeline after its run, its report and the solvers it
        started."""
        started = []
        solver = fractional.CompositeSolver

        def counted(*args, **kwargs):
            started.append(args[4])  # the guess
            return solver(*args, **kwargs)

        monkeypatch.setattr(harness, "CompositeSolver", counted)
        pipeline = cls(load_instance(data),
                       RunConfig(mode=mode, seed=3, **config))
        return pipeline, pipeline.run(), started

    @pytest.mark.parametrize("data, mode, config", INSTANCES)
    def test_reports_equal_replaying_at_every_doubling(self, data, mode,
                                                       config, monkeypatch):
        ref, expected, ref_started = self._run(
            EveryDoublingPipeline, data, mode, config, monkeypatch)
        assert _longest_too_small_run(ref.outcomes) >= 2
        new, report, started = self._run(OnlinePipeline, data, mode, config,
                                         monkeypatch)
        for csv in ("to_csv", "lp_trace_csv", "assignment_trace_csv"):
            assert getattr(report, csv)() == getattr(expected, csv)()
        assert report.epochs == expected.epochs
        assert new.epoch == ref.epoch and new.lam.hex() == ref.lam.hex()
        # every guess that started a solver started one in the reference,
        # and some guess the reference replayed at was skipped
        assert set(started) < set(ref_started)
        assert len(started) < len(ref_started)

    def test_same_error_past_the_epoch_limit(self, monkeypatch):
        # every limit below the run's last epoch, so that some are passed
        # at a guess that is probed and skipped
        data, mode, config = self.INSTANCES[3]
        ref, expected, ref_started = self._run(
            EveryDoublingPipeline, data, mode, config, monkeypatch)
        _, _, started = self._run(OnlinePipeline, data, mode, config,
                                  monkeypatch)
        # the reference starts one solver per epoch, in epoch order
        assert len(ref_started) == ref.epoch + 1
        skipped = [epoch for epoch, guess in enumerate(ref_started)
                   if guess not in started]
        assert skipped
        for limit in range(ref.epoch + 1):
            monkeypatch.setattr(harness, "MAX_EPOCHS", limit)
            ends = []
            for cls in (EveryDoublingPipeline, OnlinePipeline):
                try:
                    ends.append(self._run(cls, data, mode, config,
                                          monkeypatch)[1].to_csv())
                except InstanceError as exc:
                    ends.append(str(exc))
            assert ends[0] == ends[1]
            if limit < ref.epoch:
                assert f"within {limit} epochs" in ends[0]
            else:
                assert ends[0] == expected.to_csv()


class TestRunConfig:
    def test_fields_are_the_six_run_settings(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "mode", "seed", "h", "kappa", "dmax", "oracle"]

    @pytest.mark.parametrize("setting", [
        {"dmax": 0.0}, {"dmax": -0.1}, {"dmax": math.nan}, {"dmax": math.inf},
        {"kappa": 0.0}, {"kappa": -1.0}, {"kappa": math.nan},
        {"kappa": math.inf}, {"h": 0}, {"h": -2}, {"h": 2.5}, {"dmax": None},
        {"kappa": "3"}, {"dmax": "0.1"}, {"oracle": "false"}, {"oracle": 1},
        {"oracle": None}, {"h": True}, {"kappa": True}, {"dmax": True},
        {"seed": "abc"}, {"seed": True}, {"seed": 1.5}])
    def test_invalid_settings_refused(self, setting):
        with pytest.raises(InstanceError):
            RunConfig(mode="edge", **setting)


class TestGenerators:
    def test_grid_2x2_shape(self):
        data = grid(2, 2, k=2, seed=0)
        assert data["n"] == 4
        assert len(data["edges"]) == 4
        assert not data["directed"]

    def test_seed_reproducibility(self):
        assert grid(3, 3, 4, seed=9) == grid(3, 3, 4, seed=9)
        assert random_digraph(6, 12, 3, seed=9) == random_digraph(6, 12, 3, seed=9)
        assert star_of_paths(3, 2, 2, seed=9) == star_of_paths(3, 2, 2, seed=9)

    def test_random_digraph_strong_connectivity_backbone(self):
        data = random_digraph(6, 12, 3, seed=1)
        inst = load_instance(data)
        from bulkflow.graph import reachable_from
        for v in range(6):
            assert len(reachable_from(inst.graph, v)) == 6

    def test_star_pairs_connect_distinct_arm_tips(self):
        data = star_of_paths(3, 2, 4, seed=2)
        tips = {1 + a * 2 + 1 for a in range(3)}
        for pr in data["pairs"]:
            assert pr["s"] in tips and pr["t"] in tips and pr["s"] != pr["t"]

    def test_adversarial_order_matches_manual_worst_case(self):
        data = grid(2, 2, k=3, seed=5)
        wrapped = adversarial_order(data)
        inst = load_instance(data)
        worst = max(_greedy_dispatch_cost(inst.graph, list(perm))
                    for perm in itertools.permutations(data["pairs"]))
        assert wrapped["adversarial_cost"] == pytest.approx(worst)
        assert sorted(map(str, wrapped["pairs"])) == sorted(map(str, data["pairs"]))

    def test_adversarial_order_caps_pairs(self):
        data = grid(3, 3, k=7, seed=5)
        with pytest.raises(InstanceError):
            adversarial_order(data)

    def test_generate_dispatch(self):
        data = generate("grid", {"rows": 2, "cols": 3, "k": 2}, seed=1)
        assert data["n"] == 6
        prize = generate("grid", {"rows": 2, "cols": 2, "k": 2, "prize": 1},
                         seed=1)
        assert prize["mode"] == "prize"
        assert all("q" in p for p in prize["pairs"])
        with pytest.raises(InstanceError):
            generate("nope", {}, seed=0)


class TestExperiment(object):
    def test_empty_suite_header_only(self, tmp_path):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": []}))
        out = tmp_path / "out.csv"
        summary = run_experiment(str(suite), str(out))
        lines = out.read_text().strip().splitlines()
        assert lines == ["instance,n,k,mode,online_total,opt,junction_opt,"
                         "ratio,fallback_rate,epochs,wall_ms"]
        assert summary["runs"] == 0

    def test_rows_and_summary(self, tmp_path):
        inst_path = tmp_path / "g.json"
        dump_instance(grid(2, 2, k=2, seed=1), inst_path)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": [
            {"instance": "g.json", "mode": "edge", "seed": 0, "oracle": True},
            {"instance": "g.json", "mode": "edge", "seed": 1, "oracle": True},
        ]}))
        out = tmp_path / "out.csv"
        summary = run_experiment(str(suite), str(out))
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert summary["runs"] == 2 and summary["failures"] == 0
        assert summary["max_ratio"] >= summary["geomean_ratio"] >= 1.0 - 1e-9

    def test_integral_float_height_runs_and_defaults_are_run_config_s(
            self, tmp_path):
        # "h": 1.0 runs as "seed": 1.0 does; absent seed and dmax are
        # RunConfig's defaults
        dump_instance(grid(2, 2, k=2, seed=1), tmp_path / "g.json")
        suite = tmp_path / "suite.json"
        run = {"instance": "g.json", "mode": "edge", "oracle": False}
        suite.write_text(json.dumps({"runs": [
            dict(run, h=1.0, seed=1.0, dmax=0.4),
            dict(run, h=1, seed=1, dmax=0.4),
            dict(run, h=1),
            dict(run, h=1, seed=RunConfig.seed, dmax=RunConfig.dmax),
        ]}))
        out = tmp_path / "out.csv"
        summary = run_experiment(str(suite), str(out))
        assert summary["failures"] == 0, summary["errors"]
        # every column but wall_ms
        rows = [line.rsplit(",", 1)[0]
                for line in out.read_text().splitlines()[1:]]
        assert rows[0] == rows[1] and rows[2] == rows[3]

    def test_failures_recorded_and_continue(self, tmp_path):
        dump_instance(grid(2, 2, k=1, seed=0), tmp_path / "g.json")
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": [
            {"instance": "missing.json", "mode": "edge"},
            {"mode": "edge"},  # no instance
            "g.json",  # not an object
            {"instance": "g.json", "mode": "edge", "seed": 1.7},
            # suite fields are not coerced: "false" is no bool, "0.4" no number
            {"instance": "g.json", "mode": "edge", "h": 1, "dmax": 0.4,
             "oracle": "false"},
            {"instance": "g.json", "mode": "edge", "h": 1, "dmax": "0.4",
             "oracle": False},
            {"instance": "g.json", "mode": "edge", "h": 1, "dmax": 0.4,
             "oracle": False},
        ]}))
        out = tmp_path / "out.csv"
        summary = run_experiment(str(suite), str(out))
        assert summary["runs"] == 7 and summary["failures"] == 6
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[1].startswith("missing,,,edge,")
        assert lines[2] == ",,,edge,,,,,,,"
        assert lines[3] == ",,,,,,,,,,"
        assert lines[4] == "g,,,edge,,,,,,,"  # a fractional seed is refused
        assert lines[5] == lines[6] == "g,,,edge,,,,,,,"
        assert lines[7].startswith("g,4,1,edge,")
        # one message per failed run, in suite order
        errors = summary["errors"]
        assert len(errors) == 6
        assert errors[0].startswith("missing: cannot read instance")
        assert errors[1] == "a run needs an 'instance'"
        assert errors[2] == "a run must be an object, got 'g.json'"
        assert errors[3] == "g: seed must be an integer, got 1.7"
        assert errors[4] == "g: oracle must be true or false, got 'false'"
        assert errors[5] == "g: dmax must be a finite number > 0, got '0.4'"


class TestVertexLimit:
    """Past ``fractional.MAX_N_SCALE`` base vertices the start value is a
    saturated rate and no pair would ever be covered, so such an instance
    is refused before any expansion is built."""

    def test_the_limit_is_the_last_n_whose_start_value_is_open(self):
        limit = fractional.MAX_N_SCALE
        assert limit == 251
        exponent = -fractional.INIT_EXPONENT
        assert float(limit) ** exponent > EPS_CAP >= float(limit + 1) ** exponent

    def test_252_vertices_are_refused_at_once_and_251_run(self, monkeypatch):
        built = []
        build = harness.build_expansions
        monkeypatch.setattr(harness, "build_expansions",
                            lambda *args: built.append(args) or build(*args))
        config = RunConfig(mode="edge", h=1, dmax=0.4)
        start = time.perf_counter()
        with pytest.raises(InstanceError, match="at most 251"):
            OnlinePipeline(load_instance(random_digraph(252, 756, 1, seed=3)),
                           config)
        assert time.perf_counter() - start < 1.0 and not built
        report = run(random_digraph(251, 753, 1, seed=3), h=1, dmax=0.4)
        assert [a.outcome for a in report.arrivals] == [Assignment.ASSIGNED]

    def test_solver_refuses_a_larger_scale(self):
        side = fractional.SideGraph(build_graph(2, [(0, 1, 1.0, 1.0)]),
                                    upward=True)
        with pytest.raises(ValueError, match="at most 251"):
            fractional.CompositeSolver(side, side, [], 252, 1.0, 1.0, 0.05)

    def test_cli_exit_code_2(self, tmp_path):
        inst = tmp_path / "big.json"
        dump_instance(random_digraph(252, 756, 1, seed=3), inst)
        result = subprocess.run(
            [sys.executable, "-m", "bulkflow.cli", "run", "--instance",
             str(inst), "--mode", "edge", "--h", "1"],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert "at most 251" in result.stderr
        assert "Traceback" not in result.stderr


def test_run_does_not_load_the_lp_solver(tmp_path):
    # scipy.optimize serves only the LP bound of ``bulkflow oracle``
    inst = tmp_path / "inst.json"
    dump_instance(grid(2, 2, k=2, seed=1), inst)
    script = textwrap.dedent(f"""
        import sys
        import bulkflow
        from bulkflow import cli
        status = cli.main(["run", "--instance", {str(inst)!r}, "--mode",
                           "edge", "--oracle", "-o", {str(tmp_path / "r.csv")!r}])
        print(status, "scipy.optimize" in sys.modules)
    """)
    src = str(Path(bulkflow.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src))
    assert result.stdout.split() == ["0", "False"], result.stderr


class TestCli:
    def _cli(self, *args):
        return subprocess.run([sys.executable, "-m", "bulkflow.cli", *args],
                              capture_output=True, text=True)

    def test_generate_then_run_and_oracle(self, tmp_path):
        inst = tmp_path / "inst.json"
        result = self._cli("generate", "--kind", "grid",
                           "--params", "rows=2,cols=2,k=2", "--seed", "1",
                           "-o", str(inst))
        assert result.returncode == 0
        out_csv = tmp_path / "run.csv"
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "--seed", "0", "--oracle", "-o", str(out_csv),
                           "--trace", str(tmp_path / "trace.csv"))
        assert result.returncode == 0
        assert out_csv.read_text().startswith("arrival,pair,outcome")
        result = self._cli("oracle", "--instance", str(inst))
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert {"opt", "junction_opt", "lp_lb"} <= set(payload)
        assert payload["lp_lb"] <= payload["opt"] + 1e-7
        assert payload["junction_opt"] >= payload["opt"] - 1e-9

    def test_h_flag_is_accepted_next_to_help(self, tmp_path):
        inst = tmp_path / "inst.json"
        dump_instance(grid(2, 2, k=1, seed=0), inst)
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "--seed", "0", "--h", "1")
        assert result.returncode == 0

    @pytest.mark.parametrize("suite", [[{"instance": "g.json"}],
                                       {"runs": "g.json"}],
                             ids=["top-level-list", "runs-string"])
    def test_malformed_suite_exit_code_2(self, tmp_path, suite):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        result = self._cli("experiment", "--suite", str(path),
                           "-o", str(tmp_path / "out.csv"))
        assert result.returncode == 2
        assert "'runs' list" in result.stderr
        assert "Traceback" not in result.stderr

    def test_infeasible_input_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = self._cli("run", "--instance", str(bad), "--mode", "edge",
                           "--seed", "0")
        assert result.returncode == 2

    def test_prize_instance_outside_prize_mode_exit_code_2(self, tmp_path):
        inst = tmp_path / "prize.json"
        result = self._cli("generate", "--kind", "grid", "--params",
                           "rows=2,cols=3,k=4,prize=1", "--seed", "0",
                           "-o", str(inst))
        assert result.returncode == 0, result.stderr
        out_csv = tmp_path / "run.csv"
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "--h", "1", "--dmax", "0.4", "--oracle",
                           "-o", str(out_csv))
        assert result.returncode == 2
        assert "prize mode" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out_csv.exists()

    def test_run_report_file_matches_run_online(self, tmp_path):
        inst = tmp_path / "inst.json"
        dump_instance(grid(2, 2, k=2, seed=1), inst)
        out_csv = tmp_path / "run.csv"
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "--seed", "3", "--oracle", "-o", str(out_csv))
        assert result.returncode == 0, result.stderr
        report = run_online(load_instance(str(inst)),
                            RunConfig(mode="edge", seed=3, oracle=True))
        assert out_csv.read_bytes() == report.to_csv().encode()

    def test_dump_layered_and_dump_forest_write_json(self, tmp_path):
        inst = tmp_path / "grid.json"
        dump_instance(grid(2, 2, k=2, seed=1), inst)
        layered = tmp_path / "layered.json"
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "-o", str(tmp_path / "edge.csv"),
                           "--dump-layered", str(layered))
        assert result.returncode == 0, result.stderr
        rows = json.loads(layered.read_text())
        assert rows and {"id", "tail", "head", "c", "l",
                         "back_path"} <= set(rows[0])
        # the forest dump needs directed mode: refused before any output
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           "-o", str(tmp_path / "refused-edge.csv"),
                           "--dump-forest", str(tmp_path / "no-forest.json"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "refused-edge.csv").exists()
        assert not (tmp_path / "no-forest.json").exists()

        inst = tmp_path / "digraph.json"
        dump_instance(random_digraph(4, 9, 2, seed=7), inst)
        forest = tmp_path / "forest.json"
        result = self._cli("run", "--instance", str(inst), "--mode",
                           "directed", "--h", "2", "--dmax", "0.4",
                           "-o", str(tmp_path / "directed.csv"),
                           "--dump-forest", str(forest))
        assert result.returncode == 0, result.stderr
        rows = json.loads(forest.read_text())
        assert rows and {"id", "tail", "head", "c", "l"} <= set(rows[0])
        # directed mode has no layered graph: refused before any output
        result = self._cli("run", "--instance", str(inst), "--mode",
                           "directed", "--h", "2", "--dmax", "0.4",
                           "-o", str(tmp_path / "refused-directed.csv"),
                           "--dump-layered", str(tmp_path / "no-layers.json"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "refused-directed.csv").exists()
        assert not (tmp_path / "no-layers.json").exists()

    @pytest.mark.parametrize("flag", [("--dmax", "0"), ("--h", "0"),
                                      ("--kappa", "-1"), ("--dmax", "nan"),
                                      ("--kappa", "inf"),
                                      ("--kappa", "1e-300")])
    def test_invalid_run_parameters_exit_code_2(self, tmp_path, flag):
        inst = tmp_path / "inst.json"
        dump_instance(grid(2, 2, k=2, seed=1), inst)
        result = self._cli("run", "--instance", str(inst), "--mode", "edge",
                           *flag)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("params", ["rows=abc,cols=2,k=2",
                                        "rows=2,cols=2,k=2,bogus=1",
                                        "rows=2,cols=2",
                                        "rows=2.7,cols=2,k=2",
                                        "rows=2,cols=2,k=nan",
                                        "rows=2,cols=2,k=0",
                                        "rows=2,cols=2,k=-1",
                                        # on/off parameters take 0 or 1 only
                                        "rows=2,cols=2,k=2,prize=-1",
                                        "rows=2,cols=2,k=2,adversarial=7",
                                        "n=4,m=9,k=2,strongly_connected=2"])
    def test_bad_generate_params_exit_code_2(self, tmp_path, params):
        out = tmp_path / "inst.json"
        kind = "random-digraph" if params.startswith("n=") else "grid"
        result = self._cli("generate", "--kind", kind, "--params", params,
                           "-o", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()
        flag = params.rpartition(",")[2].partition("=")[0]
        if flag in ("prize", "adversarial", "strongly_connected"):
            assert f"{flag} must be 0 or 1" in result.stderr

    def test_non_finite_instance_exit_code_2(self, tmp_path):
        data = grid(2, 2, k=2, seed=1)
        data["edges"][0]["c"] = math.nan
        inst = tmp_path / "nan.json"
        inst.write_text(json.dumps(data))
        result = self._cli("run", "--instance", str(inst), "--mode", "edge")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("field", ["c", "n", "d", "n-fraction", "head",
                                       "tail", "directed", "top-level",
                                       "edge-entry", "pair-entry",
                                       "node-cost-entry", "c-bool", "l",
                                       "q", "node-c", "edges-object"])
    def test_non_numeric_instance_exit_code_2(self, tmp_path, field):
        data = grid(2, 2, k=2, seed=1)
        replaced = {  # None when the edit works in place
            "c": lambda: data["edges"][0].update(c="abc"),
            "n": lambda: data.update(n="x"),
            "d": lambda: data["pairs"][0].update(d=1.5),
            "n-fraction": lambda: data.update(n=3.9),
            "head": lambda: data["edges"][0].update(head=1.7),
            "tail": lambda: data["edges"][0].update(tail=True),
            "directed": lambda: data.update(directed="false"),
            "top-level": lambda: [1, 2],
            "edge-entry": lambda: data.update(edges=[[0, 1]]),
            "pair-entry": lambda: data.update(pairs=[[0, 3]]),
            "node-cost-entry": lambda: data.update(
                mode="node", node_costs=[[0, 1.0, 0.5]]),
            "c-bool": lambda: data["edges"][0].update(c=True),
            "l": lambda: data["edges"][0].update(l="0.5"),
            "q": lambda: data.update(
                mode="prize", pairs=[{**data["pairs"][0], "q": "3"}]),
            "node-c": lambda: data.update(
                mode="node", node_costs=[{"v": 0, "c": True, "l": 0.5}]),
            "edges-object": lambda: data.update(edges={}),
        }[field]()
        inst = tmp_path / "text.json"
        inst.write_text(json.dumps(data if replaced is None else replaced))
        result = self._cli("run", "--instance", str(inst), "--mode", "edge")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["run", "generate", "experiment"])
    def test_unwritable_output_exit_code_2(self, tmp_path, command):
        inst = tmp_path / "g.json"
        dump_instance(grid(2, 2, k=1, seed=2), inst)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": []}))
        out = tmp_path / "missing" / "out"
        args = {"run": ["--instance", str(inst), "--mode", "edge"],
                "generate": ["--kind", "grid", "--params", "rows=2,cols=2,k=1"],
                "experiment": ["--suite", str(suite)]}[command]
        result = self._cli(command, *args, "-o", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith(f"cannot write {out}")
        assert "Traceback" not in result.stderr

    def test_budget_refusal_exit_code_3(self, tmp_path):
        inst = tmp_path / "big.json"
        dump_instance(random_digraph(9, 30, 2, seed=1), inst)
        result = self._cli("oracle", "--instance", str(inst))
        assert result.returncode == 3

    def test_step_cap_exit_code_3(self, tmp_path, capsys, monkeypatch):
        # a tiny dmax needs about 10**9 steps per arrival
        monkeypatch.setattr(fractional, "MAX_STEPS", 100)
        inst = tmp_path / "g.json"
        dump_instance(grid(2, 2, k=2, seed=1), inst)
        out = tmp_path / "out.csv"
        code = cli.main(["run", "--instance", str(inst), "--mode", "edge",
                         "--dmax", "1e-9", "-o", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "budget refusal: pair 0 was not covered within the cap of 100 "
            "growth steps\n")
        assert not out.exists()

    @pytest.mark.parametrize("block, index, field", [
        ("edges", 1, "tail"), ("edges", 0, "head"), ("edges", 2, "l"),
        ("pairs", 1, "t"), ("node_costs", 2, "c")])
    def test_missing_field_is_named_exit_code_2(self, tmp_path, capsys,
                                                 block, index, field):
        data = grid(2, 2, k=2, seed=1)
        if block == "node_costs":
            data["mode"] = "node"
            data["node_costs"] = [{"v": v, "c": 1.0, "l": 0.5}
                                  for v in range(data["n"])]
        del data[block][index][field]
        inst = tmp_path / "holes.json"
        inst.write_text(json.dumps(data))
        code = cli.main(["run", "--instance", str(inst), "--mode",
                         data.get("mode", "edge")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"infeasible or invalid input: bad instance holes: {block} entry "
            f"{index} has no '{field}' field\n")

    def test_missing_node_count_is_named(self):
        data = grid(2, 2, k=2, seed=1)
        del data["n"]
        with pytest.raises(InstanceError,
                           match="^bad instance <dict>: the instance has no "
                                 "'n' field$"):
            load_instance(data)

    @pytest.mark.parametrize("h", ["8000", "1000000"])
    def test_large_directed_height_refused_at_once(self, tmp_path, capsys, h):
        inst = tmp_path / "cycle.json"
        dump_instance({"n": 4, "directed": True, "edges": [
            {"id": v, "tail": v, "head": (v + 1) % 4, "c": 1.0, "l": 0.2}
            for v in range(4)], "pairs": [{"s": 0, "t": 2}]}, inst)
        start = time.perf_counter()
        code = cli.main(["run", "--instance", str(inst), "--mode", "directed",
                         "--h", h, "-o", str(tmp_path / "out.csv")])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget refusal: tuple-tree forest needs more "
                              "than 10**4299 vertices")
        assert "(required: 1" in err

    def test_experiment_subcommand(self, tmp_path):
        inst = tmp_path / "g.json"
        dump_instance(grid(2, 2, k=1, seed=2), inst)
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": [
            {"instance": "g.json", "mode": "edge", "seed": 0},
            {"instance": "missing.json", "mode": "edge"}]}))
        out = tmp_path / "exp.csv"
        result = self._cli("experiment", "--suite", str(suite), "-o", str(out))
        assert result.returncode == 0
        assert out.exists()
        summary = json.loads(result.stdout)
        assert summary["failures"] == 1
        assert [e.split(":")[0] for e in summary["errors"]] == ["missing"]
