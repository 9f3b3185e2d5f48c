import dataclasses
import itertools
import json
import math
import subprocess
import sys

import pytest

from bulkflow.errors import InstanceError
from bulkflow.generate import (adversarial_order, generate, grid,
                               random_digraph, star_of_paths,
                               _greedy_dispatch_cost)
from bulkflow.graph import solution_cost
from bulkflow.harness import (OnlinePipeline, RunConfig, default_kappa,
                              run_experiment, run_online)
from bulkflow.instance import dump_instance, load_instance


def run(data, mode="edge", seed=0, **kw):
    return run_online(load_instance(data), RunConfig(mode=mode, seed=seed, **kw))


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

    def test_monotone_cumulative_spend(self):
        data = grid(3, 3, k=4, seed=3)
        report = run(data, h=1, dmax=0.3)
        spends = [a.cumulative_spend for a in report.arrivals]
        assert all(b >= a - 1e-9 for a, b in zip(spends, spends[1:]))

    def test_fallback_cost_added_verbatim(self):
        data = grid(2, 2, k=1, seed=4)
        inst = load_instance(data)
        report = run(data, kappa=None)
        if report.fallback_count:
            pair = inst.pairs[0]
            path = report.ledger.paths[pair.index]
            cost = sum(inst.graph.c[e] + inst.graph.l[e] for e in path)
            assert report.online_total == pytest.approx(cost)

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
        assert pipeline.h_ledger is not None
        from bulkflow.junction import root_links_on_path
        for pair_index, path in pipeline.h_ledger.paths.items():
            if path:
                assert root_links_on_path(pipeline.forest, path) == 1
        assert report.online_total > 0

    def test_directed_mode_requires_directed_graph(self):
        data = grid(2, 2, k=1, seed=0)
        with pytest.raises(InstanceError):
            run(data, mode="directed")

    def test_default_kappa_formula(self):
        assert default_kappa(16) == pytest.approx(64 * 4 ** 3)
        assert default_kappa(20) == pytest.approx(64 * 5 ** 3)


class TestRunConfig:
    def test_fields_are_the_six_run_settings(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "mode", "seed", "h", "kappa", "dmax", "oracle"]

    @pytest.mark.parametrize("setting", [
        {"dmax": 0.0}, {"dmax": -0.1}, {"dmax": math.nan}, {"dmax": math.inf},
        {"kappa": 0.0}, {"kappa": -1.0}, {"kappa": math.nan},
        {"kappa": math.inf}, {"h": 0}, {"h": -2}, {"h": 2.5}, {"dmax": None},
        {"kappa": "3"}, {"dmax": "0.1"}, {"oracle": "false"}, {"oracle": 1},
        {"oracle": None}, {"h": True}, {"kappa": True}, {"dmax": True}])
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
                                        "rows=2,cols=2,k=-1"])
    def test_bad_generate_params_exit_code_2(self, tmp_path, params):
        out = tmp_path / "inst.json"
        result = self._cli("generate", "--kind", "grid", "--params", params,
                           "-o", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_non_finite_instance_exit_code_2(self, tmp_path):
        data = grid(2, 2, k=2, seed=1)
        data["edges"][0]["c"] = math.nan
        inst = tmp_path / "nan.json"
        inst.write_text(json.dumps(data))
        result = self._cli("run", "--instance", str(inst), "--mode", "edge")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("field", ["c", "n", "d", "n-fraction", "head",
                                       "tail"])
    def test_non_numeric_instance_exit_code_2(self, tmp_path, field):
        data = grid(2, 2, k=2, seed=1)
        {"c": lambda: data["edges"][0].update(c="abc"),
         "n": lambda: data.update(n="x"),
         "d": lambda: data["pairs"][0].update(d=1.5),
         "n-fraction": lambda: data.update(n=3.9),
         "head": lambda: data["edges"][0].update(head=1.7),
         "tail": lambda: data["edges"][0].update(tail=True)}[field]()
        inst = tmp_path / "text.json"
        inst.write_text(json.dumps(data))
        result = self._cli("run", "--instance", str(inst), "--mode", "edge")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_budget_refusal_exit_code_3(self, tmp_path):
        inst = tmp_path / "big.json"
        dump_instance(random_digraph(9, 30, 2, seed=1), inst)
        result = self._cli("oracle", "--instance", str(inst))
        assert result.returncode == 3

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
