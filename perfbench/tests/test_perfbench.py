"""The benchmark's own tests: tiny smoke runs and the self-time arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import bulkflow  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gauge import REF_CHUNK_S, SEGMENT_S, Normalizer  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for spec in listed:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "check work_counters_identical = True" in done.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload",
         "default-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_same_seed_same_inputs_and_reports_match_run_online():
    first = workloads.build("oracle-suite", 5, "tiny")
    assert first == workloads.build("oracle-suite", 5, "tiny")
    assert first != workloads.build("oracle-suite", 6, "tiny")
    result = run.run_pass(bulkflow, checks, first, Normalizer())
    assert result.failed == 0
    for job in first:
        report = bulkflow.run_online(bulkflow.load_instance(job.data),
                                     bulkflow.RunConfig(**job.config))
        assert result.digests[job.name] == checks.report_digest(report)


def test_check_report_flags_a_wrong_total():
    job = workloads.build("oracle-suite", 0, "tiny")[0]
    inst = bulkflow.load_instance(job.data)
    report = bulkflow.run_online(inst, bulkflow.RunConfig(**job.config))
    assert checks.check_report(inst, report, oracle=True) == []
    report.buy_cost += 1.0
    report.online_total = report.opt - 1.0
    problems = checks.check_report(inst, report, oracle=True)
    assert any("ledger recomputes" in p for p in problems)
    assert any("below optimum" in p for p in problems)


# a synthetic trace: root span 1 with three children, one of which (4)
# overhangs its parent's end, and a grandchild 5 inside span 2
SPANS = [
    (5, 2, "graph.shortest_path", 2.0, 3.0, 0),
    (2, 1, "flows.max_delta", 1.0, 4.0, 0),
    (3, 1, "flows.cheapest_flow_curve", 3.0, 6.0, 0),
    (4, 1, "graph.reaches", 8.0, 12.0, 0),
    (1, 0, "fractional.growth_step", 0.0, 10.0, 0),
]


def test_self_time_subtracts_the_union_of_children():
    own = self_times(SPANS)
    # children of 1 cover [1, 6] and [8, 10] inside [0, 10]
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_layer_self_times_sum_by_layer():
    out = layer_metrics(SPANS, Counter({"flows.augmentations": 6}))
    assert out["fractional.self_s"] == pytest.approx(3.0)
    assert out["flows.self_s"] == pytest.approx(2.0 + 3.0)
    assert out["graph.self_s"] == pytest.approx(1.0 + 4.0)
    assert out["fractional.step_self_s"] == pytest.approx(3.0)
    assert out["flows.solves"] == 1 and out["flows.curves"] == 1
    assert out["flows.aug_per_curve"] == pytest.approx(6.0)


def test_normalizer_scales_each_segment_once():
    norm = Normalizer()
    scales = []
    norm.add(SEGMENT_S / 4, scales.append)
    assert scales == []
    norm.flush()
    assert len(scales) == 1 and len(norm.chunks) == 2
    assert scales[0] == pytest.approx(
        REF_CHUNK_S / ((norm.chunks[0] + norm.chunks[1]) / 2))
    norm.add(SEGMENT_S, scales.append)
    assert len(scales) == 2 and len(norm.chunks) == 3
