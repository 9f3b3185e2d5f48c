"""bulkflow benchmark: whole-run time, set-up time and memory per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default-grid --seed 1 --seconds 30 --trace 0

Workloads are listed in ``workloads.py``; the seed fixes every input. With
``--trace 0`` the run repeats untraced passes over the workload for about
``--seconds`` and reports the end-to-end metrics, with times scaled to
reference machine speed (``gauge.py``). With ``--trace 1`` it
makes one untraced and two traced passes and reports the per-layer metrics
of the traced ones (spans go to ``.perfbench/``). Every run's report is
checked from outside the program; the last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` makes one pass and stores the sha256 of every run's
report CSV under the seed in ``digests.json``, which later runs compare
against (the ``report_diffs`` line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from gauge import REF_CHUNK_S, Normalizer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench"

# the benchmark measures one single-threaded process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# extra set-up samples take this share of the measured run time
SETUP_SHARE = 0.05
# arrival_ms.p90 needs this many arrivals per pass
MIN_P90_ARRIVALS = 100
# counters that must repeat exactly between two traced passes
WORK_COUNTERS = ("flows.solves", "flows.augmentations", "fractional.steps",
                 "harness.epochs", "harness.replayed_arrivals", "layering.arcs")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", ".s": "s", "_frac": "fraction",
                   "aug_per_curve": "ratio"}


@dataclass
class PassResult:
    """Timings, outcomes and digests of one pass over a workload.

    Times are scaled to reference machine speed (see ``gauge.py``);
    ``wall_run_s`` keeps the raw wall-clock time of the pass.
    """

    run_s: float = 0.0
    process_s: float = 0.0
    wall_run_s: float = 0.0
    arrival_s: List[float] = field(default_factory=list)
    job_setup_s: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    online_total: float = 0.0
    ratios: List[float] = field(default_factory=list)
    epochs: int = 0
    fallbacks: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def absorb(self, name: str, setup_s: float, process_s: float,
               run_s: float, arrival_s: List[float], scale: float) -> None:
        self.job_setup_s[name] = setup_s * scale
        self.process_s += process_s * scale
        self.run_s += run_s * scale
        self.wall_run_s += run_s
        self.arrival_s.extend(a * scale for a in arrival_s)


def run_pass(bulkflow, checks, jobs, normalizer: Normalizer, tracer=None,
             after_job: Optional[Callable[[float], None]] = None) -> PassResult:
    """Run every job once; only calls into bulkflow are timed.

    ``after_job`` is called with each run's time between runs, outside the
    timed regions.
    """
    from bulkflow.harness import OnlinePipeline

    clock = time.perf_counter
    result = PassResult()
    for run_id, job in enumerate(jobs):
        result.attempted += 1
        if tracer is not None:
            tracer.run_id = run_id
        arrival_s: List[float] = []
        try:
            t0 = clock()
            inst = bulkflow.load_instance(job.data, name=job.name)
            pipeline = OnlinePipeline(inst, bulkflow.RunConfig(**job.config))
            t1 = clock()
            if job.process:
                for pair in inst.pairs:
                    a = clock()
                    pipeline.process(pair)
                    arrival_s.append(clock() - a)
            t2 = clock()
            report = pipeline.finish()
            t3 = clock()
            problems = checks.check_report(inst, report,
                                           bool(job.config.get("oracle")))
            if not job.process:
                problems += checks.check_layering(pipeline)
        except Exception:  # noqa: BLE001 - a failing run is counted, not fatal
            result.failed += 1
            result.problems.append(f"{job.name}: {traceback.format_exc()}")
            continue
        normalizer.add(t3 - t0, partial(result.absorb, job.name, t1 - t0,
                                        t2 - t1, t3 - t0, arrival_s))
        if problems:
            result.failed += 1
            result.problems.extend(f"{job.name}: {p}" for p in problems)
        result.online_total += report.online_total
        if report.ratio is not None:
            result.ratios.append(report.ratio)
        result.epochs += report.epochs
        result.fallbacks += report.fallback_count
        result.digests[job.name] = checks.report_digest(report)
        if after_job is not None:
            after_job(t3 - t0)
    normalizer.flush()
    return result


class SetupSampler:
    """Extra set-ups spread between the runs of the passes.

    After each run it loads and constructs pipelines round-robin over the
    jobs until the extra set-up time reaches ``SETUP_SHARE`` of the run time
    measured so far. ``setup_s`` is then the sum over jobs of the median of
    each job's set-up samples, the passes' own set-ups included.
    """

    def __init__(self, bulkflow, jobs, normalizer: Normalizer):
        self.bulkflow = bulkflow
        self.jobs = jobs
        self.normalizer = normalizer
        self.samples: Dict[str, List[float]] = {job.name: [] for job in jobs}
        self._next = 0
        self._measured = 0.0
        self._spent = 0.0

    def _record(self, name: str, raw_s: float, scale: float) -> None:
        self.samples[name].append(raw_s * scale)

    def after_job(self, run_s: float) -> None:
        from bulkflow.harness import OnlinePipeline

        self._measured += run_s
        while self._spent < SETUP_SHARE * self._measured:
            job = self.jobs[self._next % len(self.jobs)]
            self._next += 1
            t0 = time.perf_counter()
            try:
                inst = self.bulkflow.load_instance(job.data, name=job.name)
                OnlinePipeline(inst, self.bulkflow.RunConfig(**job.config))
            except Exception:  # noqa: BLE001 - the passes count failures
                self._spent += time.perf_counter() - t0
                continue
            elapsed = time.perf_counter() - t0
            self._spent += elapsed
            self.normalizer.add(elapsed,
                                partial(self._record, job.name, elapsed))

    def add_pass(self, result: PassResult) -> None:
        for name, setup_s in result.job_setup_s.items():
            self.samples[name].append(setup_s)

    def setup_s(self) -> float:
        return sum(statistics.median(v) for v in self.samples.values() if v)

    def fewest_samples(self) -> int:
        return min(len(v) for v in self.samples.values())


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> str:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"env: python={platform.python_version()} numpy={numpy.__version__}"
            f" scipy={scipy.__version__} nproc={os.cpu_count()} cpu={cpu!r}"
            f" commit={git_commit()} timings=wall-clock (noisy)")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "n/a (not a git checkout)"


def load_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def report_diffs(args, passes: List[PassResult]) -> str:
    """Compare report digests against the committed ones for this seed."""
    if args.size != "full":
        return "n/a (digests are committed for full size only)"
    expected = load_digests().get(args.workload, {}).get(str(args.seed))
    if expected is None:
        return f"n/a (no committed digests for seed {args.seed})"
    seen = passes[0].digests
    diffs = sum(1 for name, digest in expected.items()
                if seen.get(name) != digest)
    return f"{diffs} (of {len(expected)} committed reports)"


def pass_determinism(passes: List[PassResult]) -> int:
    """Runs whose report bytes differ between passes of this process."""
    first = passes[0].digests
    return sum(1 for p in passes[1:] for name, digest in p.digests.items()
               if first.get(name) != digest)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, bulkflow, checks, jobs, normalizer: Normalizer):
    sampler = SetupSampler(bulkflow, jobs, normalizer)
    started = time.perf_counter()
    passes: List[PassResult] = []
    while True:
        pass_started = time.perf_counter()
        passes.append(run_pass(bulkflow, checks, jobs, normalizer,
                               after_job=sampler.after_job))
        sampler.add_pass(passes[-1])
        now = time.perf_counter()
        if now - started + (now - pass_started) > args.seconds:
            break
    normalizer.flush()

    first = passes[0]
    arrivals = len(first.arrival_s)
    print(f"workload: {args.workload} seed={args.seed} runs={len(jobs)} "
          f"arrivals={arrivals} passes={len(passes)} "
          f"setup_samples_per_job>={sampler.fewest_samples()}")
    values = {
        "run_s": statistics.median(p.run_s for p in passes),
        "setup_s": sampler.setup_s(),
        "peak_rss_mb": peak_rss_mb(),
    }
    for name, unit in END_TO_END:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    wall = statistics.median(p.wall_run_s for p in passes)
    chunk = statistics.median(normalizer.chunks)
    print(f"info wall-clock run_s = {wall:.6g} s (noisy); reference chunk "
          f"median {1000 * chunk:.4g} ms against {1000 * REF_CHUNK_S:.4g} ms")
    if arrivals:
        per_s = statistics.median(arrivals / p.process_s for p in passes)
        p50 = statistics.median(statistics.median(p.arrival_s) for p in passes)
        print(f"metric arrivals_per_s = {per_s:.6g} 1/s")
        print(f"metric arrival_ms.p50 = {1000 * p50:.6g} ms")
        if arrivals >= MIN_P90_ARRIVALS:
            p90 = statistics.median(percentile(p.arrival_s, 90) for p in passes)
            print(f"metric arrival_ms.p90 = {1000 * p90:.6g} ms")
        print(f"metric online_total = {first.online_total!r} cost")
    if first.ratios:
        geomean = math.exp(statistics.fmean(math.log(r) for r in first.ratios))
        print(f"metric ratio.geomean = {geomean:.6g} ratio "
              f"({len(first.ratios)} runs with an optimum)")
    attempted, failed = summarize(args, passes)
    return ({name: metric(values[name], unit) for name, unit in END_TO_END},
            attempted, failed)


def traced(args, bulkflow, checks, jobs, normalizer: Normalizer):
    from tracer import Tracer, layer_metrics, write_spans

    reference = run_pass(bulkflow, checks, jobs, normalizer)
    tracer = Tracer()
    tracer.install()
    try:
        traced_passes = []
        layer_runs = []
        for _ in range(2):
            result = run_pass(bulkflow, checks, jobs, normalizer, tracer)
            spans, counts = tracer.take()
            layers = layer_metrics(spans, counts)
            layers["harness.epochs"] = result.epochs
            layers["harness.fallbacks"] = result.fallbacks
            layers["trace.run_s"] = result.wall_run_s
            traced_passes.append(result)
            layer_runs.append(layers)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.csv"
    write_spans(span_file, spans)

    values = {name: statistics.median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    # speed-scaled pass times, so that machine drift between passes cancels
    values["trace.overhead_frac"] = (
        statistics.median(p.run_s for p in traced_passes) / reference.run_s - 1)
    print(f"workload: {args.workload} seed={args.seed} runs={len(jobs)} "
          f"traced passes=2 spans={len(spans)} -> {span_file.relative_to(ROOT)}")
    mismatched = [name for name in WORK_COUNTERS
                  if layer_runs[0][name] != layer_runs[1][name]]
    print(f"check work_counters_identical = {not mismatched}"
          + (f" (differ: {', '.join(mismatched)})" if mismatched else ""))
    share = {group: sum(values[f"{layer}.self_s"] for layer in group)
             / values["trace.run_s"]
             for group in (("flows", "fractional"), ("layering", "graph"))}
    print("check self-time share of trace.run_s: "
          + " ".join(f"{'+'.join(group)}={value:.3f}"
                     for group, value in share.items()))
    for name in sorted(values):
        print(f"layer {name} = {values[name]:.6g} {layer_unit(name)}")
    attempted, failed = summarize(args, [reference] + traced_passes)
    return ({name: metric(values[name], layer_unit(name)) for name in values},
            attempted, failed + bool(mismatched))


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(args, passes: List[PassResult]) -> Tuple[int, int]:
    """Print the check lines; returns (runs attempted, runs failed)."""
    attempted = sum(p.attempted for p in passes)
    unstable = pass_determinism(passes)
    failed = sum(p.failed for p in passes) + unstable
    print(f"check failed_frac = {failed / attempted:.6g} ({failed}/{attempted} "
          f"runs raised or failed an output check)")
    print(f"check report_diffs = {report_diffs(args, passes)}")
    print(f"check nondeterministic_reports = {unstable}")
    for problem in [p for run in passes for p in run.problems][:10]:
        print(f"problem: {problem}", file=sys.stderr)
    return attempted, failed


def record_digests(args, bulkflow, checks, jobs, normalizer) -> None:
    if args.size != "full":
        raise SystemExit("digests are recorded for full size only")
    result = run_pass(bulkflow, checks, jobs, normalizer)
    if result.failed:
        raise SystemExit(f"{result.failed} runs failed; digests not recorded")
    digests = load_digests()
    digests.setdefault(args.workload, {})[str(args.seed)] = result.digests
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result.digests)} digests for {args.workload} "
          f"seed {args.seed}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bulkflow").is_dir():
        print(f"error: no bulkflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bulkflow
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    jobs = workloads.build(args.workload, args.seed, args.size)
    print(environment())
    normalizer = Normalizer()
    if args.record_digests:
        record_digests(args, bulkflow, checks, jobs, normalizer)
        return 0
    run = traced if args.trace else untraced
    metrics, attempted, failed = run(args, bulkflow, checks, jobs, normalizer)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
