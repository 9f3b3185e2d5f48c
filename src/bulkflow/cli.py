"""Command-line interface.

Subcommands: ``run`` (one online run), ``oracle`` (exact baselines for an
instance), ``generate`` (reproducible instances), ``experiment`` (a suite of
runs to CSV). Exit codes: 0 success, 2 infeasible/bad input or invalid run
parameters, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import BudgetExceeded, InstanceError
from .generate import generate
from .harness import OnlinePipeline, RunConfig, run_experiment
from .instance import dump_instance, load_instance
from .oracle import (InfeasibleInstance, junction_opt, lp_lower_bound,
                     offline_opt, offline_opt_prize)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bulkflow")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the online pipeline on an instance")
    run_p.add_argument("--instance", required=True)
    run_p.add_argument("--mode", required=True,
                       choices=["edge", "node", "directed", "prize"])
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--h", type=int, default=None)
    run_p.add_argument("--kappa", type=float, default=None)
    run_p.add_argument("--dmax", type=float, default=0.05)
    run_p.add_argument("--oracle", action="store_true")
    run_p.add_argument("-o", "--out", default=None,
                       help="write the run report CSV here (default stdout)")
    run_p.add_argument("--trace", default=None,
                       help="write the assignment trace CSV here")
    run_p.add_argument("--lp-trace", default=None,
                       help="write the per-arrival LP trace CSV here")
    run_p.add_argument("--dump-layered", default=None,
                       help="debug-dump the upward layered graph as JSON")
    run_p.add_argument("--dump-forest", default=None,
                       help="debug-dump the tuple-tree forest as JSON "
                            "(directed mode)")

    oracle_p = sub.add_parser("oracle", help="print exact baselines")
    oracle_p.add_argument("--instance", required=True)

    gen_p = sub.add_parser("generate", help="generate an instance")
    gen_p.add_argument("--kind", required=True)
    gen_p.add_argument("--params", default="",
                       help="comma-separated key=value integers, "
                            "e.g. 'n=8,m=16,k=3'")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("-o", "--out", required=True)

    exp_p = sub.add_parser("experiment", help="run a suite file")
    exp_p.add_argument("--suite", required=True)
    exp_p.add_argument("-o", "--out", required=True)
    return parser


def _parse_params(text: str) -> dict:
    params = {}
    if text.strip():
        for chunk in text.split(","):
            if "=" not in chunk:
                raise InstanceError(f"bad --params chunk {chunk!r}")
            key, value = chunk.split("=", 1)
            try:
                params[key.strip()] = int(float(value))
            except (ValueError, OverflowError):
                raise InstanceError(f"--params {chunk!r}: not a finite "
                                    f"number") from None
    return params


def _cmd_run(args) -> int:
    if args.dump_forest and args.mode != "directed":
        raise InstanceError("forest dump requires directed mode")
    if args.dump_layered and args.mode == "directed":
        raise InstanceError("no layered graph in directed mode")
    instance = load_instance(args.instance)
    config = RunConfig(mode=args.mode, seed=args.seed, h=args.h,
                       kappa=args.kappa, dmax=args.dmax, oracle=args.oracle)
    pipeline = OnlinePipeline(instance, config)
    report = pipeline.run()
    csv_text = report.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.trace:
        Path(args.trace).write_text(report.assignment_trace_csv())
    if args.lp_trace:
        Path(args.lp_trace).write_text(report.lp_trace_csv())
    if args.dump_layered:
        from .layering import dump_layered_edges
        Path(args.dump_layered).write_text(
            json.dumps(dump_layered_edges(pipeline.up_layer), indent=2))
    if args.dump_forest:
        from .junction import dump_forest_edges
        Path(args.dump_forest).write_text(
            json.dumps(dump_forest_edges(pipeline.forest), indent=2))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    if instance.mode == "prize" and any(p.penalty is not None
                                        for p in instance.pairs):
        opt = offline_opt_prize(instance.graph, instance.pairs)
    else:
        opt, _ = offline_opt(instance.graph, instance.pairs)
    junc = junction_opt(instance.graph, instance.pairs)
    lp_lb = lp_lower_bound(instance.graph, instance.pairs)
    print(json.dumps({"opt": opt, "junction_opt": junc, "lp_lb": lp_lb}))
    return EXIT_OK


def _cmd_generate(args) -> int:
    data = generate(args.kind, _parse_params(args.params), args.seed)
    dump_instance(data, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    summary = run_experiment(args.suite, args.out)
    print(json.dumps(summary))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "oracle": _cmd_oracle,
                "generate": _cmd_generate, "experiment": _cmd_experiment}
    try:
        return handlers[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc} (required: {exc.required})",
              file=sys.stderr)
        return EXIT_BUDGET
    except (InstanceError, InfeasibleInstance) as exc:
        print(f"infeasible or invalid input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
