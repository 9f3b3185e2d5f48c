"""Output checks made from outside the program, and report digests."""

from __future__ import annotations

import hashlib
import math
from typing import List

from bulkflow import Instance, RunReport, solution_cost

# how far a reported cost may sit from its recomputation
COST_TOL = 1e-9


def report_digest(report: RunReport) -> str:
    return hashlib.sha256(report.to_csv().encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_TOL * max(1.0, abs(a), abs(b))


def check_report(instance: Instance, report: RunReport,
                 oracle: bool) -> List[str]:
    """Problems found in one run's report; an empty list means it passed.

    Recomputes the ledger cost on the base graph, walks every served pair's
    base path from its source to its sink, and checks that totals are
    finite and never below the exact optimum where the oracle ran.
    """
    problems: List[str] = []
    base = instance.graph
    buy, length, _ = solution_cost(base, report.ledger)
    if not (_close(buy, report.buy_cost) and _close(length, report.length_cost)):
        problems.append(f"ledger recomputes to buy={buy!r} length={length!r}, "
                        f"reported {report.buy_cost!r} {report.length_cost!r}")
    for value in (report.buy_cost, report.length_cost, report.penalty_total,
                  report.online_total):
        if not math.isfinite(value):
            problems.append(f"non-finite total {value!r}")
    pairs = {p.index: p for p in instance.pairs}
    for record in report.arrivals:
        if record.outcome == "infeasible":
            problems.append(f"pair {record.pair} reported infeasible")
        if record.outcome not in ("assigned", "fallback"):
            continue
        pair = pairs[record.pair]
        path = report.ledger.paths.get(record.pair)
        if not path:
            problems.append(f"pair {record.pair} ({record.outcome}) has no path")
        elif base.tail[path[0]] != pair.s or base.head[path[-1]] != pair.t:
            problems.append(f"pair {record.pair} path does not run "
                            f"{pair.s} -> {pair.t}")
    if oracle:
        if report.opt is None:
            problems.append("oracle gave no optimum")
        elif report.online_total < report.opt - COST_TOL:
            problems.append(f"online total {report.online_total!r} below "
                            f"optimum {report.opt!r}")
        if (report.opt is not None and report.junction_opt_value is not None
                and report.junction_opt_value < report.opt - COST_TOL):
            problems.append(f"junction optimum {report.junction_opt_value!r} "
                            f"below optimum {report.opt!r}")
    return problems


def check_layering(pipeline) -> List[str]:
    """A strongly connected base graph gives h * n^2 layered arcs per side."""
    problems: List[str] = []
    n, h = pipeline.base.n, pipeline.h
    for layer in (pipeline.up_layer, pipeline.down_layer):
        if layer.graph.m != h * n * n:
            problems.append(f"{layer.direction} expansion has {layer.graph.m} "
                            f"arcs, expected h*n^2 = {h * n * n}")
    return problems
