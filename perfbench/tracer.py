"""Span tracing of bulkflow's layers, installed from outside the package.

``Tracer.install`` replaces each layer's public functions and methods with
thin wrappers that record a span ``(id, parent, name, start, end, run)``
per call and, for a few calls, a work count taken from the arguments or the
result. Spans stay in memory until the caller takes them. ``uninstall``
puts the original functions back. Nothing inside ``src/`` changes.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover (``self_times``).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import bulkflow
from bulkflow import flows, fractional, graph, harness, junction, layering
from bulkflow import instance, oracle, prize, rounding, single_sink

LAYERS = ("instance", "graph", "layering", "junction", "prize", "fractional",
          "flows", "rounding", "single_sink", "harness", "oracle")

# (span id, parent span id, name, start, end, run id); the root has id 0
Span = Tuple[int, int, str, float, float, int]

# modules whose namespaces may hold layer functions; generate and cli are
# kept off the measured path
_MODULES = (bulkflow, flows, fractional, graph, harness, instance, junction,
            layering, oracle, prize, rounding, single_sink)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _run in spans:
        children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _parent, _name, start, end, _run in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans and work counts while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._current_pair: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, stack[-1], name, start, end, tracer.run_id))
            if after is not None:
                after(args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_augmentations(self, args, segments, _elapsed) -> None:
        self.counts["flows.augmentations"] += len(segments)

    def _count_net_arcs(self, args, _result, _elapsed) -> None:
        self.counts["flows.net_arcs"] += args[0].m + args[3].m

    def _count_layered_arcs(self, _args, layered, _elapsed) -> None:
        self.counts["layering.arcs"] += layered.graph.m

    def _count_forest_vertices(self, _args, forest, _elapsed) -> None:
        self.counts["junction.vertices"] += forest.graph.n

    def _note_pair(self, args) -> None:
        self._current_pair = args[1].index

    def _note_arrival(self, args, _result, elapsed) -> None:
        # an arrival absorbed for a pair other than the one being processed
        # is a replay of history after the optimum guess doubled
        if args[1].index != self._current_pair:
            self.counts["harness.replayed_arrivals"] += 1
            self.counts["harness.replay_s"] += elapsed

    # ------------------------------------------------------------------
    # installation

    def _functions(self) -> Iterable[Tuple[str, Callable, Optional[Callable]]]:
        return (
            ("instance.load_instance", instance.load_instance, None),
            ("graph.shortest_path", graph.shortest_path, None),
            ("graph.reachable_from", graph.reachable_from, None),
            ("graph.reaches", graph.reaches, None),
            ("graph.solution_cost", graph.solution_cost, None),
            ("layering.build_layered", layering.build_layered,
             self._count_layered_arcs),
            ("layering.pull_back", layering.pull_back, None),
            ("junction.build_junction_forest", junction.build_junction_forest,
             self._count_forest_vertices),
            ("junction.pull_forest_ledger", junction.pull_forest_ledger, None),
            ("prize.augment", prize.augment, None),
            ("prize.settle", prize.settle, None),
            ("flows.max_delta", flows.max_delta, self._count_net_arcs),
            ("flows.cheapest_flow_curve", flows.cheapest_flow_curve,
             self._count_augmentations),
            ("rounding.draw_thresholds", rounding.draw_thresholds, None),
            ("rounding.choose_root", rounding.choose_root, None),
            ("oracle.offline_opt", oracle.offline_opt, None),
            ("oracle.offline_opt_prize", oracle.offline_opt_prize, None),
            ("oracle.junction_opt", oracle.junction_opt, None),
        )

    def _methods(self) -> Iterable[Tuple[str, type, str, Optional[Callable],
                                         Optional[Callable]]]:
        solver, pipeline = fractional.CompositeSolver, harness.OnlinePipeline
        sink = single_sink.GreedySingleSink
        return (
            ("fractional.solver_init", solver, "__init__", None, None),
            ("fractional.on_arrival", solver, "on_arrival", None,
             self._note_arrival),
            ("fractional.growth_step", solver, "growth_step", None, None),
            ("fractional.check_pair", solver, "check_pair", None, None),
            ("single_sink.init", sink, "__init__", None, None),
            ("single_sink.on_terminal", sink, "on_terminal", None, None),
            ("single_sink.marginal_cost", sink, "marginal_cost", None, None),
            ("harness.setup", pipeline, "__init__", None, None),
            ("harness.process", pipeline, "process", self._note_pair, None),
            ("harness.finish", pipeline, "finish", None, None),
        )

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, fn, after in self._functions():
            traced = self._wrap(name, fn, after=after)
            # every module that imported the function holds its own reference
            for module in _MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)
        for name, cls, attr, before, after in self._methods():
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr),
                                              before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_metrics(spans: Sequence[Span], counts: Counter) -> Dict[str, float]:
    """Per-layer metrics from one traced pass."""
    own = self_times(spans)
    calls: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    layer_by_id = {sid: layer_of(name) for sid, _p, name, _s, _e, _r in spans}
    for sid, parent, name, start, end, _run in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[sid]
        if name.startswith("oracle.") and layer_by_id.get(parent) != "oracle":
            calls["oracle.top"] += 1
            total["oracle.top"] += end - start
    curves = calls["flows.cheapest_flow_curve"]
    out = {
        "flows.solves": calls["flows.max_delta"],
        "flows.solve_s": total["flows.max_delta"],
        "flows.curves": curves,
        "flows.augmentations": counts["flows.augmentations"],
        "flows.aug_per_curve": (counts["flows.augmentations"] / curves
                                if curves else 0.0),
        "flows.net_arcs": counts["flows.net_arcs"],
        "fractional.steps": calls["fractional.growth_step"],
        "fractional.step_self_s": self_s["fractional.growth_step"],
        "fractional.arrival_s": total["fractional.on_arrival"],
        "layering.builds": calls["layering.build_layered"],
        "layering.build_s": total["layering.build_layered"],
        "layering.arcs": counts["layering.arcs"],
        "graph.sp_calls": calls["graph.shortest_path"],
        "graph.sp_s": total["graph.shortest_path"],
        "harness.replayed_arrivals": counts["harness.replayed_arrivals"],
        "harness.replay_s": counts["harness.replay_s"],
        "harness.finish_s": total["harness.finish"],
        "oracle.calls": calls["oracle.top"],
        "oracle.s": total["oracle.top"],
        "junction.build_s": total["junction.build_junction_forest"],
        "junction.vertices": counts["junction.vertices"],
        "prize.augment_s": total["prize.augment"],
        "instance.load_s": total["instance.load_instance"],
        "rounding.choose_s": total["rounding.choose_root"],
        "single_sink.calls": (calls["single_sink.on_terminal"]
                              + calls["single_sink.marginal_cost"]),
        "single_sink.s": (total["single_sink.on_terminal"]
                          + total["single_sink.marginal_cost"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(value for name, value in self_s.items()
                                     if layer_of(name) == layer)
    return out


def write_spans(path, spans: Sequence[Span]) -> None:
    """Spans as CSV, times in seconds from the first span's start."""
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w") as out:
        out.write("span,parent,name,start_s,end_s,run\n")
        for sid, parent, name, start, end, run in sorted(spans):
            out.write(f"{sid},{parent},{name},{start - origin:.9f},"
                      f"{end - origin:.9f},{run}\n")

