"""End-to-end online pipeline: LP growth, rounding, dispatch, reporting.

Per arrival: the fractional state absorbs the pair (doubling the optimum
guess and replaying history whenever an epoch overflows its spend cap), the
partial rounding picks a root or declines, and the pair is dispatched to
that root's single-sink/single-source algorithms, to a direct fallback
path, or to the penalty bucket. Purchases are irrevocable in layered (or
forest) space; the report maps everything back to the base graph, where
overlaps can only make the solution cheaper.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import BudgetExceeded, InstanceError
from .fractional import (ArrivalOutcome, CompositeSolver, PairSpec, RootSpec,
                         SideGraph, SolverConfig)
from .graph import (SolutionLedger, TerminalPair, TwoMetricGraph,
                    Unreachable, shortest_path, shortest_paths, solution_cost)
from .instance import Instance, as_int, load_instance
from .junction import JunctionForest, build_junction_forest, pull_forest_ledger
from .layering import LayeredGraph, build_layered, default_height, pull_back
from .oracle import (InfeasibleInstance, junction_opt, offline_opt,
                     offline_opt_prize)
from .prize import augment, settle
from .rounding import Assignment, choose_root, draw_thresholds
from .single_sink import GreedySingleSink

MODES = ("edge", "node", "directed", "prize")

# guess doublings allowed before a run is declared unstable
MAX_EPOCHS = 60


def default_kappa(n: int) -> float:
    """Epoch spend cap in guess units: 64 * ceil(log2 n)^3."""
    return 64.0 * math.ceil(math.log2(max(2, n))) ** 3


@dataclass
class RunConfig:
    mode: str
    seed: int = 0
    h: Optional[int] = None
    kappa: Optional[float] = None
    dmax: float = 0.05
    oracle: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InstanceError(f"unknown mode {self.mode!r}")
        # bool is an Integral, but True is no height, cap or step length
        if self.h is not None and not (isinstance(self.h, numbers.Integral)
                                       and not isinstance(self.h, bool)
                                       and self.h >= 1):
            raise InstanceError(f"h must be an integer >= 1, got {self.h!r}")
        for name in ("kappa", "dmax"):
            value = getattr(self, name)
            if name == "kappa" and value is None:
                continue
            if not (isinstance(value, numbers.Real)
                    and not isinstance(value, bool) and 0 < value < math.inf):
                raise InstanceError(f"{name} must be a finite number > 0, "
                                    f"got {value!r}")
        if not isinstance(self.oracle, bool):
            raise InstanceError(f"oracle must be true or false, "
                                f"got {self.oracle!r}")


@dataclass
class ArrivalRecord:
    arrival: int
    pair: int
    outcome: str
    root: Optional[int]
    epoch: int
    lam: float
    steps: int
    z_total: float
    lp_obj: float
    z_value: float = 0.0
    tau: float = 0.0
    cumulative_spend: float = 0.0


@dataclass
class RunReport:
    arrivals: List[ArrivalRecord]
    buy_cost: float
    length_cost: float
    penalty_total: float
    fallback_count: int
    infeasible_count: int
    epochs: int
    ledger: SolutionLedger
    online_total: float
    h: Optional[int] = None
    epsilon: Optional[float] = None  # 1/h, reported for the directed pipeline
    opt: Optional[float] = None
    junction_opt_value: Optional[float] = None
    ratio: Optional[float] = None
    wall_ms: Optional[float] = None

    def to_csv(self) -> str:
        """Deterministic run report (identical bytes for identical seed+config)."""
        lines = ["arrival,pair,outcome,root,epoch,lambda,steps,z_total,lp_obj"]
        for a in self.arrivals:
            root = "" if a.root is None else str(a.root)
            lines.append(f"{a.arrival},{a.pair},{a.outcome},{root},{a.epoch},"
                         f"{a.lam!r},{a.steps},{a.z_total!r},{a.lp_obj!r}")
        lines.append(f"buy,{self.buy_cost!r}")
        lines.append(f"length,{self.length_cost!r}")
        lines.append(f"penalty,{self.penalty_total!r}")
        lines.append(f"fallbacks,{self.fallback_count}")
        lines.append(f"infeasible,{self.infeasible_count}")
        lines.append(f"epochs,{self.epochs}")
        lines.append(f"h,{'' if self.h is None else self.h}")
        lines.append("epsilon," + ("" if self.epsilon is None
                                   else repr(self.epsilon)))
        lines.append(f"online_total,{self.online_total!r}")
        lines.append(f"opt,{'' if self.opt is None else repr(self.opt)}")
        lines.append("junction_opt," + ("" if self.junction_opt_value is None
                                        else repr(self.junction_opt_value)))
        lines.append(f"ratio,{'' if self.ratio is None else repr(self.ratio)}")
        return "\n".join(lines) + "\n"

    def assignment_trace_csv(self) -> str:
        lines = ["pair,outcome,root,z_value,tau"]
        for a in self.arrivals:
            root = "" if a.root is None else str(a.root)
            lines.append(f"{a.pair},{a.outcome},{root},{a.z_value!r},{a.tau!r}")
        return "\n".join(lines) + "\n"

    def lp_trace_csv(self) -> str:
        lines = ["arrival,pair,steps,z_total,lp_obj,epoch,lambda"]
        for a in self.arrivals:
            lines.append(f"{a.arrival},{a.pair},{a.steps},{a.z_total!r},"
                         f"{a.lp_obj!r},{a.epoch},{a.lam!r}")
        return "\n".join(lines) + "\n"


@dataclass
class _PipelineSide:
    """One side of the run: the graph the LP routes it in, the expansion its
    purchases pull back through (layer or forest), and its per-root
    single-sink (up) or single-source (down) instances, made on first use."""

    side_graph: SideGraph
    expansion: Union[LayeredGraph, JunctionForest]
    single_sinks: Dict[int, GreedySingleSink] = field(default_factory=dict)

    def single_sink(self, root: RootSpec) -> GreedySingleSink:
        if root.root_id not in self.single_sinks:
            self.single_sinks[root.root_id] = GreedySingleSink(
                self.expansion.graph, self.side_graph.root_vertex(root),
                "sink" if self.side_graph.upward else "source")
        return self.single_sinks[root.root_id]

    def merged_ledger(self) -> SolutionLedger:
        merged = SolutionLedger()
        for ss in self.single_sinks.values():
            merged.bought.update(ss.ledger.bought)
            merged.paths.update(ss.ledger.paths)
        return merged


class OnlinePipeline:
    """One online run over a fixed arrival order."""

    def __init__(self, instance: Instance, config: RunConfig):
        self._started = time.perf_counter()
        self.instance = instance
        self.config = config
        self.base = instance.graph
        self.n_scale = max(2, self.base.n)
        self.kappa = (config.kappa if config.kappa is not None
                      else default_kappa(self.n_scale))
        self.k = max(1, len(instance.pairs))
        self.mode = config.mode
        if self.mode == "directed" and not instance.directed:
            raise InstanceError("directed mode requires a directed instance")
        if self.mode == "prize" and instance.mode != "prize":
            raise InstanceError("prize mode requires a prize instance")

        self.forest: Optional[JunctionForest] = None
        self.up_layer: Optional[LayeredGraph] = None
        self.down_layer: Optional[LayeredGraph] = None
        self._setup_graphs()
        self.root_ids = [r.root_id for r in self.roots]
        self.epoch = 0
        self.lam: Optional[float] = None
        self.solver: Optional[CompositeSolver] = None
        self.draw = None
        self.assignment = Assignment()
        self.arrived: List[PairSpec] = []
        self.fallback_ledger = SolutionLedger()
        self.trivial_pairs: List[int] = []
        self.penalty_total = 0.0
        self.records: List[ArrivalRecord] = []
        self.h_ledger: Optional[SolutionLedger] = None
        self._arrival_counter = 0

    # ------------------------------------------------------------------
    # setup

    def _setup_graphs(self) -> None:
        """The two sides, the roots and where each pair enters the sides."""
        base, config, pairs = self.base, self.config, self.instance.pairs
        if self.mode == "directed":
            self.h = config.h if config.h is not None else 2
            forest = self.forest = build_junction_forest(
                base, self.k, self.h, [p.s for p in pairs], [p.t for p in pairs])
            expansions = (forest, forest)
            self.roots = [RootSpec(r, forest.up_root[r], forest.down_root[r])
                          for r in range(base.n)]
            terminals = [(forest.source_vertex[p.s], forest.sink_vertex[p.t])
                         for p in pairs]
        else:
            self.h = (config.h if config.h is not None
                      else default_height(self.n_scale))
            self.up_layer = build_layered(base, self.k, self.h, "up")
            self.down_layer = build_layered(base, self.k, self.h, "down")
            expansions = (self.up_layer, self.down_layer)
            self.roots = [RootSpec(r, self.up_layer.vertex(r, 0),
                                   self.down_layer.vertex(r, 0))
                          for r in range(base.n)]
            terminals = [(self.up_layer.vertex(p.s, self.h),
                          self.down_layer.vertex(p.t, self.h)) for p in pairs]
        self.pair_specs: Dict[int, PairSpec] = {
            p.index: PairSpec(p.index, source, sink, penalty=p.penalty)
            for p, (source, sink) in zip(pairs, terminals)}
        up, down = expansions
        side_graphs = (SideGraph(up.graph, upward=True),
                       SideGraph(down.graph, upward=False))
        if self.mode == "prize":
            side_graphs, virtual_root = augment(
                side_graphs, list(self.pair_specs.values()))
            self.roots.append(virtual_root)
        self.sides = tuple(map(_PipelineSide, side_graphs, expansions))

    # ------------------------------------------------------------------
    # epochs

    def _initial_guess(self, spec: PairSpec) -> float:
        """Cheapest ``c + l`` route through any root under the owner rule
        alone: pruning depends on the guess this sets."""
        best = math.inf
        up, down = (side.side_graph for side in self.sides)
        reached = shortest_paths(
            up.graph, lambda e: up.graph.c[e] + up.graph.l[e],
            up.terminal(spec), allowed=up.allowed(spec.index))
        for root in self.roots:
            if up.root_vertex(root) not in reached:
                continue
            try:
                _, down_cost = shortest_path(
                    down.graph, lambda e: down.graph.c[e] + down.graph.l[e],
                    *down.ends(spec, root), allowed=down.allowed(spec.index))
            except Unreachable:
                continue
            best = min(best, reached[up.root_vertex(root)][1] + down_cost)
        if not math.isfinite(best) or best <= 0:
            return 1.0
        return best

    def _fresh_solver(self) -> CompositeSolver:
        cfg = SolverConfig(kappa=self.kappa, dmax=self.config.dmax)
        return CompositeSolver(*(side.side_graph for side in self.sides),
                               self.roots, self.n_scale, self.lam, cfg)

    def _start_epoch(self) -> None:
        self.solver = self._fresh_solver()
        self.draw = draw_thresholds(self.root_ids, self.n_scale,
                                    f"{self.config.seed}:{self.epoch}")

    def _advance_epoch(self) -> None:
        """Double the guess, restart the fractional state, replay history."""
        while True:
            self.epoch += 1
            if self.epoch > MAX_EPOCHS:
                raise InstanceError(
                    f"guess doubling did not stabilize within {MAX_EPOCHS} "
                    f"epochs; kappa={self.kappa} is too small for this instance")
            self.lam *= 2.0
            self._start_epoch()
            replay_ok = True
            for old in self.arrived:
                outcome = self.solver.on_arrival(old)
                if outcome == ArrivalOutcome.EPOCH_OVERFLOW:
                    replay_ok = False
                    break
                if outcome != ArrivalOutcome.SATISFIED:
                    # reachability only improves as the guess grows
                    raise RuntimeError(f"replay of pair {old.index} ended "
                                       f"{outcome} at guess {self.lam}")
            if replay_ok:
                return

    def _structurally_feasible(self, spec: PairSpec) -> bool:
        """Whether some root is reachable on both sides under the owner rule
        alone. Unlike the solver's funnels this ignores pruning, because it
        asks whether a larger guess would help."""
        reach = [(side.side_graph, side.side_graph.reach(spec))
                 for side in self.sides]
        return any(all(side_graph.root_vertex(r) in seen
                       for side_graph, seen in reach) for r in self.roots)

    def _absorb(self, spec: PairSpec) -> Tuple[ArrivalOutcome, int]:
        """Run the LP for one arrival, epoch-doubling as needed."""
        while True:
            outcome = self.solver.on_arrival(spec)
            if outcome == ArrivalOutcome.SATISFIED:
                self.solver.check_pair(spec.index)
                return outcome, self.solver.arrival_log[-1].steps
            if outcome == ArrivalOutcome.LP_INFEASIBLE:
                if self._structurally_feasible(spec):
                    self._advance_epoch()  # pruning artifact of a small guess
                    continue
                return outcome, 0
            self._advance_epoch()

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch_assigned(self, pair: TerminalPair, spec: PairSpec,
                           root_id: int) -> None:
        for side in self.sides:
            side.single_sink(self.roots[root_id]).on_terminal(
                side.side_graph.terminal(spec), pair_index=pair.index)

    def _dispatch_fallback(self, pair: TerminalPair) -> bool:
        """Direct cheapest combined-metric path on the base graph."""
        try:
            path, _ = shortest_path(self.base,
                                    lambda e: self.base.c[e] + self.base.l[e],
                                    pair.s, pair.t)
        except Unreachable:
            return False
        self.fallback_ledger.add_path(self.base, pair.index, path)
        return True

    def _serving_cost(self, pair: TerminalPair, spec: PairSpec, label: str,
                      root: Optional[int]) -> float:
        """What serving the pair as decided would cost right now."""
        if label == Assignment.ASSIGNED:
            return sum(side.single_sink(self.roots[root]).marginal_cost(
                side.side_graph.terminal(spec)) for side in self.sides)
        try:
            _, cost = shortest_path(self.base,
                                    lambda e: self.base.c[e] + self.base.l[e],
                                    pair.s, pair.t)
        except Unreachable:
            return math.inf
        return cost

    def _current_spend(self) -> float:
        spend = self.penalty_total + self.fallback_ledger.total
        for side in self.sides:
            for ss in side.single_sinks.values():
                spend += ss.ledger.total
        return spend

    def process(self, pair: TerminalPair) -> ArrivalRecord:
        arrival = self._arrival_counter
        self._arrival_counter += 1
        if pair.s == pair.t:
            self.trivial_pairs.append(pair.index)
            record = ArrivalRecord(arrival, pair.index, "trivial", None,
                                   self.epoch, self.lam or 0.0, 0, 0.0,
                                   0.0, cumulative_spend=self._current_spend())
            self.records.append(record)
            return record
        spec = self.pair_specs[pair.index]
        if self.solver is None:
            self.lam = self._initial_guess(spec)
            self._start_epoch()
        outcome, steps = self._absorb(spec)
        if outcome == ArrivalOutcome.LP_INFEASIBLE:
            served = False
            if pair.penalty is not None:
                self.assignment.record(pair.index, Assignment.DROPPED, None)
                self.penalty_total += pair.penalty
                label = "dropped"
                served = True
            else:
                served = self._dispatch_fallback(pair)
                label = "fallback" if served else "infeasible"
                self.assignment.record(pair.index, Assignment.FALLBACK
                                       if served else "infeasible", None)
            record = ArrivalRecord(arrival, pair.index, label, None, self.epoch,
                                   self.lam, 0, 0.0, self.solver.objective,
                                   cumulative_spend=self._current_spend())
            self.records.append(record)
            return record

        self.arrived.append(spec)
        label, root = choose_root(self.solver, self.draw, pair.index)
        z_value = 0.0
        tau = 0.0
        if root is not None:
            z_value = self.solver.z.get((pair.index, root), 0.0)
            tau = self.draw.tau[root]
        if pair.penalty is not None and label != Assignment.DROPPED:
            # never pay more than the discard price for a discardable pair
            if self._serving_cost(pair, spec, label, root) > pair.penalty + 1e-12:
                label, root = Assignment.DROPPED, None
        self.assignment.record(pair.index, label, root)
        if label == Assignment.ASSIGNED:
            try:
                self._dispatch_assigned(pair, spec, root)
            except Unreachable:
                # LP eligibility should prevent this; fall back defensively
                label = ("fallback" if self._dispatch_fallback(pair)
                         else "infeasible")
                root = None
        elif label == Assignment.DROPPED:
            self.penalty_total += settle(pair.penalty, label)
        else:
            if not self._dispatch_fallback(pair):
                label = "infeasible"  # reachable via LP but not in base: impossible
        stats = self.solver.arrival_log[-1]
        record = ArrivalRecord(arrival, pair.index, label,
                               root if label == Assignment.ASSIGNED else None,
                               self.epoch, self.lam, steps, stats.z_total,
                               stats.objective, z_value=z_value, tau=tau,
                               cumulative_spend=self._current_spend())
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # report

    def _final_ledger(self) -> SolutionLedger:
        final = SolutionLedger()
        merged = [side.merged_ledger() for side in self.sides]
        if self.mode == "directed":
            # an assigned pair's path crosses its root's link arc
            links = {r.pair: (self.forest.root_link_arc[r.root],)
                     for r in self.records if r.outcome == Assignment.ASSIGNED}
            self.h_ledger = _join_sides(*merged, self.forest.graph, links)
            committed_cost = solution_cost(self.forest.graph, self.h_ledger)[2]
            base_ledger = pull_forest_ledger(self.forest, self.h_ledger)
        else:
            committed_cost = sum(
                solution_cost(side.expansion.graph, ledger)[2]
                for side, ledger in zip(self.sides, merged))
            base_ledger = _join_sides(*(pull_back(side.expansion, ledger)
                                        for side, ledger in zip(self.sides,
                                                                merged)))
        pulled_cost = solution_cost(self.base, base_ledger)[2]
        if pulled_cost > committed_cost + 1e-9:
            raise AssertionError(
                f"pull-back increased cost: {pulled_cost} > {committed_cost}")
        final.bought = set(base_ledger.bought) | set(self.fallback_ledger.bought)
        final.paths = dict(base_ledger.paths)
        final.paths.update(self.fallback_ledger.paths)
        for pair_index in self.trivial_pairs:
            final.paths[pair_index] = ()
        buy, length, _total = solution_cost(self.base, final)
        final.buy_cost = buy
        final.length_cost = length
        return final

    def run(self) -> RunReport:
        """Process every pair in arrival order, then report.

        ``wall_ms`` counts from the start of the pipeline's construction.
        """
        for pair in self.instance.pairs:
            self.process(pair)
        report = self.finish()
        report.wall_ms = (time.perf_counter() - self._started) * 1000.0
        return report

    def finish(self) -> RunReport:
        ledger = self._final_ledger()
        buy, length, total = solution_cost(self.base, ledger)
        fallback_count = sum(1 for r in self.records if r.outcome == "fallback")
        infeasible_count = sum(1 for r in self.records
                               if r.outcome == "infeasible")
        online_total = total + self.penalty_total
        report = RunReport(arrivals=self.records, buy_cost=buy,
                           length_cost=length, penalty_total=self.penalty_total,
                           fallback_count=fallback_count,
                           infeasible_count=infeasible_count,
                           epochs=self.epoch + 1, ledger=ledger,
                           online_total=online_total, h=self.h,
                           epsilon=(1.0 / self.h if self.mode == "directed"
                                    else None))
        if self.config.oracle:
            self._attach_oracle(report)
        return report

    def _attach_oracle(self, report: RunReport) -> None:
        pairs = self.instance.pairs
        try:
            if self.mode == "prize" and any(p.penalty is not None for p in pairs):
                report.opt = offline_opt_prize(self.base, pairs)
            else:
                report.opt, _ = offline_opt(self.base, pairs)
        except (BudgetExceeded, InfeasibleInstance):
            report.opt = None
        try:
            report.junction_opt_value = junction_opt(self.base, pairs)
        except (BudgetExceeded, InfeasibleInstance):
            report.junction_opt_value = None
        if report.opt is not None and report.opt > 1e-12:
            report.ratio = report.online_total / report.opt


def _join_sides(up: SolutionLedger, down: SolutionLedger,
                graph: Optional[TwoMetricGraph] = None,
                links: Optional[Dict[int, Tuple[int, ...]]] = None) -> SolutionLedger:
    """One ledger holding both sides' purchases; each pair's path is its up
    path, then its root-link arcs in ``links`` (bought on ``graph``), then
    its down path."""
    links = links or {}
    joined = SolutionLedger()
    joined.bought = set(up.bought) | set(down.bought)
    for pair_index, up_path in up.paths.items():
        link = links.get(pair_index, ())
        for a in link:
            joined.bought.add(graph.purchase_key(a))
        down_path = down.paths.get(pair_index, ())
        joined.paths[pair_index] = tuple(up_path) + link + tuple(down_path)
    return joined


def run_online(instance: Instance, config: RunConfig) -> RunReport:
    """Run the full online pipeline over the instance's arrival order."""
    return OnlinePipeline(instance, config).run()


EXPERIMENT_COLUMNS = ("instance", "n", "k", "mode", "online_total", "opt",
                      "junction_opt", "ratio", "fallback_rate", "epochs",
                      "wall_ms")


def _experiment_row(suite_dir: Path, entry: object) -> Tuple[str, Optional[float], Optional[str]]:
    """One suite run; returns (csv row, ratio, error message). A malformed
    entry fails its own row only."""
    name = mode = ""
    try:
        if not isinstance(entry, dict):
            raise InstanceError(f"a run must be an object, got {entry!r}")
        mode = entry.get("mode", "")
        if "instance" not in entry:
            raise InstanceError("a run needs an 'instance'")
        inst_path = suite_dir / entry["instance"]  # absolute paths stay as is
        name = inst_path.stem
        instance = load_instance(inst_path)
        config = RunConfig(
            mode=entry.get("mode", instance.mode),
            seed=as_int(entry.get("seed", 0), "seed"),
            h=entry.get("h"),
            kappa=entry.get("kappa"),
            dmax=entry.get("dmax", 0.05),
            oracle=entry.get("oracle", True))
        report = run_online(instance, config)
    except Exception as exc:  # noqa: BLE001 - suite must keep going
        return (f"{name},,,{mode},,,,,,,", None,
                f"{name}: {exc}" if name else str(exc))
    k = max(1, instance.k)
    row = ",".join([
        name, str(instance.display_n), str(instance.k),
        config.mode, repr(report.online_total),
        "" if report.opt is None else repr(report.opt),
        "" if report.junction_opt_value is None
        else repr(report.junction_opt_value),
        "" if report.ratio is None else repr(report.ratio),
        repr(report.fallback_count / k), str(report.epochs),
        repr(report.wall_ms)])
    return row, report.ratio, None


def run_experiment(suite_path: str, out_path: str) -> Dict[str, object]:
    """Run a suite file and write one CSV row per run plus a summary.

    Rows are written in suite order, so the output is deterministic up to
    the wall_ms column. The summary's ``errors`` lists each failed run's
    message, in suite order.
    """
    suite_file = Path(suite_path)
    try:
        suite = json.loads(suite_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read suite {suite_path}: {exc}") from exc
    entries = suite.get("runs", []) if isinstance(suite, dict) else None
    if not isinstance(entries, list):
        raise InstanceError(f"suite {suite_path}: expected an object with "
                            f"a 'runs' list")
    results = [_experiment_row(suite_file.parent, entry) for entry in entries]
    rows = [",".join(EXPERIMENT_COLUMNS)] + [row for row, _, _ in results]
    Path(out_path).write_text("\n".join(rows) + "\n")
    ratios = [ratio for _, ratio, _ in results if ratio is not None]
    errors = [error for _, _, error in results if error is not None]
    summary: Dict[str, object] = {
        "runs": len(entries), "failures": len(errors), "errors": errors}
    if ratios:
        summary["max_ratio"] = max(ratios)
        summary["geomean_ratio"] = math.exp(
            sum(math.log(r) for r in ratios) / len(ratios))
    return summary
