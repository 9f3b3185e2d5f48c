"""End-to-end online pipeline: LP growth, rounding, dispatch, reporting.

Each arrival goes through one flow. The fractional state absorbs the pair
(doubling the optimum guess and replaying history whenever an epoch
overflows its spend cap or the guess's balls hold no root for the pair;
history is replayed only at a guess where they hold one). The partial
rounding then decides a label and a
root: assigned to a root, declined (fallback), or dropped for its penalty;
a pair the LP cannot route at all is dropped if it has a penalty and
declined otherwise. The pair is served once as decided, at the root's
single-sink/single-source algorithms, on a direct base-graph path, or in
the penalty bucket, and one ``ArrivalRecord`` is appended. Purchases are
irrevocable in layered (or forest) space; the report maps everything back
to the base graph, where overlaps can only make the solution cheaper."""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .errors import BudgetExceeded, InstanceError
from .fractional import (INIT_EXPONENT, MAX_N_SCALE, ArrivalOutcome,
                         CompositeSolver, PairSpec, RootSpec, SideGraph,
                         eligible_views)
from .graph import (SolutionLedger, TerminalPair, Unreachable, plain_sum,
                    shortest_path, solution_cost)
from .instance import Instance, as_int, load_instance
from .junction import JunctionForest, build_junction_forest
from .layering import (LayeredGraph, build_expansions, default_height,
                       pull_back)
from .oracle import InfeasibleInstance, exact_opt, junction_opt
from .prize import augment, settle
from .rounding import Assignment, LazyThresholds, choose_root
from .single_sink import GreedySingleSink, combined_weight

MODES = ("edge", "node", "directed", "prize")

# guess doublings allowed before a run is declared unstable
MAX_EPOCHS = 60
# a discardable pair is dropped when serving it costs more than this above
# its penalty
PENALTY_TOL = 1e-12
# the pull-back may not raise the committed cost by more than this
PULL_BACK_TOL = 1e-9
# the competitive ratio is reported only for optima above this
MIN_RATIO_OPT = 1e-12


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
        # bool is an Integral, but True is no seed, height, cap or step length
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool)):
            raise InstanceError(f"seed must be an integer, got {self.seed!r}")
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
    # the expansion's c + l list, built for the first instance and copied
    # by every instance
    weight: Optional[List[float]] = None

    def single_sink(self, root: RootSpec) -> GreedySingleSink:
        if root.root_id not in self.single_sinks:
            graph = self.expansion.graph
            if self.weight is None:
                self.weight = combined_weight(graph)
            self.single_sinks[root.root_id] = GreedySingleSink(
                graph, self.side_graph.root_vertex(root),
                "sink" if self.side_graph.upward else "source",
                self.weight)
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
        # c + l of each base arc: the metric of the direct fallback route
        self._base_weight = combined_weight(self.base)
        self.n_scale = max(2, self.base.n)
        if self.n_scale > MAX_N_SCALE:
            raise InstanceError(f"the base graph has {self.base.n} vertices; "
                                f"the online solver runs at most "
                                f"{MAX_N_SCALE}, since its start value "
                                f"n ** -{INIT_EXPONENT} must stay above the "
                                f"flow tolerance")
        self.kappa = (config.kappa if config.kappa is not None
                      else default_kappa(self.n_scale))
        self.k = max(1, len(instance.pairs))
        self.mode = config.mode
        if self.mode == "directed" and not instance.directed:
            raise InstanceError("directed mode requires a directed instance")
        if (self.mode == "prize") != (instance.mode == "prize"):
            # only prize mode gives the LP a discard root to price penalties
            raise InstanceError(f"mode {self.mode!r} cannot run a "
                                f"{instance.mode!r} instance: prize instances "
                                f"run only in prize mode and vice versa")

        self.forest: Optional[JunctionForest] = None
        self.up_layer: Optional[LayeredGraph] = None
        self.down_layer: Optional[LayeredGraph] = None
        self._setup_graphs()
        self.root_ids = [r.root_id for r in self.roots]
        self.epoch = 0
        self.lam: Optional[float] = None
        self.solver: Optional[CompositeSolver] = None
        self.tau: Dict[int, float] = {}
        self.arrived: List[PairSpec] = []
        self.fallback_ledger = SolutionLedger()
        self.penalty_total = 0.0
        self.records: List[ArrivalRecord] = []

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
            self.up_layer, self.down_layer = build_expansions(
                base, self.k, self.h)
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
        alone: the distance ball depends on the guess this sets."""

        def near(g: SideGraph) -> Dict[int, float]:
            return g.near(spec, combined_weight(g.graph))

        up, down = (side.side_graph for side in self.sides)
        up_near, down_near = near(up), near(down)
        best = min((up_near[up.root_vertex(r)]
                    + down_near[down.root_vertex(r)] for r in self.roots
                    if up.root_vertex(r) in up_near
                    and down.root_vertex(r) in down_near), default=math.inf)
        if not math.isfinite(best) or best <= 0:
            return 1.0
        return best

    def _start_epoch(self, views=None) -> None:
        """A fresh solver at the current guess, from ``views`` if a probe of
        the guess made them."""
        self.solver = CompositeSolver(
            *(side.side_graph for side in self.sides), self.roots,
            self.n_scale, self.lam, self.kappa, self.config.dmax, views)
        self.tau = LazyThresholds(self.root_ids, self.n_scale,
                                  f"{self.config.seed}:{self.epoch}")

    def _advance_epoch(self, pending: Optional[PairSpec] = None) -> None:
        """Double the guess, restart the fractional state, replay history.

        ``pending`` is the arriving pair when its arrival ended
        ``GUESS_TOO_SMALL``. Each further guess is then probed for an
        eligible root of it (``fractional.eligible_views``), and history
        is replayed only at the first guess that has one, by a solver that
        starts from the probe's views. That changes no report: eligibility
        reads only the guess's balls, never ``x``, so at every skipped
        guess the replay either overflowed or succeeded and left the pair
        ineligible again, and either way the guess doubled once more. The
        epoch counter, the guess and the threshold streams (seeded by the
        epoch, drawn lazily) step as before, and the same ``InstanceError``
        is raised past ``MAX_EPOCHS``. A replayed pair was covered at a
        smaller guess, and a root eligible at one guess stays eligible at
        every larger one, so no replay ends short of ``SATISFIED`` or
        ``EPOCH_OVERFLOW`` and a skipped replay could not have raised the
        ``RuntimeError`` below; only a skipped replay's
        ``StepLimitExceeded`` is lost. Once eligible, the pair stays so and
        is not probed again.
        """
        while True:
            self.epoch += 1
            if self.epoch > MAX_EPOCHS:
                raise InstanceError(
                    f"guess doubling did not stabilize within {MAX_EPOCHS} "
                    f"epochs; kappa={self.kappa} is too small for this instance")
            self.lam *= 2.0
            views = None
            if pending is not None:
                views = eligible_views(
                    *(side.side_graph for side in self.sides), self.roots,
                    self.lam, pending)
                if views is None:
                    continue
                pending = None
            self._start_epoch(views)
            replay_ok = True
            for old in self.arrived:
                outcome = self.solver.on_arrival(old)
                if outcome == ArrivalOutcome.EPOCH_OVERFLOW:
                    replay_ok = False
                    break
                if outcome != ArrivalOutcome.SATISFIED:
                    # a root in the ball stays in it as the guess grows
                    raise RuntimeError(f"replay of pair {old.index} ended "
                                       f"{outcome} at guess {self.lam}")
            if replay_ok:
                return

    def _absorb(self, spec: PairSpec) -> ArrivalOutcome:
        """Run the LP for one arrival, epoch-doubling as needed."""
        while True:
            outcome = self.solver.on_arrival(spec)
            if outcome == ArrivalOutcome.SATISFIED:
                self.solver.check_pair(spec.index)
                return outcome
            if outcome == ArrivalOutcome.LP_INFEASIBLE:
                return outcome
            # the spend cap or the ball was too small
            self._advance_epoch(spec if outcome
                                == ArrivalOutcome.GUESS_TOO_SMALL else None)

    # ------------------------------------------------------------------
    # dispatch

    def _fallback_route(self, pair: TerminalPair
                        ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """Direct cheapest combined-metric path on the base graph and its
        cost, or None if the base graph has none."""
        try:
            return shortest_path(self.base, self._base_weight, pair.s, pair.t)
        except Unreachable:
            return None

    def _serve(self, pair: TerminalPair, spec: PairSpec, label: str,
               root: Optional[int]) -> str:
        """Serve the pair as decided: at its root's single sinks, on a direct
        base-graph path, or for its penalty. Returns the outcome label."""
        # the base-graph search runs at most once per pair
        route = self._fallback_route(pair) if label == Assignment.FALLBACK else None
        if pair.penalty is not None and label != Assignment.DROPPED:
            # never pay more than the discard price for a discardable pair
            if label == Assignment.ASSIGNED:
                cost = plain_sum(side.single_sink(self.roots[root]).marginal_cost(
                    side.side_graph.terminal(spec)) for side in self.sides)
            else:
                cost = math.inf if route is None else route[1]
            if cost > pair.penalty + PENALTY_TOL:
                label = Assignment.DROPPED
        if label == Assignment.ASSIGNED:
            try:
                for side in self.sides:
                    side.single_sink(self.roots[root]).on_terminal(
                        side.side_graph.terminal(spec), pair_index=pair.index)
            except Unreachable:
                # LP eligibility should prevent this; fall back defensively
                label, route = Assignment.FALLBACK, self._fallback_route(pair)
        if label == Assignment.DROPPED:
            self.penalty_total += settle(pair.penalty, label)
        elif label == Assignment.FALLBACK:
            if route is None:
                return "infeasible"  # no path in the base graph either
            self.fallback_ledger.add_path(self.base, pair.index, route[0])
        return label

    def process(self, pair: TerminalPair) -> ArrivalRecord:
        """Absorb one arrival, decide ``(label, root)``, serve it, record it."""
        if pair.s == pair.t:
            record = ArrivalRecord(len(self.records), pair.index, "trivial",
                                   None, self.epoch, self.lam or 0.0, 0, 0.0,
                                   0.0)
            self.records.append(record)
            return record
        spec = self.pair_specs[pair.index]
        if self.solver is None:
            self.lam = self._initial_guess(spec)
            self._start_epoch()
        z_value = tau = 0.0
        if self._absorb(spec) == ArrivalOutcome.LP_INFEASIBLE:
            label, root = (Assignment.FALLBACK if pair.penalty is None
                           else Assignment.DROPPED), None
        else:
            self.arrived.append(spec)
            label, root = choose_root(self.solver, self.tau, pair.index)
            if root is not None:
                route = self.solver.routes[pair.index].get(root)
                z_value = 0.0 if route is None else route.z
                tau = self.tau[root]
        label = self._serve(pair, spec, label, root)
        stats = self.solver.arrival_log[-1]
        record = ArrivalRecord(len(self.records), pair.index, label,
                               root if label == Assignment.ASSIGNED else None,
                               self.epoch, self.lam, stats.steps, stats.z_total,
                               stats.objective, z_value=z_value, tau=tau)
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # report

    def _final_ledger(self) -> SolutionLedger:
        """Pull each side's purchases back to the base graph, then join them;
        the root links of directed runs are structural arcs that map to no
        base arc."""
        final = SolutionLedger()
        merged = [side.merged_ledger() for side in self.sides]
        committed_cost = plain_sum(
            solution_cost(side.expansion.graph, ledger)[2]
            for side, ledger in zip(self.sides, merged))
        base_ledger = _join_sides(*(pull_back(side.expansion, ledger)
                                    for side, ledger in zip(self.sides, merged)))
        pulled_cost = solution_cost(self.base, base_ledger)[2]
        if pulled_cost > committed_cost + PULL_BACK_TOL:
            raise AssertionError(
                f"pull-back increased cost: {pulled_cost} > {committed_cost}")
        final.bought = set(base_ledger.bought) | set(self.fallback_ledger.bought)
        final.paths = dict(base_ledger.paths)
        final.paths.update(self.fallback_ledger.paths)
        for r in self.records:
            if r.outcome == "trivial":
                final.paths[r.pair] = ()
        final.buy_cost, final.length_cost, _ = solution_cost(self.base, final)
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
        fallback_count = sum(1 for r in self.records if r.outcome == "fallback")
        infeasible_count = sum(1 for r in self.records
                               if r.outcome == "infeasible")
        report = RunReport(arrivals=self.records, buy_cost=ledger.buy_cost,
                           length_cost=ledger.length_cost,
                           penalty_total=self.penalty_total,
                           fallback_count=fallback_count,
                           infeasible_count=infeasible_count,
                           epochs=self.epoch + 1, ledger=ledger,
                           online_total=ledger.total + self.penalty_total,
                           h=self.h,
                           epsilon=(1.0 / self.h if self.mode == "directed"
                                    else None))
        if self.config.oracle:
            self._attach_oracle(report)
        return report

    def _attach_oracle(self, report: RunReport) -> None:
        pairs = self.instance.pairs
        try:
            report.opt = exact_opt(self.base, pairs, self.mode)
        except (BudgetExceeded, InfeasibleInstance):
            report.opt = None
        try:
            report.junction_opt_value = junction_opt(self.base, pairs)
        except (BudgetExceeded, InfeasibleInstance):
            report.junction_opt_value = None
        if report.opt is not None and report.opt > MIN_RATIO_OPT:
            report.ratio = report.online_total / report.opt


def _join_sides(up: SolutionLedger, down: SolutionLedger) -> SolutionLedger:
    """One ledger holding both sides' purchases; each pair's path is its up
    path, then its down path."""
    joined = SolutionLedger()
    joined.bought = set(up.bought) | set(down.bought)
    for pair_index, up_path in up.paths.items():
        joined.paths[pair_index] = (tuple(up_path)
                                    + tuple(down.paths.get(pair_index, ())))
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
            seed=as_int(entry.get("seed", RunConfig.seed), "seed"),
            h=None if entry.get("h") is None else as_int(entry["h"], "h"),
            kappa=entry.get("kappa"),
            dmax=entry.get("dmax", RunConfig.dmax),
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
            plain_sum(math.log(r) for r in ratios) / len(ratios))
    return summary
