"""Online fractional solver for the composite assignment-plus-routing LP.

The LP couples outer assignment variables ``z[pair, root]`` with, per root,
a pair of capacitated fractional routings: flows from each source into the
root inside the upward graph, and from the root to each sink inside the
downward graph, both bounded edge-wise by per-root capacity variables ``x``.

Processing an arrival emulates the continuous dynamics

* tight edges (capacity met by the pair's flow) grow multiplicatively,
  ``dx/dt = x / c``;
* flows grow along a cheapest augmentation pattern whose value ``delta`` is
  the largest routable on both sides within the current length budget
  ``z[pair, root]``;
* ``z`` grows at rate ``delta``

until the pair is fractionally covered.

Discretization uses integrated step capacities: over a step of length
``dt`` an edge can absorb at most ``(x - f) + x * (exp(dt/c) - 1)`` extra
flow (fill the remaining headroom, then ride the multiplicative growth of
``x``), so the flow-below-capacity invariant holds exactly at step
boundaries without event-by-event time slicing, and an edge pushed against
its capacity stays exactly on it instead of oscillating across the
tightness test. Steps have uniform length except the last one of an
arrival, which is truncated to land coverage exactly at 1.

All variables are nondecreasing within an epoch. An epoch aborts (without
overshooting) once its objective would exceed ``kappa``; the caller then
doubles its optimum guess and replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .flows import FlowNetwork, max_delta
from .graph import TwoMetricGraph, reaches, shortest_path, shortest_paths

TIGHT_TOL = 1e-9
VAR_CAP = 1.0
INIT_EXPONENT = 5  # starting value of every variable is n ** -INIT_EXPONENT


class ArrivalOutcome(Enum):
    SATISFIED = "satisfied"
    EPOCH_OVERFLOW = "epoch_overflow"
    LP_INFEASIBLE = "lp_infeasible"


@dataclass(frozen=True)
class RootSpec:
    """A candidate junction: its sink vertex upstairs and source downstairs."""

    root_id: int
    up_vertex: int
    down_vertex: int
    virtual: bool = False


@dataclass(frozen=True)
class PairSpec:
    """Where a terminal pair enters the two side graphs."""

    index: int
    up_source: int
    down_sink: int
    penalty: Optional[float] = None


@dataclass
class SolverConfig:
    kappa: float
    dmax: float = 0.05
    max_steps: int = 10 ** 6


@dataclass
class ArrivalStats:
    pair: int
    steps: int
    z_total: float
    objective: float


class _Side:
    """Per-direction epoch view: rescaled metrics, pruning, ownership."""

    def __init__(self, graph: TwoMetricGraph, guess: float,
                 owner: Optional[Dict[int, int]]):
        self.graph = graph
        self.owner = owner or {}
        self.c = [graph.c[e] / guess for e in range(graph.m)]
        self.l = [graph.l[e] / guess for e in range(graph.m)]
        self.alive = [self.c[e] <= 1.0 + 1e-12 and self.l[e] <= 1.0 + 1e-12
                      for e in range(graph.m)]

    def usable(self, e: int, pair_index: int) -> bool:
        if not self.alive[e]:
            return False
        own = self.owner.get(e)
        return own is None or own == pair_index

    def allowed_fn(self, pair_index: int):
        return lambda e: self.usable(e, pair_index)


class CompositeSolver:
    """One epoch of the online fractional algorithm at a fixed optimum guess.

    All edge parameters are rescaled by the guess, so the epoch-internal
    objective is comparable to ``kappa`` directly. State only ever grows;
    replaying the same arrivals in the same order is bit-reproducible.
    """

    def __init__(self, up: TwoMetricGraph, down: TwoMetricGraph,
                 roots: Sequence[RootSpec], n_scale: int, guess: float,
                 config: SolverConfig,
                 up_owner: Optional[Dict[int, int]] = None,
                 down_owner: Optional[Dict[int, int]] = None):
        if guess <= 0:
            raise ValueError("guess must be positive")
        if n_scale < 2:
            raise ValueError("n_scale must be at least 2")
        self.guess = guess
        self.config = config
        self.n_scale = n_scale
        self.v0 = float(n_scale) ** (-INIT_EXPONENT)
        self.up = _Side(up, guess, up_owner)
        self.down = _Side(down, guess, down_owner)
        self.roots = list(roots)
        self.root_by_id = {r.root_id: r for r in self.roots}
        # per-root capacity variables, dense over edge ids (0.0 where pruned)
        self.x_up: Dict[int, List[float]] = {
            r.root_id: [self.v0 if self.up.alive[e] else 0.0
                        for e in range(up.m)] for r in self.roots}
        self.x_down: Dict[int, List[float]] = {
            r.root_id: [self.v0 if self.down.alive[e] else 0.0
                        for e in range(down.m)] for r in self.roots}
        # sparse per (root, pair) flows
        self.fS: Dict[Tuple[int, int], Dict[int, float]] = {}
        self.fT: Dict[Tuple[int, int], Dict[int, float]] = {}
        self.z: Dict[Tuple[int, int], float] = {}
        self.eligible: Dict[int, List[int]] = {}
        self.pairs: Dict[int, PairSpec] = {}
        self.arrival_log: List[ArrivalStats] = []
        self._objective = self._base_objective()

    # ------------------------------------------------------------------
    # objective

    def _base_objective(self) -> float:
        total = 0.0
        for side in (self.up, self.down):
            alive_cost = sum(side.c[e] for e in range(side.graph.m)
                             if side.alive[e])
            total += alive_cost * self.v0 * len(self.roots)
        return total

    def lp_objective(self) -> float:
        """Exact recomputation of the composite objective (rescaled units)."""
        total = 0.0
        for xs, side in ((self.x_up, self.up), (self.x_down, self.down)):
            for arr in xs.values():
                for e in range(side.graph.m):
                    if side.alive[e]:
                        total += side.c[e] * arr[e]
        for flows, side in ((self.fS, self.up), (self.fT, self.down)):
            for fdict in flows.values():
                for e, f in fdict.items():
                    total += side.l[e] * f
        return total

    @property
    def objective(self) -> float:
        return self._objective

    def z_total(self, pair_index: int) -> float:
        return sum(self.z.get((pair_index, r), 0.0)
                   for r in self.eligible.get(pair_index, ()))

    def z_values(self, pair_index: int) -> Dict[int, float]:
        return {r: self.z.get((pair_index, r), 0.0)
                for r in self.eligible.get(pair_index, ())}

    # ------------------------------------------------------------------
    # arrival processing

    def arrival_init(self, pair: PairSpec) -> List[int]:
        """Register a pair: find eligible roots and seed all its variables.

        The seed routes ``v0`` units along a hop-shortest path on each side
        for every eligible root, so flows start equal to their ``z`` and the
        inner LP is feasible from the first moment.
        """
        if pair.index in self.pairs:
            raise ValueError(f"pair {pair.index} already processed")
        self.pairs[pair.index] = pair
        # one hop-count search gives up-side reachability and every seed path;
        # the down side searches forward per root to keep its tie-break
        up_paths = shortest_paths(self.up.graph, lambda e: 1.0, pair.up_source,
                                  allowed=self.up.allowed_fn(pair.index))
        down_reach = reaches(self.down.graph, pair.down_sink,
                             self.down.allowed_fn(pair.index))
        eligible: List[int] = []
        for spec in self.roots:
            if spec.up_vertex in up_paths and spec.down_vertex in down_reach:
                eligible.append(spec.root_id)
        self.eligible[pair.index] = eligible
        for rid in eligible:
            spec = self.root_by_id[rid]
            up_path = up_paths[spec.up_vertex][0]
            down_path, _ = shortest_path(self.down.graph, lambda e: 1.0,
                                         spec.down_vertex, pair.down_sink,
                                         self.down.allowed_fn(pair.index))
            self.z[(pair.index, rid)] = self.v0
            fs: Dict[int, float] = {}
            for e in up_path:
                fs[e] = fs.get(e, 0.0) + self.v0
                self._objective += self.up.l[e] * self.v0
            ft: Dict[int, float] = {}
            for e in down_path:
                ft[e] = ft.get(e, 0.0) + self.v0
                self._objective += self.down.l[e] * self.v0
            self.fS[(rid, pair.index)] = fs
            self.fT[(rid, pair.index)] = ft
            # seeding at x's initial value can only create exact tightness
            for e, f in fs.items():
                if f > self.x_up[rid][e] + TIGHT_TOL:
                    raise AssertionError("seed flow exceeded capacity variable")
            for e, f in ft.items():
                if f > self.x_down[rid][e] + TIGHT_TOL:
                    raise AssertionError("seed flow exceeded capacity variable")
        return eligible

    def tight_edges(self, pair_index: int, root_id: int) -> Tuple[Set[int], Set[int]]:
        """Edges whose capacity variable is met by this pair's flow, per side."""
        up_tight = {e for e, f in self.fS.get((root_id, pair_index), {}).items()
                    if self.x_up[root_id][e] <= f + TIGHT_TOL}
        down_tight = {e for e, f in self.fT.get((root_id, pair_index), {}).items()
                      if self.x_down[root_id][e] <= f + TIGHT_TOL}
        return up_tight, down_tight

    def _growth_factor(self, c: float, dt: float) -> float:
        """Multiplier ``exp(dt/c)``; zero or negligible costs grow unboundedly.

        The exponent is cut off where ``exp`` would overflow; any factor that
        large is indistinguishable from infinite capacity since variables top
        out at 1.
        """
        if c <= 0 or dt / c > 700.0:
            return math.inf
        return math.exp(dt / c)

    def _aux_network(self, side: _Side, x: List[float],
                     flows: Dict[int, float], tight: Set[int], dt: float,
                     pair_index: int) -> Tuple[FlowNetwork, List[int]]:
        """Rate network with integrated step capacities.

        An edge's admissible flow increment over ``dt`` is its current
        headroom plus the growth of ``x`` while riding the boundary; the rate
        capacity is that integral divided by ``dt``. Currently tight edges
        have no headroom and ride from the start.
        """
        net = FlowNetwork(side.graph.n)
        arc_map: List[int] = []
        for e in range(side.graph.m):
            if not side.usable(e, pair_index):
                continue
            grow = self._growth_factor(side.c[e], dt)
            if math.isinf(grow):
                cap = math.inf
            else:
                room = 0.0 if e in tight else max(0.0, x[e] - flows.get(e, 0.0))
                cap = (room + x[e] * (grow - 1.0)) / dt
            net.add_arc(side.graph.tail[e], side.graph.head[e], cap, side.l[e])
            arc_map.append(e)
        return net, arc_map

    def _solve_root(self, pair: PairSpec, rid: int, dt: float):
        """Max joint growth rate and flow pattern for one root."""
        spec = self.root_by_id[rid]
        budget = self.z[(pair.index, rid)]
        up_tight, down_tight = self.tight_edges(pair.index, rid)
        up_net, up_map = self._aux_network(
            self.up, self.x_up[rid], self.fS.get((rid, pair.index), {}),
            up_tight, dt, pair.index)
        down_net, down_map = self._aux_network(
            self.down, self.x_down[rid], self.fT.get((rid, pair.index), {}),
            down_tight, dt, pair.index)
        result = max_delta(up_net, pair.up_source, spec.up_vertex,
                           down_net, spec.down_vertex, pair.down_sink, budget)
        g_up = {up_map[a]: f for a, f in result.up.flow.items() if f > 0.0}
        g_down = {down_map[a]: f for a, f in result.down.flow.items() if f > 0.0}
        return result.delta, g_up, g_down, up_tight, down_tight

    def growth_step(self, pair_index: int, dt: Optional[float] = None,
                    commit: bool = True):
        """One discretized step of the continuous dynamics for an active pair.

        The step length is the configured maximum unless the remaining
        coverage gap truncates it (rates are scaled down so coverage lands
        exactly at 1). Returns the staged step; ``commit=False`` leaves the
        state untouched.
        """
        pair = self.pairs[pair_index]
        eligible = self.eligible[pair_index]
        dt0 = dt if dt is not None else self.config.dmax
        solutions = {}
        total_delta = 0.0
        for rid in eligible:
            if self.z[(pair_index, rid)] >= VAR_CAP - 1e-12:
                continue  # this root is already fully selected
            delta, g_up, g_down, up_tight, down_tight = self._solve_root(
                pair, rid, dt0)
            solutions[rid] = (delta, g_up, g_down, up_tight, down_tight)
            total_delta += delta

        dt_eff = dt0
        if dt is None:
            gap = 1.0 - self.z_total(pair_index)
            if total_delta > 1e-15:
                dt_eff = min(dt_eff, gap / total_delta)
            for rid, sol in solutions.items():
                if sol[0] > 1e-15:
                    dt_eff = min(dt_eff,
                                 (VAR_CAP - self.z[(pair_index, rid)]) / sol[0])
            dt_eff = max(dt_eff, 1e-12)

        # stage: x rides to max(exp growth if tight, new flow level)
        staged_x: List[Tuple[str, int, int, float]] = []
        d_obj = 0.0
        for rid, (delta, g_up, g_down, up_tight, down_tight) in solutions.items():
            for tag, xs, side, tight, g_side, flows in (
                    ("up", self.x_up, self.up, up_tight, g_up, self.fS),
                    ("down", self.x_down, self.down, down_tight, g_down,
                     self.fT)):
                arr = xs[rid]
                f_now = flows.get((rid, pair_index), {})
                touched = set(tight) | set(g_side)
                for e in touched:
                    old = arr[e]
                    new = old
                    if e in tight:
                        grow = self._growth_factor(side.c[e], dt_eff)
                        new = VAR_CAP if math.isinf(grow) else min(VAR_CAP,
                                                                   old * grow)
                    f_new = f_now.get(e, 0.0) + g_side.get(e, 0.0) * dt_eff
                    if f_new > new:
                        new = min(VAR_CAP, f_new)
                        if side.c[e] <= 0:
                            new = VAR_CAP
                    if new > old:
                        staged_x.append((tag, rid, e, new))
                        d_obj += side.c[e] * (new - old)
            for e, g in g_up.items():
                d_obj += self.up.l[e] * g * dt_eff
            for e, g in g_down.items():
                d_obj += self.down.l[e] * g * dt_eff

        step = {"dt": dt_eff, "solutions": solutions, "staged_x": staged_x,
                "d_obj": d_obj, "pair": pair_index}
        if commit:
            self._apply(step)
        return step

    def _apply(self, step) -> None:
        dt = step["dt"]
        pair_index = step["pair"]
        for tag, rid, e, new in step["staged_x"]:
            arr = self.x_up[rid] if tag == "up" else self.x_down[rid]
            if new > arr[e]:
                arr[e] = new
        for rid, (delta, g_up, g_down, _ut, _dn) in step["solutions"].items():
            fs = self.fS[(rid, pair_index)]
            for e, g in g_up.items():
                fs[e] = fs.get(e, 0.0) + g * dt
            ft = self.fT[(rid, pair_index)]
            for e, g in g_down.items():
                ft[e] = ft.get(e, 0.0) + g * dt
            # dt is capped per root, so z stays at or below 1 up to float noise;
            # clamping would desynchronize z from its certifying flow value
            self.z[(pair_index, rid)] += delta * dt
        self._objective += step["d_obj"]

    def on_arrival(self, pair: PairSpec) -> ArrivalOutcome:
        """Process one arrival to completion, overflow, or infeasibility."""
        eligible = self.arrival_init(pair)
        if not eligible:
            self.arrival_log.append(ArrivalStats(pair.index, 0, 0.0,
                                                 self._objective))
            return ArrivalOutcome.LP_INFEASIBLE
        if self._objective > self.config.kappa:
            return ArrivalOutcome.EPOCH_OVERFLOW
        steps = 0
        while self.z_total(pair.index) < 1.0 - 1e-12:
            steps += 1
            if steps > self.config.max_steps:
                raise RuntimeError(
                    f"pair {pair.index}: no convergence within "
                    f"{self.config.max_steps} steps (diagnostic failure)")
            step = self.growth_step(pair.index, commit=False)
            if self._objective + step["d_obj"] > self.config.kappa:
                return ArrivalOutcome.EPOCH_OVERFLOW
            self._apply(step)
        self.arrival_log.append(ArrivalStats(pair.index, steps,
                                             self.z_total(pair.index),
                                             self._objective))
        return ArrivalOutcome.SATISFIED

    # ------------------------------------------------------------------
    # invariants

    def check_pair(self, pair_index: int, flow_tol: float = 1e-7,
                   completed: bool = True) -> None:
        """Verify one pair's LP invariants; raises AssertionError on violation.

        Cheap enough to run after every arrival: touches only the pair's own
        flows (capacity bounds, conservation at the recorded value, coverage).
        The checks are explicit raises, so they stay on under ``python -O``.
        """
        pair = self.pairs[pair_index]
        if completed and not self.z_total(pair_index) >= 1.0 - flow_tol:
            raise AssertionError(
                f"pair {pair_index} covered only {self.z_total(pair_index)}")
        for rid in self.eligible[pair_index]:
            spec = self.root_by_id[rid]
            zv = self.z[(pair_index, rid)]
            if not -1e-12 <= zv <= VAR_CAP + 1e-9:
                raise AssertionError(f"z[{pair_index},{rid}]={zv}")
            for flows, xs, side in ((self.fS, self.x_up, self.up),
                                    (self.fT, self.x_down, self.down)):
                for e, f in flows[(rid, pair_index)].items():
                    if not f <= xs[rid][e] + flow_tol:
                        raise AssertionError(f"flow {f} above capacity "
                                             f"{xs[rid][e]} on edge {e}")
                    if not f >= -1e-12:
                        raise AssertionError(f"negative flow {f} on edge {e}")
            self._check_flow_value(self.up.graph, self.fS[(rid, pair_index)],
                                   pair.up_source, spec.up_vertex, zv, flow_tol)
            self._check_flow_value(self.down.graph, self.fT[(rid, pair_index)],
                                   spec.down_vertex, pair.down_sink, zv,
                                   flow_tol)

    def check_invariants(self, completed_pairs: Sequence[int],
                         flow_tol: float = 1e-7) -> None:
        """Check every structural LP invariant; explicit raises survive -O."""
        for xs, side in ((self.x_up, self.up), (self.x_down, self.down)):
            for rid, arr in xs.items():
                for e in range(side.graph.m):
                    if side.alive[e] and not -1e-12 <= arr[e] <= VAR_CAP + 1e-9:
                        raise AssertionError(f"x[{rid}][{e}]={arr[e]} out of range")
        for pi in self.pairs:
            self.check_pair(pi, flow_tol, completed=pi in completed_pairs)

    @staticmethod
    def _check_flow_value(graph: TwoMetricGraph, flow: Dict[int, float],
                          source: int, sink: int, value: float,
                          tol: float) -> None:
        balance: Dict[int, float] = {}
        for e, f in flow.items():
            balance[graph.tail[e]] = balance.get(graph.tail[e], 0.0) - f
            balance[graph.head[e]] = balance.get(graph.head[e], 0.0) + f
        for v, b in balance.items():
            expected = -value if v == source else value if v == sink else 0.0
            if not abs(b - expected) <= tol:
                raise AssertionError(
                    f"conservation violated at {v}: {b} vs {expected}")
