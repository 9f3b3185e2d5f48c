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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .flows import FlowNetwork, max_delta
from .graph import TwoMetricGraph, reachable_from, reaches, shortest_path

TIGHT_TOL = 1e-9
VAR_CAP = 1.0
INIT_EXPONENT = 5  # starting value of every variable is n ** -INIT_EXPONENT
MAX_STEPS = 10 ** 6  # growth steps per arrival before it counts as stuck


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


@dataclass
class ArrivalStats:
    pair: int
    steps: int
    z_total: float
    objective: float


@dataclass(frozen=True)
class SideGraph:
    """One side of the junction: its graph, its orientation and the owners
    of its pair-private arcs.

    Upstairs a pair routes from its source to the root, downstairs from the
    root to its sink; the methods turn that into vertices, so that callers
    can treat both sides alike.
    """

    graph: TwoMetricGraph
    upward: bool
    owner: Optional[Dict[int, int]] = None  # arc -> the one pair allowed on it

    def root_vertex(self, root: RootSpec) -> int:
        return root.up_vertex if self.upward else root.down_vertex

    def terminal(self, pair: PairSpec) -> int:
        return pair.up_source if self.upward else pair.down_sink

    def ends(self, pair: PairSpec, root: RootSpec) -> Tuple[int, int]:
        """(source, sink) of the pair's routing through a root on this side."""
        if self.upward:
            return pair.up_source, root.up_vertex
        return root.down_vertex, pair.down_sink

    def reach(self, pair: PairSpec) -> Set[int]:
        """Vertices the pair's terminal reaches upstairs, or that reach it
        downstairs, over the arcs the pair may use."""
        search = reachable_from if self.upward else reaches
        return search(self.graph, self.terminal(pair), self.allowed(pair.index))

    def allowed(self, pair_index: int) -> Optional[Callable[[int], bool]]:
        """Arc filter for one pair's searches; ``None`` without owners."""
        if not self.owner:
            return None
        owner = self.owner
        return lambda e: owner.get(e) is None or owner.get(e) == pair_index


class _Side:
    """Per-direction epoch view (rescaled metrics, pruning) and that side's
    LP variables: capacities ``x``, flows and the arcs each flow may use."""

    def __init__(self, side_graph: SideGraph, guess: float,
                 root_ids: Sequence[int], v0: float):
        self.side_graph = side_graph
        graph = self.graph = side_graph.graph
        self.c = [graph.c[e] / guess for e in range(graph.m)]
        self.l = [graph.l[e] / guess for e in range(graph.m)]
        self.alive = [self.c[e] <= 1.0 + 1e-12 and self.l[e] <= 1.0 + 1e-12
                      for e in range(graph.m)]
        # per-root capacity variables, dense over edge ids (0.0 where pruned)
        self.x: Dict[int, List[float]] = {
            rid: [v0 if alive else 0.0 for alive in self.alive]
            for rid in root_ids}
        # sparse per (root, pair) flows, each confined to its funnel
        self.flow: Dict[Tuple[int, int], Dict[int, float]] = {}
        self.funnels: Dict[Tuple[int, int], _Funnel] = {}

    def tight(self, root_id: int, pair_index: int) -> Set[int]:
        """Edges whose capacity variable is met by this pair's flow."""
        return {e for e, f in self.flow.get((root_id, pair_index), {}).items()
                if self.x[root_id][e] <= f + TIGHT_TOL}

    def usable(self, pair_index: int) -> Callable[[int], bool]:
        """Arc filter for one pair: alive and admitted by ``allowed``."""
        alive, allowed = self.alive, self.side_graph.allowed(pair_index)

        def usable(e: int) -> bool:
            return alive[e] and (allowed is None or allowed(e))

        return usable

    def pair_reach(self, pair: PairSpec) -> Set[int]:
        """Vertices the pair's source reaches upstairs, or that reach its
        sink downstairs, over the arcs it may use; shared by all roots."""
        search = reachable_from if self.side_graph.upward else reaches
        return search(self.graph, self.side_graph.terminal(pair),
                      self.usable(pair.index))

    def funnel(self, pair: PairSpec, root: RootSpec,
               near: Set[int]) -> Optional[List[int]]:
        """The arcs, in id order, the pair may route over through ``root``:
        usable, tail reached from the source, head reaching the sink; ``None``
        if the sink is unreachable. ``near`` is ``pair_reach(pair)``."""
        vertex = self.side_graph.root_vertex(root)
        if vertex not in near:
            return None
        usable = self.usable(pair.index)
        if self.side_graph.upward:
            after, before = near, reaches(self.graph, vertex, usable)
        else:
            after, before = reachable_from(self.graph, vertex, usable), near
        return sorted(e for v in after & before for e in self.graph.out_arcs[v]
                      if self.graph.head[e] in before and usable(e))


def _growth_factor(c: float, dt: float) -> float:
    """Multiplier ``exp(dt/c)``; zero or negligible costs grow unboundedly.

    The exponent is cut off where ``exp`` would overflow; any factor that
    large is indistinguishable from infinite capacity since variables top
    out at 1.
    """
    if c <= 0 or dt / c > 700.0:
        return math.inf
    return math.exp(dt / c)


class _Funnel:
    """A funnel's arcs in id order and the flow network over them (network
    arc ``a`` is funnel arc ``a``), built once per epoch: lengths and costs
    are fixed within an epoch, so each step only resets capacities."""

    def __init__(self, side: _Side, arcs: List[int], dmax: float):
        self.arcs, self.dmax = arcs, dmax
        graph = side.graph
        self.net = FlowNetwork(graph.n)
        for e in arcs:
            self.net.add_arc(graph.tail[e], graph.head[e], 0.0, side.l[e])
        # exp(dmax / c) of each arc: the growth over a full step
        self.full_growth = [_growth_factor(side.c[e], dmax) for e in arcs]


@dataclass(frozen=True)
class RootStep:
    """One root's share of a growth step; per-side tuples follow ``sides``."""

    delta: float
    grow: Tuple[Dict[int, float], ...]  # flow rate per edge
    tight: Tuple[Set[int], ...]


@dataclass(frozen=True)
class GrowthStep:
    """A staged growth step; ``CompositeSolver.apply`` commits it."""

    pair: int
    dt: float
    solutions: Dict[int, RootStep]
    staged_x: List[Tuple[_Side, int, int, float]]  # (side, root, edge, new x)
    d_obj: float


class CompositeSolver:
    """One epoch of the online fractional algorithm at a fixed optimum guess.

    All edge parameters are rescaled by the guess, so the epoch-internal
    objective is comparable to ``kappa`` directly. State only ever grows;
    replaying the same arrivals in the same order is bit-reproducible.
    """

    def __init__(self, up: SideGraph, down: SideGraph,
                 roots: Sequence[RootSpec], n_scale: int, guess: float,
                 config: SolverConfig):
        if guess <= 0:
            raise ValueError("guess must be positive")
        if n_scale < 2:
            raise ValueError("n_scale must be at least 2")
        self.config = config
        self.v0 = float(n_scale) ** (-INIT_EXPONENT)
        self.roots = list(roots)
        self.root_by_id = {r.root_id: r for r in self.roots}
        self.sides = tuple(_Side(side_graph, guess, self.root_by_id, self.v0)
                           for side_graph in (up, down))
        self.up, self.down = self.sides
        self.z: Dict[Tuple[int, int], float] = {}
        self.eligible: Dict[int, List[int]] = {}
        self.pairs: Dict[int, PairSpec] = {}
        self.arrival_log: List[ArrivalStats] = []
        self._objective = self._base_objective()

    # ------------------------------------------------------------------
    # objective

    def _base_objective(self) -> float:
        total = 0.0
        for side in self.sides:
            alive_cost = sum(side.c[e] for e in range(side.graph.m)
                             if side.alive[e])
            total += alive_cost * self.v0 * len(self.roots)
        return total

    def lp_objective(self) -> float:
        """Exact recomputation of the composite objective (rescaled units)."""
        total = 0.0
        for side in self.sides:
            for arr in side.x.values():
                for e in range(side.graph.m):
                    if side.alive[e]:
                        total += side.c[e] * arr[e]
            for fdict in side.flow.values():
                for e, f in fdict.items():
                    total += side.l[e] * f
        return total

    @property
    def objective(self) -> float:
        return self._objective

    def z_total(self, pair_index: int) -> float:
        return sum(self.z.get((pair_index, r), 0.0)
                   for r in self.eligible.get(pair_index, ()))

    # ------------------------------------------------------------------
    # arrival processing

    def arrival_init(self, pair: PairSpec) -> List[int]:
        """Register a pair: find eligible roots and seed all its variables.

        A root is eligible when the pair has a funnel through it on both
        sides. The seed routes ``v0`` units along a hop-shortest path inside
        each funnel, so flows start equal to their ``z`` and the inner LP is
        feasible from the first moment.
        """
        if pair.index in self.pairs:
            raise ValueError(f"pair {pair.index} already processed")
        self.pairs[pair.index] = pair
        eligible = self.eligible[pair.index] = []
        nears = [side.pair_reach(pair) for side in self.sides]
        for spec in self.roots:
            funnels = [side.funnel(pair, spec, near)
                       for side, near in zip(self.sides, nears)]
            if any(funnel is None for funnel in funnels):
                continue
            eligible.append(spec.root_id)
            self.z[(pair.index, spec.root_id)] = self.v0
            for side, funnel in zip(self.sides, funnels):
                side.funnels[(spec.root_id, pair.index)] = _Funnel(
                    side, funnel, self.config.dmax)
                path, _ = shortest_path(side.graph, lambda e: 1.0,
                                        *side.side_graph.ends(pair, spec),
                                        set(funnel).__contains__)
                # a shortest path is simple: each of its arcs carries v0 once
                flow = dict.fromkeys(path, self.v0)
                side.flow[(spec.root_id, pair.index)] = flow
                for e in path:
                    self._objective += side.l[e] * self.v0
                # seeding at x's initial value can only create exact tightness
                x = side.x[spec.root_id]
                if any(f > x[e] + TIGHT_TOL for e, f in flow.items()):
                    raise AssertionError("seed flow exceeded capacity variable")
        return eligible

    def tight_edges(self, pair_index: int, root_id: int) -> Tuple[Set[int], ...]:
        """Edges whose capacity variable is met by this pair's flow, per side."""
        return tuple(side.tight(root_id, pair_index) for side in self.sides)

    def _aux_network(self, side: _Side, rid: int, tight: Set[int], dt: float,
                     pair_index: int) -> FlowNetwork:
        """The funnel's network with this step's integrated rate capacities;
        network arc ``a`` is funnel arc ``a``.

        An edge's admissible flow increment over ``dt`` is its current
        headroom plus the growth of ``x`` while riding the boundary; the rate
        capacity is that integral divided by ``dt``. Currently tight edges
        have no headroom and ride from the start.
        """
        funnel = side.funnels[(rid, pair_index)]
        x, c = side.x[rid], side.c
        flows = side.flow.get((rid, pair_index), {})
        full, inf = dt == funnel.dmax, math.inf
        capacity = []
        for e, full_growth in zip(funnel.arcs, funnel.full_growth):
            grow = full_growth if full else _growth_factor(c[e], dt)
            if grow == inf:
                capacity.append(inf)
            else:
                room = 0.0 if e in tight else max(0.0, x[e] - flows.get(e, 0.0))
                capacity.append((room + x[e] * (grow - 1.0)) / dt)
        funnel.net.set_capacities(capacity)
        return funnel.net

    def _solve_root(self, pair: PairSpec, rid: int, dt: float) -> RootStep:
        """Max joint growth rate and flow pattern for one root."""
        spec = self.root_by_id[rid]
        tight = self.tight_edges(pair.index, rid)
        up_net, down_net = (self._aux_network(side, rid, t, dt, pair.index)
                            for side, t in zip(self.sides, tight))
        result = max_delta(up_net, *self.up.side_graph.ends(pair, spec),
                           down_net, *self.down.side_graph.ends(pair, spec),
                           self.z[(pair.index, rid)])
        grow = tuple({side.funnels[(rid, pair.index)].arcs[a]: f
                      for a, f in res.flow.items() if f > 0.0}
                     for side, res in zip(self.sides, (result.up, result.down)))
        return RootStep(result.delta, grow, tight)

    def growth_step(self, pair_index: int, dt: Optional[float] = None) -> GrowthStep:
        """Stage one discretized step of the continuous dynamics for a pair.

        The step length is the configured maximum unless the remaining
        coverage gap truncates it (rates are scaled down so coverage lands
        exactly at 1). The state is left untouched; ``apply`` commits.
        """
        pair = self.pairs[pair_index]
        eligible = self.eligible[pair_index]
        dt0 = dt if dt is not None else self.config.dmax
        solutions: Dict[int, RootStep] = {}
        total_delta = 0.0
        for rid in eligible:
            if self.z[(pair_index, rid)] >= VAR_CAP - 1e-12:
                continue  # this root is already fully selected
            solutions[rid] = self._solve_root(pair, rid, dt0)
            total_delta += solutions[rid].delta

        dt_eff = dt0
        if dt is None:
            gap = 1.0 - self.z_total(pair_index)
            if total_delta > 1e-15:
                dt_eff = min(dt_eff, gap / total_delta)
            for rid, sol in solutions.items():
                if sol.delta > 1e-15:
                    dt_eff = min(dt_eff,
                                 (VAR_CAP - self.z[(pair_index, rid)]) / sol.delta)
            dt_eff = max(dt_eff, 1e-12)

        # stage: x rides to max(exp growth if tight, new flow level)
        staged_x: List[Tuple[_Side, int, int, float]] = []
        d_obj = 0.0
        for rid, sol in solutions.items():
            for side, tight, g_side in zip(self.sides, sol.tight, sol.grow):
                arr = side.x[rid]
                f_now = side.flow.get((rid, pair_index), {})
                touched = set(tight) | set(g_side)
                for e in touched:
                    old = arr[e]
                    new = old
                    if e in tight:
                        grow = _growth_factor(side.c[e], dt_eff)
                        new = VAR_CAP if math.isinf(grow) else min(VAR_CAP,
                                                                   old * grow)
                    f_new = f_now.get(e, 0.0) + g_side.get(e, 0.0) * dt_eff
                    if f_new > new:
                        new = min(VAR_CAP, f_new)
                        if side.c[e] <= 0:
                            new = VAR_CAP
                    if new > old:
                        staged_x.append((side, rid, e, new))
                        d_obj += side.c[e] * (new - old)
            for side, g_side in zip(self.sides, sol.grow):
                for e, g in g_side.items():
                    d_obj += side.l[e] * g * dt_eff
        return GrowthStep(pair_index, dt_eff, solutions, staged_x, d_obj)

    def apply(self, step: GrowthStep) -> None:
        """Commit a step staged by ``growth_step``."""
        for side, rid, e, new in step.staged_x:
            arr = side.x[rid]
            if new > arr[e]:
                arr[e] = new
        for rid, sol in step.solutions.items():
            for side, g_side in zip(self.sides, sol.grow):
                flow = side.flow[(rid, step.pair)]
                for e, g in g_side.items():
                    flow[e] = flow.get(e, 0.0) + g * step.dt
            # dt is capped per root, so z stays at or below 1 up to float noise;
            # clamping would desynchronize z from its certifying flow value
            self.z[(step.pair, rid)] += sol.delta * step.dt
        self._objective += step.d_obj

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
            if steps > MAX_STEPS:
                raise RuntimeError(
                    f"pair {pair.index}: no convergence within "
                    f"{MAX_STEPS} steps (diagnostic failure)")
            step = self.growth_step(pair.index)
            if self._objective + step.d_obj > self.config.kappa:
                return ArrivalOutcome.EPOCH_OVERFLOW
            self.apply(step)
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
            for side in self.sides:
                x = side.x[rid]
                flow = side.flow[(rid, pair_index)]
                for e, f in flow.items():
                    if not f <= x[e] + flow_tol:
                        raise AssertionError(f"flow {f} above capacity "
                                             f"{x[e]} on edge {e}")
                    if not f >= -1e-12:
                        raise AssertionError(f"negative flow {f} on edge {e}")
                self._check_flow_value(side.graph, flow,
                                       *side.side_graph.ends(pair, spec), zv,
                                       flow_tol)

    def check_invariants(self, completed_pairs: Sequence[int],
                         flow_tol: float = 1e-7) -> None:
        """Check every structural LP invariant; explicit raises survive -O."""
        for side in self.sides:
            for rid, arr in side.x.items():
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
