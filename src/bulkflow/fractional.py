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
tightness test. Every step has the configured length ``dmax`` except the
last one of an arrival, which is truncated to land coverage exactly at 1;
the flow rates are always solved for a full step of ``dmax``.

An epoch assumes its guess is at least the optimum, so a pair routed
through a root pays at most one guess unit of rescaled ``c + l`` there. Its
funnels are the distance ball that bound leaves: a root is eligible when
``d(s, r_up) + d(r_down, t)`` is at most 1, and an up arc ``e`` stays when
``d(s, tail) + c_e + l_e + d(head, r_up) + d(r_down, t)`` is at most 1, the
down side mirrored (``BALL_TOL`` absorbs float rounding). A pair the ball
cuts off is LP-infeasible at this guess; the caller doubles it, and a root
eligible at one guess stays eligible at every larger one.

State layout: each side's ``_Side`` holds the capacities ``x`` per root;
``CompositeSolver.routes[pair][root]`` is a ``_Route`` holding ``z`` and one
``_Funnel`` per side (in ``sides`` order): the arcs of the ball the pair may
use through the root, its flow on them and their flow network. The network
holds the rate capacities of a full step for the whole arrival, and a step
recomputes only the arcs the previous committed step touched (found tight or
grew), since no other arc's ``x``, flow or tightness moved.

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
from .graph import (TwoMetricGraph, Unreachable, plain_sum, reachable_from,
                    reaches, shortest_path, shortest_paths)

TIGHT_TOL = 1e-9
VAR_CAP = 1.0
# an edge stays alive when its rescaled cost and length are within this of 1
PRUNE_TOL = 1e-12
# a route through a root stays in the ball when its rescaled c + l is within
# this of 1: covers the rounding between the guess's and the ball's sums
BALL_TOL = 1e-9
# a z (per root, or summed over the roots) this close to 1 counts as full
COVER_TOL = 1e-12
# growth rates delta at or below this do not bound the step length
RATE_TOL = 1e-15
# the shortest step length, so that a step always advances
MIN_DT = 1e-12
# invariant checks: slack below 0 and above VAR_CAP for x, z and flows
BELOW_ZERO_TOL = 1e-12
ABOVE_CAP_TOL = 1e-9
# invariant checks: flows against x and conservation at the recorded value
FLOW_TOL = 1e-7
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

    def reach(self, pair: PairSpec,
              allowed: Optional[Callable[[int], bool]]) -> Set[int]:
        """Vertices the pair's terminal reaches upstairs, or that reach it
        downstairs, over the ``allowed`` arcs."""
        search = reachable_from if self.upward else reaches
        return search(self.graph, self.terminal(pair), allowed)

    def allowed(self, pair_index: int) -> Optional[Callable[[int], bool]]:
        """Arc filter for one pair's searches; ``None`` without owners."""
        if not self.owner:
            return None
        owner = self.owner
        return lambda e: owner.get(e) is None or owner.get(e) == pair_index


class _Side:
    """Per-direction epoch view (rescaled metrics, pruning) and that side's
    capacity variables ``x``."""

    def __init__(self, side_graph: SideGraph, guess: float,
                 root_ids: Sequence[int], v0: float):
        self.side_graph = side_graph
        graph = self.graph = side_graph.graph
        self.c = [graph.c[e] / guess for e in range(graph.m)]
        self.l = [graph.l[e] / guess for e in range(graph.m)]
        self.alive = [self.c[e] <= 1.0 + PRUNE_TOL
                      and self.l[e] <= 1.0 + PRUNE_TOL for e in range(graph.m)]
        # rescaled c + l of each arc: the metric of the distance ball
        self.w = [c + l for c, l in zip(self.c, self.l)]
        # per-root capacity variables, dense over edge ids (0.0 where pruned)
        self.x: Dict[int, List[float]] = {
            rid: [v0 if alive else 0.0 for alive in self.alive]
            for rid in root_ids}

    def usable(self, pair_index: int) -> Callable[[int], bool]:
        """Arc filter for one pair: alive and admitted by ``allowed``."""
        alive, allowed = self.alive, self.side_graph.allowed(pair_index)

        def usable(e: int) -> bool:
            return alive[e] and (allowed is None or allowed(e))

        return usable

    def distances(self, vertex: int, usable: Callable[[int], bool],
                  into: bool) -> Dict[int, float]:
        """``c + l`` distance over usable arcs from ``vertex`` to each vertex
        it reaches, or into ``vertex`` from each vertex reaching it."""
        found = shortest_paths(self.graph, self.w.__getitem__, vertex,
                               allowed=usable, backward=into)
        return {v: d for v, (_, d) in found.items()}

    def ball(self, before: Dict[int, float], after: Dict[int, float],
             other: float, usable: Callable[[int], bool]) -> List[int]:
        """The usable arcs, in id order, on a route within the ball: ``before``
        holds distances from the side's source, ``after`` distances to its
        sink and ``other`` the other side's distance through the root."""
        graph, w, limit = self.graph, self.w, 1.0 + BALL_TOL
        head = graph.head
        return sorted(e for v, dv in before.items() for e in graph.out_arcs[v]
                      if head[e] in after and usable(e)
                      and dv + w[e] + after[head[e]] + other <= limit)


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
    """A pair's routing through one root on one side: the arcs it may use in
    id order, its sparse flow on them, and the flow network over them
    (network arc ``a`` is funnel arc ``a``), built once per epoch: lengths
    and costs are fixed within an epoch, so each step only updates capacities.

    The network's capacities are the step state of the pair's arrival: the
    rate capacities for a full step of length ``dmax``. An arc's capacity
    depends only on its own ``x``, flow, tightness and growth factor, and a
    committed step changes ``x`` and the flow only on the edges it found
    tight or grew, so ``dirty`` collects those edges and the next step
    recomputes only their arcs. It holds every arc at first and again once
    another pair's step may have changed ``x``.
    """

    def __init__(self, side: _Side, arcs: List[int], dmax: float,
                 ends: Tuple[int, int], flow: Dict[int, float]):
        self.arcs = arcs
        self.ends = ends  # (source, sink) of the pair's routing
        self.flow = flow  # edge -> flow, confined to the arcs
        self.index = {e: a for a, e in enumerate(arcs)}
        graph = side.graph
        self.net = FlowNetwork(graph.n, [graph.tail[e] for e in arcs],
                               [graph.head[e] for e in arcs],
                               [0.0] * len(arcs), [side.l[e] for e in arcs])
        # exp(dmax / c) of each arc: the growth over a full step
        self.full_growth = [_growth_factor(side.c[e], dmax) for e in arcs]
        self.dirty: Set[int] = set(arcs)

    def tight(self, x: List[float]) -> Set[int]:
        """Edges whose capacity variable in ``x`` is met by the flow."""
        return {e for e, f in self.flow.items() if x[e] <= f + TIGHT_TOL}


@dataclass
class _Route:
    """One pair's LP state for one root: its assignment ``z`` and its funnel
    on each side, in ``sides`` order."""

    z: float
    funnels: Tuple[_Funnel, ...]


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
                 kappa: float, dmax: float):
        for name, value in (("guess", guess), ("kappa", kappa), ("dmax", dmax)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {value!r}")
        if n_scale < 2:
            raise ValueError("n_scale must be at least 2")
        self.kappa = kappa
        self.dmax = dmax
        self.v0 = float(n_scale) ** (-INIT_EXPONENT)
        self.roots = list(roots)
        self.root_by_id = {r.root_id: r for r in self.roots}
        self.sides = tuple(_Side(side_graph, guess, self.root_by_id, self.v0)
                           for side_graph in (up, down))
        self.up, self.down = self.sides
        # pair -> root id -> route, pairs as registered, roots in roots order
        self.routes: Dict[int, Dict[int, _Route]] = {}
        self.arrival_log: List[ArrivalStats] = []
        self._objective = self._base_objective()
        # the pair whose funnels keep their step state (see _Funnel)
        self._stepping: Optional[int] = None

    # ------------------------------------------------------------------
    # objective

    def _base_objective(self) -> float:
        total = 0.0
        for side in self.sides:
            alive_cost = plain_sum(side.c[e] for e in range(side.graph.m)
                                   if side.alive[e])
            total += alive_cost * self.v0 * len(self.roots)
        return total

    def lp_objective(self) -> float:
        """Exact recomputation of the composite objective (rescaled units)."""
        total = 0.0
        for i, side in enumerate(self.sides):
            for arr in side.x.values():
                for e in range(side.graph.m):
                    if side.alive[e]:
                        total += side.c[e] * arr[e]
            for routes in self.routes.values():
                for route in routes.values():
                    for e, f in route.funnels[i].flow.items():
                        total += side.l[e] * f
        return total

    @property
    def objective(self) -> float:
        return self._objective

    def z_total(self, pair_index: int) -> float:
        total = 0.0  # a loop, not sum(): see graph.plain_sum
        for route in self.routes.get(pair_index, {}).values():
            total += route.z
        return total

    # ------------------------------------------------------------------
    # arrival processing

    def arrival_init(self, pair: PairSpec) -> List[int]:
        """Register a pair: find eligible roots and seed all its variables.

        The funnels are the distance ball of the guess in rescaled ``c + l``.
        One search from ``s`` upstairs and one into ``t`` downstairs price
        the roots: ``r`` is eligible when ``d(s, r_up) + d(r_down, t)`` is at
        most ``1 + BALL_TOL``. Only an eligible root gets a search into
        ``r_up`` and one out of ``r_down``; its funnel on a side holds the
        usable arcs on some route within the same bound. The seed routes
        ``v0`` units along a hop-shortest path inside each funnel, so flows
        start equal to their ``z`` and the inner LP is feasible from the
        first moment.
        """
        if pair.index in self.routes:
            raise ValueError(f"pair {pair.index} already processed")
        routes = self.routes[pair.index] = {}
        usable = [side.usable(pair.index) for side in self.sides]
        # d(s, .) upstairs and d(., t) downstairs
        near = [side.distances(side.side_graph.terminal(pair), use,
                               into=not side.side_graph.upward)
                for side, use in zip(self.sides, usable)]
        for spec in self.roots:
            vertices = [side.side_graph.root_vertex(spec)
                        for side in self.sides]
            if any(v not in dist for v, dist in zip(vertices, near)):
                continue
            to_root = [dist[v] for v, dist in zip(vertices, near)]
            if to_root[0] + to_root[1] > 1.0 + BALL_TOL:
                continue
            balls = []
            for i, (side, use) in enumerate(zip(self.sides, usable)):
                upward = side.side_graph.upward
                # d(., r_up) upstairs and d(r_down, .) downstairs
                at_root = side.distances(vertices[i], use, into=upward)
                before, after = ((near[i], at_root) if upward
                                 else (at_root, near[i]))
                arcs = side.ball(before, after, to_root[1 - i], use)
                ends = side.side_graph.ends(pair, spec)
                try:
                    path, _ = shortest_path(side.graph, lambda e: 1.0, *ends,
                                            set(arcs).__contains__)
                except Unreachable:
                    break  # rounding at the bound cut the cheapest route
                balls.append((side, arcs, ends, path))
            if len(balls) < len(self.sides):
                continue
            funnels = []
            for side, arcs, ends, path in balls:
                # a shortest path is simple: each of its arcs carries v0 once
                flow = dict.fromkeys(path, self.v0)
                for e in path:
                    self._objective += side.l[e] * self.v0
                # seeding at x's initial value can only create exact tightness
                x = side.x[spec.root_id]
                if any(f > x[e] + TIGHT_TOL for e, f in flow.items()):
                    raise AssertionError("seed flow exceeded capacity variable")
                funnels.append(_Funnel(side, arcs, self.dmax, ends, flow))
            routes[spec.root_id] = _Route(self.v0, tuple(funnels))
        return list(routes)

    def _hold_step_state(self, pair_index: int) -> None:
        """Let ``pair_index``'s funnels keep step state; the previous pair's
        recompute every arc when next solved, since this pair's steps change
        the ``x`` they read."""
        if pair_index != self._stepping:
            for route in self.routes.get(self._stepping, {}).values():
                for funnel in route.funnels:
                    funnel.dirty.update(funnel.arcs)
            self._stepping = pair_index

    def _aux_network(self, side: _Side, rid: int, funnel: _Funnel,
                     tight: Set[int]) -> FlowNetwork:
        """The funnel's network with the integrated rate capacities of a full
        step; network arc ``a`` is funnel arc ``a``.

        An edge's admissible flow increment over ``dmax`` is its current
        headroom plus the growth of ``x`` while riding the boundary; the rate
        capacity is that integral divided by ``dmax``. Currently tight edges
        have no headroom and ride from the start. Only the funnel's dirty
        arcs are recomputed.
        """
        x, dmax, inf = side.x[rid], self.dmax, math.inf
        flows_get = funnel.flow.get
        index, full_growth = funnel.index, funnel.full_growth
        changes = []
        for e in funnel.dirty:
            a = index[e]
            grow = full_growth[a]
            if grow == inf:
                changes.append((a, inf))
            else:
                room = 0.0
                if e not in tight:  # max(0.0, headroom), NaN included
                    headroom = x[e] - flows_get(e, 0.0)
                    if headroom > 0.0:
                        room = headroom
                changes.append((a, (room + x[e] * (grow - 1.0)) / dmax))
        funnel.net.update_capacities(changes)
        funnel.dirty.clear()
        return funnel.net

    def _solve_root(self, rid: int, route: _Route) -> RootStep:
        """Max joint growth rate and flow pattern for one root."""
        tight, args = [], []
        for side, funnel in zip(self.sides, route.funnels):
            side_tight = funnel.tight(side.x[rid])
            tight.append(side_tight)
            args += (self._aux_network(side, rid, funnel, side_tight),
                     *funnel.ends)
        result = max_delta(*args, route.z)
        grow = []
        for funnel, flow in zip(route.funnels,
                                (result.up.flow, result.down.flow)):
            # network arc a is funnel arc a: key the flow rates by edge id
            arcs, rates = funnel.arcs, {}
            for a, f in flow.items():
                if f > 0.0:
                    rates[arcs[a]] = f
            grow.append(rates)
        return RootStep(result.delta, tuple(grow), tuple(tight))

    def growth_step(self, pair_index: int) -> GrowthStep:
        """Stage one discretized step of the continuous dynamics for a pair.

        The step length is the configured maximum unless the remaining
        coverage gap truncates it (rates are scaled down so coverage lands
        exactly at 1). The state is left untouched; ``apply`` commits.
        """
        routes = self.routes[pair_index]
        self._hold_step_state(pair_index)
        solutions: Dict[int, RootStep] = {}
        total_delta = 0.0
        for rid, route in routes.items():
            if route.z >= VAR_CAP - COVER_TOL:
                continue  # this root is already fully selected
            solutions[rid] = self._solve_root(rid, route)
            total_delta += solutions[rid].delta

        dt = self.dmax
        gap = 1.0 - self.z_total(pair_index)
        if total_delta > RATE_TOL:
            dt = min(dt, gap / total_delta)
        for rid, sol in solutions.items():
            if sol.delta > RATE_TOL:
                dt = min(dt, (VAR_CAP - routes[rid].z) / sol.delta)
        dt = max(dt, MIN_DT)
        # a full step reads each funnel's cached exp(dmax / c)
        full = dt == self.dmax

        # stage: x rides to max(exp growth if tight, new flow level);
        # "y if y < VAR_CAP else VAR_CAP" is min(VAR_CAP, y), NaN included
        staged_x: List[Tuple[_Side, int, int, float]] = []
        d_obj = 0.0
        inf = math.inf
        for rid, sol in solutions.items():
            for side, funnel, tight, g_side in zip(
                    self.sides, routes[rid].funnels, sol.tight, sol.grow):
                arr, c = side.x[rid], side.c
                flow_get = funnel.flow.get
                grow_get = g_side.get
                full_growth, index = funnel.full_growth, funnel.index
                touched = set(tight) | set(g_side)
                for e in touched:
                    old = arr[e]
                    new = old
                    if e in tight:
                        grow = (full_growth[index[e]] if full
                                else _growth_factor(c[e], dt))
                        if grow == inf:
                            new = VAR_CAP
                        else:
                            y = old * grow
                            new = y if y < VAR_CAP else VAR_CAP
                    f_new = flow_get(e, 0.0) + grow_get(e, 0.0) * dt
                    if f_new > new:
                        new = f_new if f_new < VAR_CAP else VAR_CAP
                        if c[e] <= 0:
                            new = VAR_CAP
                    if new > old:
                        staged_x.append((side, rid, e, new))
                        d_obj += c[e] * (new - old)
            for side, g_side in zip(self.sides, sol.grow):
                for e, g in g_side.items():
                    d_obj += side.l[e] * g * dt
        return GrowthStep(pair_index, dt, solutions, staged_x, d_obj)

    def apply(self, step: GrowthStep) -> None:
        """Commit a step staged by ``growth_step``."""
        self._hold_step_state(step.pair)
        for side, rid, e, new in step.staged_x:
            arr = side.x[rid]
            if new > arr[e]:
                arr[e] = new
        routes = self.routes[step.pair]
        for rid, sol in step.solutions.items():
            route = routes[rid]
            for funnel, tight, g_side in zip(route.funnels, sol.tight,
                                             sol.grow):
                funnel.dirty.update(tight)
                funnel.dirty.update(g_side)
                flow = funnel.flow
                for e, g in g_side.items():
                    flow[e] = flow.get(e, 0.0) + g * step.dt
            # dt is capped per root, so z stays at or below 1 up to float noise;
            # clamping would desynchronize z from its certifying flow value
            route.z += sol.delta * step.dt
        self._objective += step.d_obj

    def on_arrival(self, pair: PairSpec) -> ArrivalOutcome:
        """Process one arrival to completion, overflow, or infeasibility."""
        eligible = self.arrival_init(pair)
        if not eligible:
            self.arrival_log.append(ArrivalStats(pair.index, 0, 0.0,
                                                 self._objective))
            return ArrivalOutcome.LP_INFEASIBLE
        if self._objective > self.kappa:
            return ArrivalOutcome.EPOCH_OVERFLOW
        steps = 0
        while self.z_total(pair.index) < 1.0 - COVER_TOL:
            steps += 1
            if steps > MAX_STEPS:
                raise RuntimeError(
                    f"pair {pair.index}: no convergence within "
                    f"{MAX_STEPS} steps (diagnostic failure)")
            step = self.growth_step(pair.index)
            if self._objective + step.d_obj > self.kappa:
                return ArrivalOutcome.EPOCH_OVERFLOW
            self.apply(step)
        self.arrival_log.append(ArrivalStats(pair.index, steps,
                                             self.z_total(pair.index),
                                             self._objective))
        return ArrivalOutcome.SATISFIED

    # ------------------------------------------------------------------
    # invariants

    def check_pair(self, pair_index: int, completed: bool = True) -> None:
        """Verify one pair's LP invariants; raises AssertionError on violation.

        Cheap enough to run after every arrival: touches only the pair's own
        flows (capacity bounds, conservation at the recorded value, coverage).
        The checks are explicit raises, so they stay on under ``python -O``.
        """
        routes = self.routes[pair_index]
        if completed and not self.z_total(pair_index) >= 1.0 - FLOW_TOL:
            raise AssertionError(
                f"pair {pair_index} covered only {self.z_total(pair_index)}")
        for rid, route in routes.items():
            zv = route.z
            if not -BELOW_ZERO_TOL <= zv <= VAR_CAP + ABOVE_CAP_TOL:
                raise AssertionError(f"z[{pair_index},{rid}]={zv}")
            for side, funnel in zip(self.sides, route.funnels):
                x = side.x[rid]
                flow = funnel.flow
                for e, f in flow.items():
                    if not f <= x[e] + FLOW_TOL:
                        raise AssertionError(f"flow {f} above capacity "
                                             f"{x[e]} on edge {e}")
                    if not f >= -BELOW_ZERO_TOL:
                        raise AssertionError(f"negative flow {f} on edge {e}")
                self._check_flow_value(side.graph, flow, *funnel.ends, zv)

    def check_invariants(self, completed_pairs: Sequence[int]) -> None:
        """Check every structural LP invariant; explicit raises survive -O."""
        for side in self.sides:
            for rid, arr in side.x.items():
                for e in range(side.graph.m):
                    if side.alive[e] and not (-BELOW_ZERO_TOL <= arr[e]
                                              <= VAR_CAP + ABOVE_CAP_TOL):
                        raise AssertionError(f"x[{rid}][{e}]={arr[e]} out of range")
        for pi in self.routes:
            self.check_pair(pi, completed=pi in completed_pairs)

    @staticmethod
    def _check_flow_value(graph: TwoMetricGraph, flow: Dict[int, float],
                          source: int, sink: int, value: float) -> None:
        balance: Dict[int, float] = {}
        for e, f in flow.items():
            balance[graph.tail[e]] = balance.get(graph.tail[e], 0.0) - f
            balance[graph.head[e]] = balance.get(graph.head[e], 0.0) + f
        for v, b in balance.items():
            expected = -value if v == source else value if v == sink else 0.0
            if not abs(b - expected) <= FLOW_TOL:
                raise AssertionError(
                    f"conservation violated at {v}: {b} vs {expected}")
