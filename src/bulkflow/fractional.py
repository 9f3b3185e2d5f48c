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
down side mirrored (``BALL_TOL`` absorbs float rounding). The ball is the
only pruning: distances run over every arc the pair's owner rule admits,
and an arc whose own rescaled ``c + l`` is above the bound lies in no ball,
so its ``x`` stays 0 and the objective never charges it. The distance
searches are ``graph.distances``, distance-only and capped at the bound,
since a vertex farther away fails every ball test. A ball in which no two
arcs share a tail seeds along the walk from its source; other balls are
searched. A pair the ball cuts off, though it reaches some root, ends its
arrival as ``GUESS_TOO_SMALL``, and the caller doubles the guess; a root
eligible at one guess stays eligible at every larger one, so the caller
probes further guesses (``eligible_views``) and replays only at the first
one with an eligible root. A pair that reaches no root is
``LP_INFEASIBLE`` at any guess; only a pair without an eligible root is
walked for that (``SideGraph.reach``).

State layout: each side's ``_Side`` holds the capacities ``x`` per root,
starting at ``v0`` on every arc a ball can hold and at 0 on the rest;
``CompositeSolver.routes[pair][root]`` is a ``_Route`` holding ``z`` and one
``_Funnel`` per side (in ``sides`` order): the arcs of the ball the pair may
use through the root, its flow on them and their step capacities. Those are
the rate capacities of a full step for the whole arrival. A funnel whose
ball is one simple path keeps only their bottleneck, in a ``flows.FlowPath``,
and each step recomputes it in one pass over the route; otherwise it keeps
them in a flow network, and a step recomputes only the arcs the previous
committed step touched (found tight or grew), since no other arc's ``x``,
flow or tightness moved. A root whose two funnels are paths is solved in
closed form by ``flows.path_delta``; any other root by ``flows.max_delta``,
which takes the closed form on a path side.
Only the pair whose arrival is running steps: an arrival runs to its end
before the next pair registers, so no other pair's step moves the ``x`` its
funnels read.
A side caches its unfiltered root distances for the epoch, so pairs share
the ball searches of their roots and of their terminals (the owner rule of
prize mode searches per pair); a solver started at a probed guess keeps the
probe's cache.

A step solves every root first, since its length depends on every root's
rate: per root side, the tight set and the step capacities (all checked
before any is written; a network recomputes its dirty arcs, a path finds
its bottleneck in one pass over the route), then the joint solve. A network
side's rates are the solve's flows, keyed by edge id; every arc of a path
carries the same flow, so a path side's rate is ``delta`` on its whole route
when ``delta`` is above ``flows.EPS_CAP`` and 0 otherwise. It then commits
in place, per root and side: first the step's flows, then, in one loop for
both funnel kinds, the grown ``x`` over ``tight | set(rates)`` (a network
funnel's next dirty set; for a path, its route set stands for
``set(rates)``), each reading its edge's new flow; after both sides, the
flows' objective terms, then ``z``. That set's iteration order fixes the
order of the objective's sum.

All variables are nondecreasing within an epoch. An epoch ends at the first
step whose commit takes its objective past ``kappa``; the caller then
doubles its optimum guess, starts a fresh solver and replays, and never
reads the overflowed one again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from . import flows
from .errors import StepLimitExceeded
from .flows import FlowNetwork, FlowPath
from .graph import (TwoMetricGraph, Unreachable, distances, plain_sum,
                    reachable_from, reaches, shortest_path)

TIGHT_TOL = 1e-9
VAR_CAP = 1.0
# a route through a root stays in the ball when its rescaled c + l is within
# this of 1: covers the rounding between the guess's and the ball's sums
BALL_TOL = 1e-9
BALL_LIMIT = 1.0 + BALL_TOL
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
# the largest n whose start value n ** -INIT_EXPONENT stays above
# flows.EPS_CAP (251): at a start value z <= EPS_CAP the joint solve's cost
# guard (cost below z - EPS_CAP) already fails, every rate is 0 and no pair
# is ever covered
MAX_N_SCALE = math.floor(flows.EPS_CAP ** (-1.0 / INIT_EXPONENT))
MAX_STEPS = 10 ** 6  # growth steps per arrival before it counts as stuck


class ArrivalOutcome(Enum):
    """How an arrival ended: covered; a step passed the epoch's spend cap;
    some root is reachable but none within the guess's distance ball (both
    ask the caller to double the guess); or no root is reachable on both
    sides under the pair's owner rule, at any guess."""

    SATISFIED = "satisfied"
    EPOCH_OVERFLOW = "epoch_overflow"
    GUESS_TOO_SMALL = "guess_too_small"
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

    def allowed(self, pair_index: int) -> Optional[Callable[[int], bool]]:
        """Arc filter for one pair's searches; ``None`` without owners."""
        if not self.owner:
            return None
        owner = self.owner
        return lambda e: owner.get(e) is None or owner.get(e) == pair_index

    def near(self, pair: PairSpec, weight: Sequence[float]
             ) -> Dict[int, float]:
        """Distance under ``weight`` (indexed by arc id) over the pair's
        allowed arcs from its source to each vertex it reaches upstairs, or
        into its sink from each vertex reaching it downstairs."""
        return distances(self.graph, weight, self.terminal(pair),
                         allowed=self.allowed(pair.index),
                         backward=not self.upward)

    def reach(self, pair: PairSpec) -> Set[int]:
        """The vertices the pair's source reaches over its allowed arcs
        upstairs, or that reach its sink downstairs: the roots it can use
        at some guess."""
        walk = reachable_from if self.upward else reaches
        return walk(self.graph, self.terminal(pair), self.allowed(pair.index))


class _Side:
    """Per-direction epoch view (metrics rescaled by the guess) and that
    side's capacity variables ``x``, which only a solver starts: a probe
    (``eligible_views``) prices on a view without them."""

    def __init__(self, side_graph: SideGraph, guess: float):
        self.side_graph = side_graph
        self.guess = guess
        graph = self.graph = side_graph.graph
        self.c = [graph.c[e] / guess for e in range(graph.m)]
        self.l = [graph.l[e] / guess for e in range(graph.m)]
        # rescaled c + l of each arc: the metric of the distance ball
        self.w = [c + l for c, l in zip(self.c, self.l)]
        # the hop metric of a seed path that is not a walk (seed_path)
        self.unit = [1.0] * graph.m
        # per-root capacity variables (start_capacities)
        self.x: Dict[int, List[float]] = {}
        # (vertex, into) -> distances over every arc, shared by the epoch's
        # pairs; read-only once stored
        self._distances: Dict[Tuple[int, bool], Dict[int, float]] = {}

    def start_capacities(self, root_ids: Sequence[int], v0: float) -> None:
        """One ``x`` array per root, dense over edge ids and at ``v0``, but
        at 0 on an arc dearer than the ball's bound: it is on no funnel, so
        its ``x`` stays 0 and spends nothing of the epoch's cap."""
        start = [v0 if w <= BALL_LIMIT else 0.0 for w in self.w]
        self.x = {rid: list(start) for rid in root_ids}

    def distances(self, vertex: int, allowed: Optional[Callable[[int], bool]],
                  into: bool) -> Dict[int, float]:
        """``c + l`` distance over allowed arcs from ``vertex`` to each vertex
        it reaches within ``BALL_LIMIT``, or into ``vertex`` from each vertex
        reaching it within that. A farther vertex fails every ball test,
        whose terms are all ``>= 0``, so leaving it out changes no ball and
        no eligible root; it also leaves out vertices reachable only beyond
        the bound, so an empty ball says nothing of reachability
        (``SideGraph.reach`` does). Without an arc filter the result depends
        only on the side's weights, so it is searched once per epoch;
        callers must not change it."""
        key = (vertex, into)
        if allowed is None and key in self._distances:
            return self._distances[key]
        dist = distances(self.graph, self.w, vertex, allowed=allowed,
                         backward=into, limit=BALL_LIMIT)
        if allowed is None:
            self._distances[key] = dist
        return dist

    def ball(self, before: Dict[int, float], after: Dict[int, float],
             other: float, allowed: Optional[Callable[[int], bool]]
             ) -> List[int]:
        """The allowed arcs (every arc for ``None``), in id order, on a route
        within the ball: ``before`` holds distances from the side's source,
        ``after`` distances to its sink and ``other`` the other side's
        distance through the root."""
        graph, w = self.graph, self.w
        head = graph.head
        return sorted(e for v, dv in before.items() for e in graph.out_arcs[v]
                      if head[e] in after and (allowed is None or allowed(e))
                      and dv + w[e] + after[head[e]] + other <= BALL_LIMIT)

    def seed_path(self, arcs: List[int], ends: Tuple[int, int]
                  ) -> Tuple[int, ...]:
        """``shortest_path``'s hop-shortest path over ``arcs`` between
        ``ends``; raises ``Unreachable``.

        When no two of the arcs share a tail, the walk from the source is
        the only path over them, so it is that answer, found without a
        search: it ends at the sink, or it dead-ends or comes back to a
        vertex first, and then no path exists. Other balls are searched.
        """
        tail = self.graph.tail
        step: Dict[int, int] = {}
        for e in arcs:
            if tail[e] in step:
                path, _ = shortest_path(self.graph, self.unit, *ends,
                                        set(arcs).__contains__)
                return path
            step[tail[e]] = e
        head = self.graph.head
        v, sink = ends
        path = []
        while v != sink:
            # popped, so a walk that comes back to v dead-ends there
            e = step.pop(v, None)
            if e is None:
                raise Unreachable(f"no path from {ends[0]} to {sink}")
            path.append(e)
            v = head[e]
        return tuple(path)


# a pair's ball through a root on one side: (side, arcs, ends, seed path)
_Ball = Tuple[_Side, List[int], Tuple[int, int], Tuple[int, ...]]


def _eligible_balls(sides: Sequence[_Side], roots: Sequence[RootSpec],
                    pair: PairSpec) -> Iterator[Tuple[RootSpec, List[_Ball]]]:
    """Each of the pair's eligible roots, in ``roots`` order, with its
    ball on each side.

    One search from ``s`` upstairs and one into ``t`` downstairs, over
    the arcs the pair's owner rule admits, price the roots: ``r`` passes
    when ``d(s, r_up) + d(r_down, t)`` is at most ``BALL_LIMIT``. Only
    then a search into ``r_up`` and one out of ``r_down`` give the ball
    on each side (``_Side.ball``), and ``r`` is eligible when both balls
    hold a seed path (rounding at the bound can cut the cheapest
    route). Every search goes through ``_Side.distances``. Only the
    guess's weights are read, never ``x``.
    """
    allowed = [side.side_graph.allowed(pair.index) for side in sides]
    # d(s, .) upstairs and d(., t) downstairs
    near = [side.distances(side.side_graph.terminal(pair), allow,
                           into=not side.side_graph.upward)
            for side, allow in zip(sides, allowed)]
    for spec in roots:
        vertices = [side.side_graph.root_vertex(spec) for side in sides]
        if any(v not in dist for v, dist in zip(vertices, near)):
            continue  # beyond the bound or unreachable
        to_root = [dist[v] for v, dist in zip(vertices, near)]
        if to_root[0] + to_root[1] > BALL_LIMIT:
            continue
        balls = []
        for i, (side, allow) in enumerate(zip(sides, allowed)):
            upward = side.side_graph.upward
            # d(., r_up) upstairs and d(r_down, .) downstairs
            at_root = side.distances(vertices[i], allow, into=upward)
            before, after = ((near[i], at_root) if upward
                             else (at_root, near[i]))
            arcs = side.ball(before, after, to_root[1 - i], allow)
            ends = side.side_graph.ends(pair, spec)
            try:
                path = side.seed_path(arcs, ends)
            except Unreachable:
                break  # rounding at the bound cut the cheapest route
            balls.append((side, arcs, ends, path))
        else:
            yield spec, balls


def eligible_views(up: SideGraph, down: SideGraph, roots: Sequence[RootSpec],
                   guess: float, pair: PairSpec
                   ) -> Optional[Tuple[_Side, _Side]]:
    """The side views at ``guess`` when ``arrival_init`` there would find an
    eligible root for the pair, else ``None``.

    A probe of the guess: it builds no ``x`` and no solver, and stops at the
    first eligible root. A solver at the same guess may start from the
    views it returns (``CompositeSolver``'s ``views``), so their cached
    searches are not made again."""
    views = (_Side(up, guess), _Side(down, guess))
    if next(_eligible_balls(views, roots, pair), None) is None:
        return None
    return views


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
    id order, its sparse flow on them and the step capacities of those arcs.

    The capacities live in ``net``, built once per epoch over the arcs:
    lengths and costs are fixed within an epoch, so each step only updates
    capacities. Every ball arc lies on some route, so a ball no larger than
    its seed path is that path; ``net`` is then a ``flows.FlowPath`` along
    it, solved in closed form, and a ``FlowNetwork`` otherwise (its arc
    ``a`` is funnel arc ``a``; a side whose terminal is its root has an
    empty seed path and a network).

    The capacities are the step state of the pair's arrival: the rate
    capacities for a full step of length ``dmax``. An arc's capacity depends
    only on its own ``x``, flow, tightness and full-step growth factor (in
    ``growth_of`` on both kinds, which the commit reads too), and a
    committed step changes ``x`` and the flow only on the edges it found
    tight or grew. A network funnel's ``dirty`` holds those edges (every
    arc at first) and the next step recomputes only their arcs; no other
    pair steps while this one's arrival runs, so nothing else moves them. A
    path funnel has no ``dirty``: a step that moves a path touches every
    arc, and one that does not moves no capacity's inputs, so each step
    recomputes the route's bottleneck in one pass over it
    (``CompositeSolver._path_side``). Its flow holds the route in route
    order, with the same bits on every arc: the seed puts ``v0`` on each,
    and every step adds one rate to all of them or to none.
    """

    def __init__(self, side: _Side, arcs: List[int], dmax: float,
                 ends: Tuple[int, int], flow: Dict[int, float],
                 path: List[int]):
        self.arcs = arcs
        self.ends = ends  # (source, sink) of the pair's routing
        self.flow = flow  # edge -> flow, confined to the arcs
        self.net: FlowPath | FlowNetwork
        on_path = bool(path) and len(path) == len(arcs)
        # edge -> exp(dmax / c), the growth over a full step: in route order
        # on a path, whose one-pass solve walks it, else in id order
        self.growth_of = {e: _growth_factor(side.c[e], dmax)
                          for e in (path if on_path else arcs)}
        if on_path:
            self.lengths = [side.l[e] for e in path]
            self.net = FlowPath(path, self.lengths)
            self.route = self.net.route
            # built from a dict, as a network side's set(rates) is: a
            # set's iteration order follows its layout, and it orders the
            # objective's sum
            self.route_set = set(dict.fromkeys(path))
        else:
            graph = side.graph
            # labelled by edge id, so solves return flows keyed by edge
            self.net = FlowNetwork(graph.n, [graph.tail[e] for e in arcs],
                                   [graph.head[e] for e in arcs],
                                   [0.0] * len(arcs),
                                   [side.l[e] for e in arcs], arcs)
            # replaced, never changed in place: a committed step hands over
            # the set it wrote over
            self.dirty: Set[int] = set(arcs)
            self.index = {e: a for a, e in enumerate(arcs)}

    def tight(self, x: List[float]) -> Set[int]:
        """Edges whose capacity variable in ``x`` is met by the flow."""
        return {e for e, f in self.flow.items() if x[e] <= f + TIGHT_TOL}


@dataclass
class _Route:
    """One pair's LP state for one root: its assignment ``z`` and its funnel
    on each side, in ``sides`` order."""

    z: float
    funnels: Tuple[_Funnel, ...]


class CompositeSolver:
    """One epoch of the online fractional algorithm at a fixed optimum guess.

    All edge parameters are rescaled by the guess, so the epoch-internal
    objective is comparable to ``kappa`` directly. State only ever grows;
    replaying the same arrivals in the same order is bit-reproducible.
    """

    def __init__(self, up: SideGraph, down: SideGraph,
                 roots: Sequence[RootSpec], n_scale: int, guess: float,
                 kappa: float, dmax: float,
                 views: Optional[Tuple[_Side, _Side]] = None):
        for name, value in (("guess", guess), ("kappa", kappa), ("dmax", dmax)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {value!r}")
        if n_scale < 2:
            raise ValueError("n_scale must be at least 2")
        if n_scale > MAX_N_SCALE:
            raise ValueError(f"n_scale must be at most {MAX_N_SCALE}, got "
                             f"{n_scale}: a larger one starts every variable "
                             f"at or below flows.EPS_CAP")
        self.kappa = kappa
        self.dmax = dmax
        self.v0 = float(n_scale) ** (-INIT_EXPONENT)
        self.roots = list(roots)
        self.root_by_id = {r.root_id: r for r in self.roots}
        if views is None:
            views = (_Side(up, guess), _Side(down, guess))
        elif not (views[0].side_graph is up and views[1].side_graph is down
                  and views[0].guess == views[1].guess == guess
                  and not views[0].x and not views[1].x):
            raise ValueError("views must be unstarted views of up and down "
                             "at this guess")
        self.sides = views
        for side in self.sides:
            side.start_capacities(self.root_by_id, self.v0)
        self.up, self.down = self.sides
        # pair -> root id -> route, pairs as registered, roots in roots order
        self.routes: Dict[int, Dict[int, _Route]] = {}
        self.arrival_log: List[ArrivalStats] = []
        self._objective = self._base_objective()
        # the pair arrival_init registered last: the only one that steps
        self._arriving: Optional[int] = None

    # ------------------------------------------------------------------
    # objective

    def _base_objective(self) -> float:
        total = 0.0
        for side in self.sides:
            in_ball = plain_sum(c for c, w in zip(side.c, side.w)
                                if w <= BALL_LIMIT)
            total += in_ball * self.v0 * len(self.roots)
        return total

    def lp_objective(self) -> float:
        """Exact recomputation of the composite objective (rescaled units)."""
        total = 0.0
        for i, side in enumerate(self.sides):
            for arr in side.x.values():
                for e in range(side.graph.m):
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

    def arrival_init(self, pair: PairSpec) -> Optional[List[int]]:
        """Register a pair: find eligible roots and seed all its variables.

        The funnels are the distance balls of the guess in rescaled
        ``c + l`` that ``_eligible_balls`` finds: ``r`` is eligible when
        ``d(s, r_up) + d(r_down, t)`` is at most ``1 + BALL_TOL`` and both
        its balls hold a seed path, and its funnel on a side holds the
        allowed arcs on some route within the same bound. Without owners
        each search is made once per epoch. The seed routes ``v0`` units
        along a hop-shortest path inside each funnel
        (``_Side.seed_path``), so flows start equal to their ``z`` and the
        inner LP is feasible from the first moment. Every ball arc lies on
        some route, so a ball that holds no more arcs than its seed path is
        that path, and its funnel keeps a ``flows.FlowPath`` along it
        instead of a flow network (see ``_Funnel``). The seed puts the same
        ``v0`` on every arc of a path, and each step keeps its arcs' flows
        equal, which the path's one-pass solve and commit read as one value.

        Returns the eligible root ids, or ``None`` when no root is reachable
        on both sides at all (an empty list: some root is, but the ball holds
        none). An eligible root is reachable, so only a pair with none is
        walked for reachability (``SideGraph.reach``).
        """
        if pair.index in self.routes:
            raise ValueError(f"pair {pair.index} already processed")
        self._arriving = pair.index
        routes = self.routes[pair.index] = {}
        for spec, balls in _eligible_balls(self.sides, self.roots, pair):
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
                funnels.append(_Funnel(side, arcs, self.dmax, ends, flow,
                                       path))
            routes[spec.root_id] = _Route(self.v0, tuple(funnels))
        if routes:
            return list(routes)
        up, down = (side.side_graph.reach(pair) for side in self.sides)
        if any(self.up.side_graph.root_vertex(spec) in up
               and self.down.side_graph.root_vertex(spec) in down
               for spec in self.roots):
            return []
        return None

    def _step_capacities(self, side: _Side, rid: int, funnel: _Funnel,
                         tight: Set[int]) -> None:
        """Bring a network funnel's capacities to the integrated rate
        capacities of a full step.

        An edge's admissible flow increment over ``dmax`` is its current
        headroom plus the growth of ``x`` while riding the boundary; the rate
        capacity is that integral divided by ``dmax``. Currently tight edges
        have no headroom and ride from the start. Only the funnel's dirty
        arcs are recomputed, and all are checked before any is written.
        """
        dirty = funnel.dirty
        if dirty:
            x, dmax, inf = side.x[rid], self.dmax, math.inf
            flows_get = funnel.flow.get
            index, growth_of = funnel.index, funnel.growth_of
            arcs, caps = [], []
            for e in dirty:
                arcs.append(index[e])
                grow = growth_of[e]
                if grow == inf:
                    caps.append(inf)
                    continue
                xe = x[e]
                room = 0.0
                if e not in tight:  # max(0.0, headroom), NaN included
                    headroom = xe - flows_get(e, 0.0)
                    if headroom > 0.0:
                        room = headroom
                caps.append((room + xe * (grow - 1.0)) / dmax)
            funnel.net.update_capacities(arcs, caps)
            funnel.dirty = set()

    def _path_side(self, side: _Side, rid: int, funnel: _Funnel) -> Set[int]:
        """``_Funnel.tight`` and the bottleneck of ``_step_capacities`` on
        every arc of a path funnel, in one pass over its route.

        The route's arcs share one flow, read once. The tight set is built
        in ``tight``'s order, so it iterates as that does; each capacity is
        ``_step_capacities``'s expression, refused when negative or NaN
        before anything is stored. Only the bottleneck goes into the path:
        0.0 when some capacity is at or below ``EPS_CAP``, else the least.
        """
        x, dmax, inf, eps = side.x[rid], self.dmax, math.inf, flows.EPS_CAP
        f = funnel.flow[funnel.route[0]]
        level = f + TIGHT_TOL
        tight: Set[int] = set()
        bottleneck = inf
        for e, grow in funnel.growth_of.items():
            xe = x[e]
            room = 0.0
            if xe <= level:
                tight.add(e)
            else:  # max(0.0, headroom), NaN included
                headroom = xe - f
                if headroom > 0.0:
                    room = headroom
            if grow == inf:
                continue  # an infinite capacity bounds nothing
            cap = (room + xe * (grow - 1.0)) / dmax
            if not cap > eps:
                if not cap >= 0.0:
                    raise flows.FlowError(f"capacity {cap} is negative or "
                                          f"NaN")
                bottleneck = 0.0
            elif cap < bottleneck:
                bottleneck = cap
        funnel.net.set_bottleneck(bottleneck)
        return tight

    def _solve_root(self, rid: int, route: _Route
                    ) -> Tuple[float, Tuple[Optional[Dict[int, float]], ...],
                               Tuple[Set[int], ...]]:
        """Max joint growth rate, per-side flow rates and per-side tight
        sets for one root. A network side's rates are its solve's flows,
        keyed by edge id; a path side has ``None`` (see the module
        docstring)."""
        up, down = self.sides
        up_funnel, down_funnel = route.funnels
        up_net, down_net = up_funnel.net, down_funnel.net
        up_path = isinstance(up_net, FlowPath)
        down_path = isinstance(down_net, FlowPath)
        if up_path:
            up_tight = self._path_side(up, rid, up_funnel)
        else:
            up_tight = up_funnel.tight(up.x[rid])
            self._step_capacities(up, rid, up_funnel, up_tight)
        if down_path:
            down_tight = self._path_side(down, rid, down_funnel)
        else:
            down_tight = down_funnel.tight(down.x[rid])
            self._step_capacities(down, rid, down_funnel, down_tight)
        if up_path and down_path:
            return (flows.path_delta(up_net, down_net, route.z),
                    (None, None), (up_tight, down_tight))
        # unpacked here: a starred call costs more, once per root solve
        (up_s, up_t), (down_s, down_t) = up_funnel.ends, down_funnel.ends
        delta, up_rates, down_rates = flows.max_delta(
            up_net, up_s, up_t, down_net, down_s, down_t, route.z)
        return delta, (up_rates, down_rates), (up_tight, down_tight)

    def growth_step(self) -> float:
        """Take one discretized step of the continuous dynamics for the
        arriving pair, the one ``arrival_init`` registered last, and return
        its length.

        The step length is the configured maximum unless the remaining
        coverage gap truncates it (rates are scaled down so coverage lands
        exactly at 1). Every root is solved before any state moves, since
        the length depends on every root's rate; the step is then committed.
        The coverage is summed in the solve loop, over the same routes in
        the same order as ``z_total``, so it has its bits.
        """
        pair_index = self._arriving
        if pair_index is None:
            raise ValueError("no pair has arrived")
        solved = []
        total_delta = 0.0
        covered = 0.0
        for rid, route in self.routes[pair_index].items():
            covered += route.z
            if route.z >= VAR_CAP - COVER_TOL:
                continue  # this root is already fully selected
            delta, rates, tight = self._solve_root(rid, route)
            solved.append((rid, route, delta, rates, tight))
            total_delta += delta

        # "if b < a: a = b" is a = min(a, b), and "if a < b: a = b" is
        # a = max(a, b), NaN included
        dt = self.dmax
        if total_delta > RATE_TOL:
            limit = (1.0 - covered) / total_delta
            if limit < dt:
                dt = limit
        for _, route, delta, _, _ in solved:
            if delta > RATE_TOL:
                limit = (VAR_CAP - route.z) / delta
                if limit < dt:
                    dt = limit
        if dt < MIN_DT:
            dt = MIN_DT
        # a full step reads each funnel's cached exp(dmax / c)
        full = dt == self.dmax

        # commit, per root and side: the step's flows, then x over the edges
        # that may move, then (after both sides) the flows' objective terms.
        # x rides to max(exp growth if tight, new flow level); "y if y <
        # VAR_CAP else VAR_CAP" is min(VAR_CAP, y), NaN included. Roots and
        # sides share no x array or flow dict, so a write never moves a
        # later read.
        d_obj = 0.0
        inf, eps = math.inf, flows.EPS_CAP
        sides = self.sides
        empty: FrozenSet[int] = frozenset()
        for rid, route, delta, rates, tight in solved:
            # a path side moves its whole route or nothing
            moved = delta > eps
            for side, funnel, side_tight, g_side in zip(
                    sides, route.funnels, tight, rates):
                flow = funnel.flow
                if g_side is None:
                    if moved:
                        flow.update(dict.fromkeys(
                            funnel.route, flow[funnel.route[0]] + delta * dt))
                    # the route set stands for set(rates), in its layout:
                    # this set's iteration order orders the d_obj sum
                    touched = side_tight | (funnel.route_set if moved
                                            else empty)
                else:
                    flow_get = flow.get
                    for e, g in g_side.items():
                        flow[e] = flow_get(e, 0.0) + g * dt
                    # also the next dirty set (the solve emptied it)
                    touched = funnel.dirty = side_tight | set(g_side)
                arr, c, growth_of = side.x[rid], side.c, funnel.growth_of
                for e in touched:
                    old = arr[e]
                    new = old
                    if e in side_tight:
                        grow = (growth_of[e] if full
                                else _growth_factor(c[e], dt))
                        if grow == inf:
                            new = VAR_CAP
                        else:
                            y = old * grow
                            new = y if y < VAR_CAP else VAR_CAP
                    f_new = flow[e]
                    if f_new > new:
                        new = f_new if f_new < VAR_CAP else VAR_CAP
                        if c[e] <= 0:
                            new = VAR_CAP
                    if new > old:
                        arr[e] = new
                        d_obj += c[e] * (new - old)
            for side, funnel, g_side in zip(sides, route.funnels, rates):
                if g_side is None:
                    if moved:
                        for l in funnel.lengths:
                            d_obj += l * delta * dt
                    continue
                l = side.l
                for e, g in g_side.items():
                    d_obj += l[e] * g * dt
            # dt is capped per root, so z stays at or below 1 up to float noise;
            # clamping would desynchronize z from its certifying flow value
            route.z += delta * dt
        self._objective += d_obj
        return dt

    def on_arrival(self, pair: PairSpec) -> ArrivalOutcome:
        """Process one arrival to completion, overflow, a guess too small for
        any root, or infeasibility; ``StepLimitExceeded`` once it takes more
        than ``MAX_STEPS`` growth steps."""
        eligible = self.arrival_init(pair)
        if eligible is None:
            self.arrival_log.append(ArrivalStats(pair.index, 0, 0.0,
                                                 self._objective))
            return ArrivalOutcome.LP_INFEASIBLE
        if not eligible:
            return ArrivalOutcome.GUESS_TOO_SMALL
        if self._objective > self.kappa:
            return ArrivalOutcome.EPOCH_OVERFLOW
        steps = 0
        covered = self.z_total(pair.index)
        while covered < 1.0 - COVER_TOL:
            steps += 1
            if steps > MAX_STEPS:
                raise StepLimitExceeded(pair.index, MAX_STEPS)
            self.growth_step()
            if self._objective > self.kappa:
                return ArrivalOutcome.EPOCH_OVERFLOW
            covered = self.z_total(pair.index)
        self.arrival_log.append(ArrivalStats(pair.index, steps, covered,
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
                    if not -BELOW_ZERO_TOL <= arr[e] <= VAR_CAP + ABOVE_CAP_TOL:
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
