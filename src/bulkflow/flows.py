"""Min-cost flow primitives and the joint bounded-length flow step.

The solver here is successive shortest augmenting paths with node
potentials. Augmentations are recorded as (amount, unit cost, path)
segments, which makes the cumulative cost curve of the cheapest flow
available as an exact piecewise-linear function of the flow value. That
curve answers "largest value whose cheapest routing costs at most z"
directly, so ``max_delta`` needs one solve per side instead of a feasibility
search. The curve caps each amount at the budget left over its unit cost,
so the value reachable within the budget is the plain sum of the curve's
amounts, and each augmenting path is walked once: one pass finds its
bottleneck, augments it and collects the slots it closed. ``max_delta``
returns its value and the two flows as plain dicts, which is all the
growth step reads; ``min_cost_flow`` and ``max_flow`` return a
``FlowResult``, priced by one rule (the plain sum of ``cost * flow`` over its
flow dict), whose ``validate`` checks capacities, conservation and cost.

Each side of ``max_delta`` is a ``FlowNetwork`` or a ``FlowPath`` (one
simple path). On one path the curve makes at most one segment, so a path
side's value is its bottleneck cut to the value cap and the budget over its
unit length, and every arc carries ``delta``: the curve's bits, written down.

A network or path is built once from its arcs; afterwards only its
capacities change, so a caller that solves the same arcs repeatedly builds
nothing per solve. A network changes some arcs in place
(``update_capacities``); a path takes a whole new capacity list
(``set_capacities``), since its caller recomputes every arc of the route.
Both check every entry before they install any, so a refused change leaves
the capacities as they were. Arcs may carry labels, which key the segments and
flows a solve returns, so a caller whose arcs stand for other ids reads its
flows without a rebuild. A network's residual slots are built with it, over
its own node numbering: the nodes that end some arc, numbered
``0..k-1`` in id order. The numbering keeps the id order, so the search's
heap ties and adjacency order are those of the ids, and a search touches
only the nodes of the network's arcs, however large the id range. A source
or sink that ends no arc is unreachable.

Each network also keeps the search trail of its latest solve and replays
it. The residual Dijkstra reads capacities only through the test
``res <= EPS_CAP``, so its result (path, unit cost, new potentials) is a
function of the arcs, the costs, which slots are open and the starting
potentials. A solve starts with every reverse slot closed, every forward
slot open except the arcs of capacity ``<= EPS_CAP``, and zero potentials;
an augmentation by more than ``EPS_CAP`` opens the reverse of every path
slot and closes exactly the path slots it leaves at ``<= EPS_CAP``. So the
key ``(source, sink, arcs closed at start)`` names the first search's
state, and the tuple of path slots the last augmentation closed names each
later one; the arcs closed at start are kept as a tuple until a capacity
change opens or closes one. While the keys match the previous solve's, its
recorded search is reused; at the first mismatch the potentials are
restored from the last matched search and the Dijkstra runs live from
there. Amounts, capacity tests and augmentations are always computed live,
so a replayed solve returns the same segments, bit for bit, as a fresh
network would. Only the latest trail is kept, and a solve whose searches
all replay allocates no potentials.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import plain_sum

FEAS_TOL = 1e-9
# residual capacities below this are treated as saturated
EPS_CAP = 1e-12
# residual Dijkstra: labels closer than this count as equal
TIE_TOL = 1e-15

# One recorded search: the key of the state it ran in, its slot path (None
# if the sink was unreachable), unit cost and segment steps, and the
# potentials of the network's search nodes after it.
_Search = Tuple[tuple, Optional[List[int]], float,
                Tuple[Tuple[int, int], ...], array]


class FlowError(ValueError):
    """Invalid flow-network input."""


class InfeasibleFlow(Exception):
    """The requested flow value exceeds the maximum flow."""


class FlowNetwork:
    """Directed network with nonnegative capacities (inf allowed) and unit
    costs, whose arc ``a`` is ``tail[a] -> head[a]``; only its capacities
    change once it is built.

    Residual slot ``2a`` is arc ``a`` forward, slot ``2a+1`` its reverse,
    with cost ``-cost[a]``. The search numbers the nodes that end some arc
    ``0..k-1`` in id order (``_number``); ``_adj[i]`` lists the forward
    slots of node i's out-arcs, then the reverse slots of its in-arcs, each
    in arc order, and ``_head`` holds each slot's head by that number.

    ``labels[a]`` names arc ``a`` in the segments and flows that solves
    return (the arc index by default), so a caller whose arcs stand for
    other ids gets its flows keyed by them.
    """

    def __init__(self, n: int, tail: Sequence[int], head: Sequence[int],
                 capacity: Sequence[float], cost: Sequence[float],
                 labels: Optional[Sequence[int]] = None):
        if n < 0:
            raise FlowError("node count must be nonnegative")
        m = len(tail)
        if not len(head) == len(capacity) == len(cost) == m:
            raise FlowError(f"arc columns differ in length: {m} tails, "
                            f"{len(head)} heads, {len(capacity)} capacities, "
                            f"{len(cost)} costs")
        self.labels: List[int] = list(range(m) if labels is None else labels)
        if not len(set(self.labels)) == len(self.labels) == m:
            raise FlowError(f"{m} arcs need {m} distinct labels, got "
                            f"{len(self.labels)}")
        for u, v, cap, c in zip(tail, head, capacity, cost):
            if not (0 <= u < n and 0 <= v < n):
                raise FlowError(f"arc ({u},{v}) out of range")
            if not cap >= 0:
                raise FlowError(f"capacity {cap} is negative or NaN")
            if not 0 <= c < math.inf:
                raise FlowError(f"unit cost {c} is negative or not finite")
        self.n = n
        self.tail: List[int] = list(tail)
        self.head: List[int] = list(head)
        self.capacity: List[float] = list(map(float, capacity))
        self.cost: List[float] = list(map(float, cost))
        ids = sorted({*tail, *head})
        number = self._number = dict(zip(ids, range(len(ids))))
        self._head: List[int] = [0] * (2 * m)
        self._head[0::2] = [number[v] for v in head]
        self._head[1::2] = [number[v] for v in tail]
        self._cost: List[float] = [0.0] * (2 * m)
        self._cost[0::2] = self.cost
        self._cost[1::2] = [-c for c in self.cost]
        self._adj: List[List[int]] = [[] for _ in ids]
        for a, i in enumerate(self._head[1::2]):
            self._adj[i].append(2 * a)
        for a, i in enumerate(self._head[0::2]):
            self._adj[i].append(2 * a + 1)
        # the searches of the latest solve, replayed by the next one
        self._trail: List[_Search] = []
        # arcs of capacity <= EPS_CAP, in id order; None until next needed
        self._closed: Optional[Tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return len(self.tail)

    def update_capacities(self, arcs: Sequence[int],
                          capacities: Sequence[float]) -> None:
        """Set the capacity of each arc in ``arcs`` to the one at the same
        position of ``capacities``; the other arcs keep theirs. Every entry
        is checked before any is written, so a refused update changes
        nothing."""
        capacity, closed = self.capacity, self._closed
        if len(arcs) != len(capacities):
            raise FlowError(f"{len(arcs)} arcs but {len(capacities)} "
                            f"capacities")
        for a in arcs:
            if not 0 <= a < len(capacity):
                raise FlowError(f"arc {a} out of range")
        for cap in capacities:
            if not cap >= 0:
                raise FlowError(f"capacity {cap} is negative or NaN")
        for a, cap in zip(arcs, capacities):
            # an arc that opens or closes changes the replay's first key
            if closed is not None and (capacity[a] <= EPS_CAP) != (cap <= EPS_CAP):
                closed = None
            capacity[a] = float(cap)
        self._closed = closed

    def closed_arcs(self) -> Tuple[int, ...]:
        """The arcs of capacity ``<= EPS_CAP``, in id order."""
        if self._closed is None:
            self._closed = tuple([a for a, cap in enumerate(self.capacity)
                                  if cap <= EPS_CAP])
        return self._closed

    # apart from graph.shortest_paths: reduced costs on residual slots, hot path
    def _shortest_path(self, res: List[float], potential: List[float],
                       source: int,
                       sink: int) -> Optional[Tuple[List[int], float]]:
        """Dijkstra on reduced costs over the slots with ``res > EPS_CAP``,
        between search nodes; returns (slot path, true unit cost) and adds
        each reached node's distance to its ``potential``."""
        head, cost, adj = self._head, self._cost, self._adj
        heappop, heappush = heapq.heappop, heapq.heappush
        inf, tie = math.inf, TIE_TOL
        dist = [inf] * len(adj)
        prev_slot = [-1] * len(adj)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, v = heappop(heap)
            if d > dist[v] + tie:
                continue
            pot_v = potential[v]
            for slot in adj[v]:
                if res[slot] <= EPS_CAP:
                    continue
                u = head[slot]
                rc = (cost[slot] + pot_v) - potential[u]
                if rc < 0.0:  # guard against float drift
                    rc = 0.0
                nd = d + rc
                if nd < dist[u] - tie:
                    dist[u] = nd
                    prev_slot[u] = slot
                    heappush(heap, (nd, u))
        if not math.isfinite(dist[sink]):
            return None
        for v, d in enumerate(dist):
            if d < inf:  # finite: dist is never nan or -inf
                potential[v] += d
        path: List[int] = []
        v = sink
        while v != source:
            slot = prev_slot[v]
            path.append(slot)
            v = head[slot ^ 1]
        path.reverse()
        unit_cost = 0.0  # a loop, not sum(): see graph.plain_sum
        for s in path:
            unit_cost += cost[s]
        return path, unit_cost


class FlowPath:
    """A nonempty simple path of arc labels ``route``, in route order, with
    their unit costs; ``max_delta`` solves it in closed form. ``length`` is
    the left fold of the costs in route order (the residual search's sum).
    ``capacity[a]`` (zero at first) is that of the ``a``-th label in
    increasing order (a funnel's id order); only ``set_capacities``
    replaces it.
    """

    def __init__(self, route: Sequence[int], cost: Sequence[float]):
        if not route or not len(set(route)) == len(route) == len(cost):
            raise FlowError(f"a flow path needs distinct labels, at least "
                            f"one, and a cost each: got {len(route)} labels "
                            f"and {len(cost)} costs")
        length = 0.0  # a loop, not sum(): see graph.plain_sum
        for c in cost:
            if not 0 <= c < math.inf:
                raise FlowError(f"unit cost {c} is negative or not finite")
            length += c
        self.route: Tuple[int, ...] = tuple(route)
        self.m = len(route)
        self.capacity: List[float] = [0.0] * self.m
        self.length = length

    def set_capacities(self, capacities: List[float]) -> None:
        """Make ``capacities``, one per arc in id order, the path's capacity
        list; the list is installed, not copied. It is refused unless it has
        one entry per arc and every entry is ``>= 0`` (``inf`` allowed, NaN
        not), so a refused list changes nothing."""
        if len(capacities) != self.m:
            raise FlowError(f"{self.m} arcs but {len(capacities)} capacities")
        for cap in capacities:
            if not cap >= 0:
                raise FlowError(f"capacity {cap} is negative or NaN")
        self.capacity = capacities


@dataclass(slots=True)
class FlowResult:
    """A feasible flow: value, per-arc flow map, and its total cost."""

    value: float
    flow: Dict[int, float]
    total_cost: float

    def validate(self, net: FlowNetwork, source: int, sink: int,
                 tol: float = FEAS_TOL) -> None:
        """Assert conservation, capacity bounds, and cost consistency."""
        balance = [0.0] * net.n
        cost = 0.0
        arc = dict(zip(net.labels, range(net.m)))
        for label, f in self.flow.items():
            a = arc[label]
            if f < -tol or f > net.capacity[a] + tol:
                raise FlowError(f"arc {a} flow {f} outside [0, {net.capacity[a]}]")
            balance[net.tail[a]] -= f
            balance[net.head[a]] += f
            cost += net.cost[a] * f
        for v in range(net.n):
            expected = 0.0
            if v == source:
                expected = -self.value
            elif v == sink:
                expected = self.value
            if abs(balance[v] - expected) > tol:
                raise FlowError(f"node {v} violates conservation by "
                                f"{balance[v] - expected}")
        if abs(cost - self.total_cost) > tol:
            raise FlowError(f"cost mismatch {cost} vs {self.total_cost}")


@dataclass(slots=True)
class FlowSegment:
    amount: float
    unit_cost: float
    # (arc label, +1 forward / -1 reverse) steps of the augmenting path
    steps: Tuple[Tuple[int, int], ...]


def _check_ends(net: FlowNetwork, source: int, sink: int) -> None:
    if not (0 <= source < net.n and 0 <= sink < net.n):
        raise FlowError(f"source {source} or sink {sink} is not a node of "
                        f"the {net.n}-node network")


def cheapest_flow_curve(net: FlowNetwork, source: int, sink: int,
                        value_cap: float = math.inf,
                        cost_cap: float = math.inf) -> List[FlowSegment]:
    """Cheapest-flow segments in order of increasing unit cost.

    Augments until the flow value reaches ``value_cap``, the cumulative cost
    reaches ``cost_cap``, or the sink becomes unreachable. Searches whose
    state matches the network's previous solve are replayed from its trail
    (see the module docstring).
    """
    # the ends as search nodes; None if an end touches no arc
    start, end = net._number.get(source), net._number.get(sink)
    if start is None or end is None:
        _check_ends(net, source, sink)
    if source == sink:
        raise FlowError("source equals sink")
    if not (value_cap >= 0 and cost_cap >= 0):
        raise FlowError(f"value cap {value_cap} or cost cap {cost_cap} is "
                        f"negative or NaN")
    inf, isfinite = math.inf, math.isfinite
    capacity = net.capacity
    res: List[float] = [0.0] * (2 * len(capacity))
    res[0::2] = capacity
    # allocated by the first live search: a replayed one needs none
    potential: Optional[List[float]] = None
    previous: Sequence[_Search] = net._trail
    trail: List[_Search] = []
    closed_at_start = net._closed
    key: tuple = (source, sink, net.closed_arcs() if closed_at_start is None
                  else closed_at_start)
    segments: List[FlowSegment] = []
    total_value = 0.0
    total_cost = 0.0
    value_limit, cost_limit = value_cap - EPS_CAP, cost_cap - EPS_CAP
    replayable = len(previous)
    while total_value < value_limit and total_cost < cost_limit:
        i = len(trail)
        if i < replayable and previous[i][0] == key:
            search = previous[i]
        else:
            replayable = 0
            found = None
            if start is not None and end is not None:
                if potential is None:
                    # resume from the last replayed search, or start at zero
                    potential = (list(trail[-1][4]) if trail
                                 else [0.0] * len(net._adj))
                found = net._shortest_path(res, potential, start, end)
            if found is None:
                search = (key, None, 0.0, (), array("d"))
            else:
                live_path, live_cost = found
                label = net.labels
                search = (key, live_path, live_cost,
                          tuple([(label[s >> 1], 1 if s % 2 == 0 else -1)
                                 for s in live_path]),
                          array("d", potential))
        trail.append(search)
        path = search[1]
        if path is None:
            break
        # the bottleneck; "<" keeps the first minimum, as min() does
        amount = inf
        for s in path:
            r = res[s]
            if r < amount:
                amount = r
        rest = value_cap - total_value
        if rest < amount:
            amount = rest
        unit_cost = search[2]
        if unit_cost > FEAS_TOL:
            rest = (cost_cap - total_cost) / unit_cost
            if rest < amount:
                amount = rest
        if not isfinite(amount):
            raise FlowError("flow value is unbounded; pass a finite value_cap")
        if amount <= EPS_CAP:
            break
        # a path is simple, so each slot's residual is final once updated:
        # the slots left at <= EPS_CAP key the next search
        closed = []
        for s in path:
            r = res[s] = res[s] - amount
            res[s ^ 1] += amount
            if r <= EPS_CAP:
                closed.append(s)
        key = tuple(closed)
        segments.append(FlowSegment(amount, unit_cost, search[3]))
        total_value += amount
        total_cost += unit_cost * amount
    net._trail = trail
    return segments


def _assemble(segments: List[FlowSegment], value: float) -> Dict[int, float]:
    """Per-arc flows, keyed by arc label, of the cheapest flow of the given
    value. Every flow left is positive: a forward step adds more
    than ``EPS_CAP``, and an arc crossed backwards holds exactly its
    reverse slot's residual, which bounds each backward take, so it ends at
    zero or above and is dropped at ``<= EPS_CAP``."""
    flow: Dict[int, float] = {}
    get = flow.get
    remaining = value
    # each take exceeds EPS_CAP: only an arc crossed backwards can cancel
    crossed_back: List[int] = []
    for seg in segments:
        if remaining <= EPS_CAP:
            break
        take = seg.amount
        if remaining < take:
            take = remaining
        for arc, direction in seg.steps:
            if direction > 0:
                flow[arc] = get(arc, 0.0) + take
            else:
                flow[arc] = get(arc, 0.0) - take
                crossed_back.append(arc)
        remaining -= take
    for arc in crossed_back:
        if arc in flow and abs(flow[arc]) <= EPS_CAP:
            del flow[arc]
    return flow


def _priced(net: FlowNetwork, value: float,
            flow: Dict[int, float]) -> FlowResult:
    """The flow with its cost: the plain sum of ``cost * flow`` over the
    flow dict, in its order."""
    cost = dict(zip(net.labels, net.cost))
    total = 0.0  # a loop, not sum(): see graph.plain_sum
    for a, f in flow.items():
        total += cost[a] * f
    return FlowResult(value, flow, total)


def min_cost_flow(net: FlowNetwork, source: int, sink: int,
                  target_value: float) -> FlowResult:
    """Cheapest flow of exactly ``target_value``; raises when short of it."""
    if not target_value >= 0:
        raise FlowError(f"target value {target_value} is negative or NaN")
    if target_value == 0:
        _check_ends(net, source, sink)
        return FlowResult(0.0, {}, 0.0)
    segments = cheapest_flow_curve(net, source, sink, value_cap=target_value)
    achieved = plain_sum(seg.amount for seg in segments)
    if achieved < target_value - FEAS_TOL:
        raise InfeasibleFlow(
            f"max flow {achieved} below requested {target_value}")
    return _priced(net, target_value, _assemble(segments, target_value))


def max_flow(net: FlowNetwork, source: int, sink: int,
             value_cap: float = math.inf) -> FlowResult:
    """Maximum flow (cost-blind) up to ``value_cap``."""
    zero_cost = net
    if any(c != 0.0 for c in net.cost):
        zero_cost = FlowNetwork(net.n, net.tail, net.head, net.capacity,
                                [0.0] * net.m, net.labels)
    segments = cheapest_flow_curve(zero_cost, source, sink, value_cap=value_cap)
    value = plain_sum(seg.amount for seg in segments)
    return _priced(net, value, _assemble(segments, value))


def max_delta(up_net: FlowNetwork | FlowPath, up_source: int, up_sink: int,
              down_net: FlowNetwork | FlowPath, down_source: int,
              down_sink: int, budget: float
              ) -> Tuple[float, Dict[int, float], Dict[int, float]]:
    """Largest common value routable on both sides within the length budget.

    Finds the maximum ``delta`` in [0, 1] such that each side admits a
    flow of value ``delta`` whose cheapest cost is at most ``budget``, and
    returns ``(delta, up_flow, down_flow)``: the two certifying cheapest
    flows, keyed by arc label. Disconnected sides yield ``delta = 0`` with
    empty flows.

    A network side runs the curve and ``_assemble``. A ``FlowPath`` side
    (its ends are not read) takes the curve's one segment in closed form,
    and ``_assemble`` would take ``delta`` from it for each arc in route
    order.
    """
    if not budget >= 0:
        raise FlowError(f"budget {budget} is negative or NaN")
    best = 1.0
    sides = []
    for net, s, t in ((up_net, up_source, up_sink),
                      (down_net, down_source, down_sink)):
        if isinstance(net, FlowPath):
            reachable = _path_amount(net.capacity, net.length, budget)
            sides.append(net)
        elif s == t:  # a side already at its destination never binds
            _check_ends(net, s, t)
            sides.append([])
            continue
        else:
            segments = cheapest_flow_curve(net, s, t, value_cap=1.0,
                                           cost_cap=budget)
            # each amount is capped to fit the budget: a plain sum (a loop,
            # see graph.plain_sum) is the value reachable within it
            reachable = 0.0
            for seg in segments:
                reachable += seg.amount
            sides.append(segments)
        if reachable < best:
            best = reachable
    delta = best if best > 0.0 else 0.0
    if delta <= EPS_CAP:  # _assemble takes nothing
        return delta, {}, {}
    up, down = sides
    return (delta,
            dict.fromkeys(up.route, delta) if isinstance(up, FlowPath)
            else _assemble(up, delta),
            dict.fromkeys(down.route, delta) if isinstance(down, FlowPath)
            else _assemble(down, delta))


def _path_amount(capacity: Sequence[float], length: float,
                 budget: float) -> float:
    """The value ``cheapest_flow_curve(net, s, t, value_cap=1.0,
    cost_cap=budget)`` reaches when ``net`` is one simple s-t path with these
    arc capacities (in any order) and unit length; 0.0 when it makes no
    segment.

    The path is the only augmenting path, and it exists while every
    residual is open: the reverse slots lead back towards the source. So the
    curve makes at most one segment. Its amount is the bottleneck, cut to
    the value cap and to the budget over the unit length, with the curve's
    guards and in its order of operations. A bottleneck amount closes its
    arc, and a value-capped one reaches the cap. A budget-capped one
    ``budget / length`` below 1 leaves at most about ``2**-52 * budget`` of
    the budget, which over the length is about ``2**-52`` at most: if the
    loop runs again, its amount is below ``EPS_CAP`` and it stops.
    """
    if not 0.0 < budget - EPS_CAP:
        return 0.0
    amount = math.inf
    for r in capacity:
        if r <= EPS_CAP:
            return 0.0
        if r < amount:
            amount = r
    if 1.0 < amount:
        amount = 1.0
    if length > FEAS_TOL:
        rest = budget / length
        if rest < amount:
            amount = rest
    return amount if amount > EPS_CAP else 0.0

