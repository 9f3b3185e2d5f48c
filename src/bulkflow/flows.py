"""Min-cost flow primitives and the joint bounded-length flow step.

The solver here is successive shortest augmenting paths with node
potentials. Augmentations are recorded as (amount, unit cost, path)
segments, which makes the cumulative cost curve of the cheapest flow
available as an exact piecewise-linear function of the flow value. That
curve answers "largest value whose cheapest routing costs at most z"
directly, so ``max_delta`` needs one solve per side instead of a feasibility
search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

FEAS_TOL = 1e-9
# residual capacities below this are treated as saturated
EPS_CAP = 1e-12


class FlowError(ValueError):
    """Invalid flow-network input."""


class InfeasibleFlow(Exception):
    """The requested flow value exceeds the maximum flow."""


class FlowNetwork:
    """Directed network with nonnegative capacities (inf allowed) and unit costs."""

    def __init__(self, n_nodes: int):
        if n_nodes < 0:
            raise FlowError("node count must be nonnegative")
        self.n = n_nodes
        self.tail: List[int] = []
        self.head: List[int] = []
        self.capacity: List[float] = []
        self.cost: List[float] = []

    @property
    def m(self) -> int:
        return len(self.tail)

    def add_arc(self, tail: int, head: int, capacity: float, cost: float) -> int:
        if not (0 <= tail < self.n and 0 <= head < self.n):
            raise FlowError(f"arc ({tail},{head}) out of range")
        if capacity < 0:
            raise FlowError("negative capacity")
        if cost < 0:
            raise FlowError("negative unit cost")
        a = len(self.tail)
        self.tail.append(tail)
        self.head.append(head)
        self.capacity.append(float(capacity))
        self.cost.append(float(cost))
        return a


@dataclass
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
        for a, f in self.flow.items():
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


@dataclass
class FlowSegment:
    amount: float
    unit_cost: float
    # (arc id, +1 forward / -1 reverse) steps of the augmenting path
    steps: Tuple[Tuple[int, int], ...]


class _Residual:
    """Residual graph over arc slots 2a (forward) and 2a+1 (reverse)."""

    def __init__(self, net: FlowNetwork):
        self.net = net
        self.res: List[float] = []
        for a in range(net.m):
            self.res.append(net.capacity[a])
            self.res.append(0.0)
        self.adj: List[List[int]] = [[] for _ in range(net.n)]
        for a in range(net.m):
            self.adj[net.tail[a]].append(2 * a)
            self.adj[net.head[a]].append(2 * a + 1)
        self.potential = [0.0] * net.n

    def slot_head(self, slot: int) -> int:
        a = slot >> 1
        return self.net.head[a] if slot % 2 == 0 else self.net.tail[a]

    def slot_cost(self, slot: int) -> float:
        a = slot >> 1
        return self.net.cost[a] if slot % 2 == 0 else -self.net.cost[a]

    # apart from graph.shortest_paths: reduced costs on residual slots, hot path
    def shortest_path(self, source: int,
                      sink: int) -> Optional[Tuple[List[int], float]]:
        """Dijkstra on reduced costs; returns (slot path, true unit cost)."""
        dist = [math.inf] * self.net.n
        prev_slot = [-1] * self.net.n
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v] + 1e-15:
                continue
            for slot in self.adj[v]:
                if self.res[slot] <= EPS_CAP:
                    continue
                u = self.slot_head(slot)
                rc = self.slot_cost(slot) + self.potential[v] - self.potential[u]
                if rc < 0.0:  # guard against float drift
                    rc = 0.0
                nd = d + rc
                if nd < dist[u] - 1e-15:
                    dist[u] = nd
                    prev_slot[u] = slot
                    heapq.heappush(heap, (nd, u))
        if not math.isfinite(dist[sink]):
            return None
        for v in range(self.net.n):
            if math.isfinite(dist[v]):
                self.potential[v] += dist[v]
        path: List[int] = []
        v = sink
        while v != source:
            slot = prev_slot[v]
            path.append(slot)
            v = self.net.tail[slot >> 1] if slot % 2 == 0 else self.net.head[slot >> 1]
        path.reverse()
        unit_cost = sum(self.slot_cost(s) for s in path)
        return path, unit_cost

    def augment(self, path: List[int], amount: float) -> None:
        for slot in path:
            self.res[slot] -= amount
            self.res[slot ^ 1] += amount


def cheapest_flow_curve(net: FlowNetwork, source: int, sink: int,
                        value_cap: float = math.inf,
                        cost_cap: float = math.inf) -> List[FlowSegment]:
    """Cheapest-flow segments in order of increasing unit cost.

    Augments until the flow value reaches ``value_cap``, the cumulative cost
    reaches ``cost_cap``, or the sink becomes unreachable.
    """
    if source == sink:
        raise FlowError("source equals sink")
    residual = _Residual(net)
    segments: List[FlowSegment] = []
    total_value = 0.0
    total_cost = 0.0
    while total_value < value_cap - EPS_CAP and total_cost < cost_cap - EPS_CAP:
        found = residual.shortest_path(source, sink)
        if found is None:
            break
        path, unit_cost = found
        bottleneck = min(residual.res[s] for s in path)
        amount = min(bottleneck, value_cap - total_value)
        if unit_cost > FEAS_TOL:
            amount = min(amount, (cost_cap - total_cost) / unit_cost)
        if not math.isfinite(amount):
            raise FlowError("flow value is unbounded; pass a finite value_cap")
        if amount <= EPS_CAP:
            break
        residual.augment(path, amount)
        steps = tuple((s >> 1, 1 if s % 2 == 0 else -1) for s in path)
        segments.append(FlowSegment(amount, unit_cost, steps))
        total_value += amount
        total_cost += unit_cost * amount
    return segments


def _assemble(segments: List[FlowSegment],
              value: float) -> Tuple[Dict[int, float], float]:
    """Per-arc flows and cost of the cheapest flow of the given value."""
    flow: Dict[int, float] = {}
    cost = 0.0
    remaining = value
    for seg in segments:
        if remaining <= EPS_CAP:
            break
        take = min(seg.amount, remaining)
        for arc, direction in seg.steps:
            flow[arc] = flow.get(arc, 0.0) + direction * take
        cost += seg.unit_cost * take
        remaining -= take
    for arc in [a for a, f in flow.items() if abs(f) <= EPS_CAP]:
        del flow[arc]
    return flow, cost


def min_cost_flow(net: FlowNetwork, source: int, sink: int,
                  target_value: float) -> FlowResult:
    """Cheapest flow of exactly ``target_value``; raises when short of it."""
    if target_value < 0:
        raise FlowError("target value must be nonnegative")
    if target_value == 0:
        return FlowResult(0.0, {}, 0.0)
    segments = cheapest_flow_curve(net, source, sink, value_cap=target_value)
    achieved = sum(s.amount for s in segments)
    if achieved < target_value - FEAS_TOL:
        raise InfeasibleFlow(
            f"max flow {achieved} below requested {target_value}")
    flow, cost = _assemble(segments, target_value)
    return FlowResult(target_value, flow, cost)


def max_flow(net: FlowNetwork, source: int, sink: int,
             value_cap: float = math.inf) -> FlowResult:
    """Maximum flow (cost-blind) up to ``value_cap``."""
    zero_cost = FlowNetwork(net.n)
    for a in range(net.m):
        zero_cost.add_arc(net.tail[a], net.head[a], net.capacity[a], 0.0)
    segments = cheapest_flow_curve(zero_cost, source, sink, value_cap=value_cap)
    value = sum(s.amount for s in segments)
    flow, _ = _assemble(segments, value)
    cost = sum(net.cost[a] * f for a, f in flow.items())
    return FlowResult(value, flow, cost)


@dataclass
class MaxDeltaResult:
    delta: float
    up: FlowResult
    down: FlowResult


def max_delta(up_net: FlowNetwork, up_source: int, up_sink: int,
              down_net: FlowNetwork, down_source: int, down_sink: int,
              budget: float) -> MaxDeltaResult:
    """Largest common value routable on both sides within the length budget.

    Finds the maximum ``delta`` in [0, 1] such that each network admits a
    flow of value ``delta`` whose cheapest cost is at most ``budget``, and
    returns the two certifying cheapest flows. Disconnected sides yield
    ``delta = 0`` with empty flows.
    """
    if budget < 0:
        raise FlowError("budget must be nonnegative")
    best = 1.0
    sides = []
    for net, s, t in ((up_net, up_source, up_sink),
                      (down_net, down_source, down_sink)):
        if s == t:  # a side that is already at its destination never binds
            sides.append([])
            continue
        segments = cheapest_flow_curve(net, s, t, value_cap=1.0, cost_cap=budget)
        reachable = 0.0
        spent = 0.0
        for seg in segments:
            take = seg.amount
            if seg.unit_cost > FEAS_TOL:
                take = min(take, (budget - spent) / seg.unit_cost)
            if take <= 0:
                break
            reachable += take
            spent += seg.unit_cost * take
        best = min(best, reachable)
        sides.append(segments)
    delta = max(0.0, best)
    up_flow, up_cost = _assemble(sides[0], delta)
    down_flow, down_cost = _assemble(sides[1], delta)
    return MaxDeltaResult(delta,
                          FlowResult(delta, up_flow, up_cost),
                          FlowResult(delta, down_flow, down_cost))
