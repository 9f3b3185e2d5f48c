"""Two-metric graphs, solution ledgers, and the basic cost/path machinery.

Every edge carries a fixed buying cost ``c`` (paid once if the edge is used
by any path) and a per-unit length ``l`` (paid by every path traversing it).
Undirected inputs are eagerly expanded into anti-parallel arc pairs that
share one purchase: buying either arc makes both usable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)


class GraphError(ValueError):
    """Invalid graph input or a ledger integrity violation."""


class Unreachable(Exception):
    """No path exists between the requested endpoints."""


def plain_sum(values: Iterable[float]) -> float:
    """Left to right, rounding after each addition: what ``sum()`` gives up
    to Python 3.11. From 3.12 on ``sum()`` compensates float rounding, which
    would change the last bits of the reports; integer sums stay ints."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class TerminalPair:
    """An online request: route one unit from ``s`` to ``t``.

    ``penalty`` is only present in prize-collecting mode and allows the
    request to be discarded for that price. Demands other than 1 are
    rejected up front.
    """

    index: int
    s: int
    t: int
    demand: int = 1
    penalty: Optional[float] = None

    def __post_init__(self):
        if self.demand != 1:
            raise GraphError(f"pair {self.index}: only unit demands are supported")
        if self.penalty is not None and not 0 <= self.penalty < math.inf:
            raise GraphError(f"pair {self.index}: penalty {self.penalty} is "
                             "negative or not finite")


def _check_arc(n: int, tail: int, head: int, c: float, l: float) -> None:
    """Refuse an arc with an end outside ``0..n-1`` or a negative or
    non-finite cost or length."""
    if not (0 <= tail < n and 0 <= head < n):
        raise GraphError(f"arc ({tail},{head}) out of range for n={n}")
    if not (0 <= c < math.inf and 0 <= l < math.inf):
        raise GraphError(f"arc ({tail},{head}) has a negative or non-finite "
                         f"cost or length ({c}, {l})")


class TwoMetricGraph:
    """Directed multigraph with buy cost ``c`` and length ``l`` per arc.

    Arc ids are dense integers assigned in insertion order; all downstream
    state is keyed by arc id so parallel arcs are first-class. Instances are
    immutable once ``freeze`` has been called (construction helpers call it).
    """

    def __init__(self, n: int, directed: bool = True):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self.directed = directed
        self.tail: List[int] = []
        self.head: List[int] = []
        self.c: List[float] = []
        self.l: List[float] = []
        # twin[e] = anti-parallel partner sharing the purchase, or -1
        self.twin: List[int] = []
        self.out_arcs: List[List[int]] = [[] for _ in range(n)]
        self.in_arcs: List[List[int]] = [[] for _ in range(n)]
        self._frozen = False

    @classmethod
    def from_arcs(cls, n: int, tail: Sequence[int], head: Sequence[int],
                  c: Sequence[float], l: Sequence[float]) -> "TwoMetricGraph":
        """Frozen directed graph whose arc ``e`` is ``tail[e] -> head[e]``
        with cost ``c[e]`` and length ``l[e]``.

        The same graph as ``add_arc`` called in id order, built column by
        column, and refusing what ``add_arc`` refuses."""
        m = len(tail)
        if not len(head) == len(c) == len(l) == m:
            raise GraphError(f"arc columns differ in length: {m} tails, "
                             f"{len(head)} heads, {len(c)} costs, "
                             f"{len(l)} lengths")
        g = cls(n, directed=True)
        # whole-column checks in C; the first arc add_arc would refuse, if
        # any, is found one by one. A NaN fails the sum test, and so does a
        # sum that overflowed, which the per-arc pass then lets through.
        if m and not (min(tail) >= 0 and max(tail) < n and min(head) >= 0
                      and max(head) < n and sum(c) < math.inf
                      and min(c) >= 0 and sum(l) < math.inf and min(l) >= 0):
            for arc in zip(tail, head, c, l):
                _check_arc(n, *arc)
        g.tail, g.head = list(tail), list(head)
        g.c, g.l = list(map(float, c)), list(map(float, l))
        g.twin = [-1] * m
        out_arcs, in_arcs = g.out_arcs, g.in_arcs
        for e, (t, h) in enumerate(zip(tail, head)):
            out_arcs[t].append(e)
            in_arcs[h].append(e)
        return g.freeze()

    @property
    def m(self) -> int:
        return len(self.tail)

    def add_arc(self, tail: int, head: int, c: float, l: float) -> int:
        if self._frozen:
            raise GraphError("graph is frozen")
        _check_arc(self.n, tail, head, c, l)
        e = len(self.tail)
        self.tail.append(tail)
        self.head.append(head)
        self.c.append(float(c))
        self.l.append(float(l))
        self.twin.append(-1)
        self.out_arcs[tail].append(e)
        self.in_arcs[head].append(e)
        return e

    def add_edge(self, u: int, v: int, c: float, l: float) -> Tuple[int, ...]:
        """Add an edge, expanding to a twin arc pair when the graph is undirected."""
        e = self.add_arc(u, v, c, l)
        if self.directed:
            return (e,)
        f = self.add_arc(v, u, c, l)
        self.twin[e] = f
        self.twin[f] = e
        return (e, f)

    def freeze(self) -> "TwoMetricGraph":
        self._frozen = True
        return self

    def purchase_key(self, e: int) -> int:
        """Canonical id of the purchase an arc belongs to (twins share one)."""
        t = self.twin[e]
        return e if t < 0 else min(e, t)

    def reversed_view(self) -> "TwoMetricGraph":
        """New graph with every arc flipped; arc ids are preserved."""
        rev = TwoMetricGraph.from_arcs(self.n, self.head, self.tail, self.c,
                                       self.l)
        rev.twin = list(self.twin)
        return rev

    def describe_arc(self, e: int) -> str:
        return (f"arc {e}: {self.tail[e]}->{self.head[e]} "
                f"c={self.c[e]} l={self.l[e]}")


@dataclass
class SolutionLedger:
    """Bought purchases plus committed per-pair paths with exact accounting.

    ``bought`` stores purchase keys (see ``TwoMetricGraph.purchase_key``), so
    an undirected edge used in both directions is paid for once. Totals are
    maintained incrementally and can always be recomputed via
    ``solution_cost``.
    """

    bought: Set[int] = field(default_factory=set)
    paths: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    buy_cost: float = 0.0
    length_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.buy_cost + self.length_cost

    def buy(self, graph: TwoMetricGraph, e: int) -> None:
        key = graph.purchase_key(e)
        if key not in self.bought:
            self.bought.add(key)
            self.buy_cost += graph.c[key]

    def add_path(self, graph: TwoMetricGraph, pair_index: int,
                 edges: Sequence[int]) -> None:
        if pair_index in self.paths:
            raise GraphError(f"pair {pair_index} already has a committed path")
        for e in edges:
            self.buy(graph, e)
            self.length_cost += graph.l[e]
        self.paths[pair_index] = tuple(edges)


def split_node_weights(n: int, node_c: Sequence[float], node_l: Sequence[float],
                       edges: Sequence[Tuple[int, int]],
                       directed: bool = False) -> Tuple[TwoMetricGraph, Dict[str, List[int]]]:
    """Convert a node-weighted graph into an edge-weighted directed one.

    Vertex ``v`` becomes an internal arc ``v_in -> v_out`` carrying the node
    weights; original edges become zero-cost connector arcs between the
    corresponding ``out``/``in`` endpoints (both directions if undirected).
    Returns the split graph plus the terminal mapping: a source terminal
    lives on ``v_out`` and a sink terminal on ``v_in``.
    """
    if len(node_c) != n or len(node_l) != n:
        raise GraphError("node weight arrays must have length n")
    for v in range(n):
        if not (0 <= node_c[v] < math.inf and 0 <= node_l[v] < math.inf):
            raise GraphError(f"vertex {v} has a negative or non-finite weight")
    g = TwoMetricGraph(2 * n, directed=True)
    v_in = [2 * v for v in range(n)]
    v_out = [2 * v + 1 for v in range(n)]
    for v in range(n):
        g.add_arc(v_in[v], v_out[v], node_c[v], node_l[v])
    for u, v in edges:
        g.add_arc(v_out[u], v_in[v], 0.0, 0.0)
        if not directed:
            g.add_arc(v_out[v], v_in[u], 0.0, 0.0)
    mapping = {"source_vertex": v_out, "sink_vertex": v_in}
    return g.freeze(), mapping


def solution_cost(graph: TwoMetricGraph,
                  ledger: SolutionLedger) -> Tuple[float, float, float]:
    """Recompute (buy, length, total) from scratch and verify ledger integrity.

    An edge bought once but used by many paths contributes ``c`` once and
    ``l`` per traversal. Raises ``GraphError`` if a path references an arc
    whose purchase is missing or if a path is not a contiguous walk.
    """
    # buy sums in key order: a set's iteration order follows its insertion
    # history for colliding keys, and equal sets must give equal bits
    buy = 0.0
    for key in sorted(ledger.bought):
        if not (0 <= key < graph.m):
            raise GraphError(f"bought purchase key {key} outside graph")
        buy += graph.c[key]
    length = 0.0
    for pair_index, path in ledger.paths.items():
        prev_head = None
        for e in path:
            if not (0 <= e < graph.m):
                raise GraphError(f"pair {pair_index}: path arc {e} outside graph")
            if graph.purchase_key(e) not in ledger.bought:
                raise GraphError(
                    f"pair {pair_index}: path uses un-bought {graph.describe_arc(e)}")
            if prev_head is not None and graph.tail[e] != prev_head:
                raise GraphError(f"pair {pair_index}: path is not a contiguous walk")
            prev_head = graph.head[e]
            length += graph.l[e]
    return buy, length, buy + length


def shortest_paths(graph: TwoMetricGraph, weight: Callable[[int], float],
                   start: int, goal: Optional[int] = None,
                   allowed: Optional[Callable[[int], bool]] = None,
                   backward: bool = False) -> Dict[int, Tuple[Tuple[int, ...], float]]:
    """Minimum-weight paths from ``start``: ``{vertex: (arc-id path, weight)}``.

    Covers every vertex reachable along ``allowed`` arcs (``start`` itself
    with the empty path at weight 0), or stops once ``goal`` is settled.
    Ties go to the smallest lexicographic arc-id sequence (among simple
    paths), so each entry equals the point-to-point answer. Weights must be
    nonnegative. ``backward`` walks against the arcs and finds paths into
    ``start``, listed from its end as the search on ``reversed_view()`` does.
    """
    if not (0 <= start < graph.n and (goal is None or 0 <= goal < graph.n)):
        raise GraphError("endpoints outside graph")
    arcs_at, far_end = ((graph.in_arcs, graph.tail) if backward
                        else (graph.out_arcs, graph.head))
    # heap entries carry the full arc-id tuple so equal-weight paths settle
    # in lexicographic order; graphs here are small enough for this to be cheap
    heap: List[Tuple[float, Tuple[int, ...], int]] = [(0.0, (), start)]
    settled: Dict[int, Tuple[Tuple[int, ...], float]] = {}
    while heap:
        dist, path, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled[v] = (path, dist)
        if v == goal:
            break
        for e in arcs_at[v]:
            if allowed is not None and not allowed(e):
                continue
            w = weight(e)
            if w < 0:
                raise GraphError(f"negative weight on {graph.describe_arc(e)}")
            u = far_end[e]
            if u not in settled:
                heapq.heappush(heap, (dist + w, path + (e,), u))
    return settled


def shortest_path(graph: TwoMetricGraph, weight: Callable[[int], float],
                  start: int, goal: int,
                  allowed: Optional[Callable[[int], bool]] = None) -> Tuple[Tuple[int, ...], float]:
    """The ``shortest_paths`` entry for ``goal``; raises ``Unreachable``."""
    found = shortest_paths(graph, weight, start, goal, allowed).get(goal)
    if found is None:
        raise Unreachable(f"no path from {start} to {goal}")
    return found


def _traverse(arcs_at: List[List[int]], far_end: List[int], start: int,
              allowed: Optional[Callable[[int], bool]]) -> Set[int]:
    """``start`` and every vertex met from it over allowed arcs."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in arcs_at[v]:
            if allowed is not None and not allowed(e):
                continue
            u = far_end[e]
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def reachable_from(graph: TwoMetricGraph, start: int,
                   allowed: Optional[Callable[[int], bool]] = None) -> Set[int]:
    """Vertices reachable from ``start`` along allowed arcs (including start)."""
    return _traverse(graph.out_arcs, graph.head, start, allowed)


def reaches(graph: TwoMetricGraph, goal: int,
            allowed: Optional[Callable[[int], bool]] = None) -> Set[int]:
    """Vertices that can reach ``goal`` along allowed arcs (including goal).

    Nothing in the package calls it; the benchmark's tracer wraps it."""
    return _traverse(graph.in_arcs, graph.tail, goal, allowed)
