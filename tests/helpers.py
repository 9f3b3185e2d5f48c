"""Shared builders and small brute-force oracles for the test suite."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from bulkflow.errors import BudgetExceeded
from bulkflow.flows import (EPS_CAP, FEAS_TOL, TIE_TOL, FlowError,
                            FlowNetwork, FlowSegment, _assemble, _check_ends,
                            _Search, cheapest_flow_curve)
from bulkflow.fractional import (BALL_TOL, COVER_TOL, MAX_STEPS, MIN_DT,
                                 RATE_TOL, VAR_CAP, ArrivalOutcome,
                                 ArrivalStats, CompositeSolver, PairSpec,
                                 RootSpec, SideGraph, _Funnel, _growth_factor,
                                 _Route, _Side)
from bulkflow import harness
from bulkflow.errors import InstanceError
from bulkflow.graph import (GraphError, SolutionLedger, TerminalPair,
                            TwoMetricGraph, Unreachable, plain_sum,
                            shortest_path)
from bulkflow.junction import DEFAULT_NODE_BUDGET, JunctionForest
from bulkflow.layering import WEIGHT_CAP, LayeredGraph, _blend_weight
from bulkflow.oracle import (DEFAULT_BUDGET, VALUE_TOL, InfeasibleInstance,
                             OracleBudget, _multi_weight_dijkstra, _pick,
                             _purchase_keys, _rooted_cost)
from bulkflow.prize import VIRTUAL_ROOT_ID


def build_graph(n: int, arcs: Sequence[Tuple[int, int, float, float]],
                directed: bool = True) -> TwoMetricGraph:
    g = TwoMetricGraph(n, directed=directed)
    for u, v, c, l in arcs:
        g.add_edge(u, v, c, l)
    return g.freeze()


def random_two_metric(rng: random.Random, n: int, m: int,
                      directed: bool = True,
                      c_range=(0.1, 3.0), l_range=(0.05, 1.0),
                      ensure_cycle: bool = False) -> TwoMetricGraph:
    g = TwoMetricGraph(n, directed=directed)
    if ensure_cycle:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            g.add_edge(order[i], order[(i + 1) % n],
                       rng.uniform(*c_range), rng.uniform(*l_range))
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, rng.uniform(*c_range), rng.uniform(*l_range))
    return g.freeze()


def tie_heavy_graph(rng: random.Random, n: int, m: int,
                    directed: bool) -> TwoMetricGraph:
    """Zero lengths, repeated costs and parallel twins, so every tie-break
    shows; the values are not dyadic, so a changed sum order shows too."""
    g = TwoMetricGraph(n, directed=directed)
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v, rng.choice([0.0, 0.1, 0.7, 0.7, 1.3]),
                   rng.choice([0.0, 0.3, 0.3, 0.1]))
        if rng.random() < 0.25:
            g.add_edge(u, v, 0.7, rng.choice([0.0, 0.3]))
    return g.freeze()


def enumerate_simple_paths(adjacency: Dict[int, List[Tuple[int, float]]],
                           start: int, goal: int) -> List[Tuple[List[int], float]]:
    """All simple paths with their weights (vertex-weight style callers
    fold weights into adjacency)."""
    results: List[Tuple[List[int], float]] = []

    def walk(v: int, seen: Set[int], cost: float, trail: List[int]) -> None:
        if v == goal:
            results.append((list(trail), cost))
            return
        for u, w in adjacency.get(v, ()):
            if u not in seen:
                seen.add(u)
                trail.append(u)
                walk(u, seen, cost + w, trail)
                trail.pop()
                seen.remove(u)

    walk(start, {start}, 0.0, [start])
    return results


def brute_min_node_cost_path(n: int, node_c: Sequence[float],
                             edges: Sequence[Tuple[int, int]], start: int,
                             goal: int, directed: bool = False) -> Optional[float]:
    """Cheapest start->goal route paying every intermediate node's cost.

    Endpoint convention matches the node-splitting mapping: the start pays
    nothing (terminal enters at its outgoing side), the goal pays nothing.
    """
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append((v, 0.0))
        if not directed:
            adjacency.setdefault(v, []).append((u, 0.0))
    best = None
    for trail, _ in enumerate_simple_paths(adjacency, start, goal):
        cost = sum(node_c[v] for v in trail[1:-1])
        if best is None or cost < best:
            best = cost
    return best


# ----------------------------------------------------------------------
# Reference oracles: the plain exhaustive searches the pruned ones in
# ``bulkflow.oracle`` must match bit for bit (same floats, same ledgers).

def _reference_route(graph: TwoMetricGraph, chosen: Set[int], s: int,
                     t: int) -> Optional[Tuple[Tuple[int, ...], float]]:
    allowed = lambda e: graph.purchase_key(e) in chosen
    try:
        return shortest_path(graph, graph.l, s, t, allowed=allowed)
    except Unreachable:
        return None


def reference_offline_opt(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
                          budget: OracleBudget = DEFAULT_BUDGET) -> Tuple[float, SolutionLedger]:
    """Subset search that evaluates every leaf the buy-cost prune reaches."""
    keys = _purchase_keys(graph)
    if len(keys) > budget.max_edges:
        raise BudgetExceeded(
            f"{len(keys)} purchases exceed the subset budget {budget.max_edges}",
            required=len(keys))
    pairs = [p for p in pairs if p.s != p.t]
    if not pairs:
        return 0.0, SolutionLedger()

    full = set(keys)
    for p in pairs:
        if _reference_route(graph, full, p.s, p.t) is None:
            raise InfeasibleInstance(f"pair {p.index} ({p.s}->{p.t}) is unreachable")

    def evaluate(chosen: Set[int]) -> Optional[Tuple[float, SolutionLedger]]:
        ledger = SolutionLedger()
        for p in pairs:
            routed = _reference_route(graph, chosen, p.s, p.t)
            if routed is None:
                return None
            ledger.add_path(graph, p.index, routed[0])
        return ledger.total, ledger

    best_value, best_ledger = evaluate(full)  # feasible seed bound
    order = sorted(keys, key=lambda key: (-graph.c[key], key))

    def search(i: int, chosen: Set[int], buy_acc: float) -> None:
        nonlocal best_value, best_ledger
        if buy_acc >= best_value - VALUE_TOL:
            return
        if i == len(order):
            result = evaluate(chosen)
            if result is not None and result[0] < best_value - VALUE_TOL:
                best_value, best_ledger = result
            return
        key = order[i]
        search(i + 1, chosen, buy_acc)  # exclude first: cheap subsets early
        chosen.add(key)
        search(i + 1, chosen, buy_acc + graph.c[key])
        chosen.discard(key)

    search(0, set(), 0.0)
    return best_value, best_ledger


def reference_ss_offline_opt(graph: TwoMetricGraph, terminals: Sequence[int],
                             root: int, direction: str = "sink",
                             budget: OracleBudget = DEFAULT_BUDGET) -> float:
    """Terminal-subset DP with one private table per call."""
    if direction == "source":
        return reference_ss_offline_opt(graph.reversed_view(), terminals,
                                        root, "sink", budget)
    if direction != "sink":
        raise GraphError(f"unknown direction {direction!r}")
    terms = sorted(t for t in terminals if t != root)
    if not terms:
        return 0.0
    if len(terms) > budget.max_ss_terminals:
        raise BudgetExceeded(
            f"{len(terms)} terminals exceed the DP budget {budget.max_ss_terminals}",
            required=len(terms))
    k = len(terms)
    full = (1 << k) - 1
    D: List[Optional[List[float]]] = [None] * (full + 1)
    for i, t in enumerate(terms):
        D[1 << i] = _multi_weight_dijkstra(graph, {t: 0.0}, load=1)
    for S in range(1, full + 1):
        if D[S] is not None:
            continue
        load = bin(S).count("1")
        merged = [math.inf] * graph.n
        sub = (S - 1) & S
        while sub:
            comp = S ^ sub
            if sub < comp:  # each split once
                a, b = D[sub], D[comp]
                for v in range(graph.n):
                    cand = a[v] + b[v]
                    if cand < merged[v]:
                        merged[v] = cand
            sub = (sub - 1) & S
        seeds = {v: merged[v] for v in range(graph.n) if math.isfinite(merged[v])}
        D[S] = _multi_weight_dijkstra(graph, seeds, load=load)
    value = D[full][root]
    if not math.isfinite(value):
        raise InfeasibleInstance("some terminal cannot reach the root")
    return value


def reference_junction_opt(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
                           budget: OracleBudget = DEFAULT_BUDGET,
                           roots: Optional[Sequence[int]] = None) -> float:
    """Every pair-to-root assignment in ``itertools.product`` order."""
    pairs = [p for p in pairs if p.s != p.t]
    if not pairs:
        return 0.0
    if len(pairs) > budget.max_pairs:
        raise BudgetExceeded(
            f"{len(pairs)} pairs exceed the junction budget {budget.max_pairs}",
            required=len(pairs))
    root_list = list(roots) if roots is not None else list(range(graph.n))
    if roots is None and graph.n > budget.max_vertices:
        raise BudgetExceeded(
            f"{graph.n} vertices exceed the junction budget {budget.max_vertices}",
            required=graph.n)

    cache: Dict[Tuple[int, str, Tuple[int, ...]], float] = {}

    def rooted_cost(r: int, terminals: Tuple[int, ...], direction: str) -> float:
        key = (r, direction, terminals)
        if key not in cache:
            try:
                cache[key] = reference_ss_offline_opt(graph, terminals, r,
                                                      direction, budget)
            except InfeasibleInstance:
                cache[key] = math.inf
        return cache[key]

    best = math.inf
    for assignment in itertools.product(root_list, repeat=len(pairs)):
        by_root: Dict[int, Tuple[List[int], List[int]]] = {}
        for p, r in zip(pairs, assignment):
            srcs, snks = by_root.setdefault(r, ([], []))
            srcs.append(p.s)
            snks.append(p.t)
        total = 0.0
        for r, (srcs, snks) in by_root.items():
            total += rooted_cost(r, tuple(sorted(srcs)), "sink")
            if total >= best:
                break
            total += rooted_cost(r, tuple(sorted(snks)), "source")
            if total >= best:
                break
        best = min(best, total)
    if not math.isfinite(best):
        raise InfeasibleInstance("no junction assignment connects every pair")
    return best


def reference_block_junction_opt(graph: TwoMetricGraph,
                                 pairs: Sequence[TerminalPair],
                                 budget: OracleBudget = DEFAULT_BUDGET
                                 ) -> float:
    """The block search of ``junction_opt`` over pair tuples, with a rooted
    cost per (root, direction, sorted multiset) cached as it is met: blocks
    in the order of their lowest pair, each on its own root, and a pair
    with a penalty may be dropped at its ``q`` first."""
    pairs = [p for p in pairs if p.s != p.t]
    if not pairs:
        return 0.0
    if len(pairs) > budget.max_pairs:
        raise BudgetExceeded(
            f"{len(pairs)} pairs exceed the junction budget {budget.max_pairs}",
            required=len(pairs))
    if graph.n > budget.max_vertices:
        raise BudgetExceeded(
            f"{graph.n} vertices exceed the junction budget {budget.max_vertices}",
            required=graph.n)
    width = max((max(sum(p.s != r for p in pairs), sum(p.t != r for p in pairs))
                 for r in range(graph.n)), default=0)
    if width > budget.max_ss_terminals:
        raise BudgetExceeded(
            f"{width} terminals exceed the DP budget {budget.max_ss_terminals}",
            required=width)

    sides = {"sink": (graph, {}), "source": (graph.reversed_view(), {})}
    cache: Dict[Tuple[int, str, Tuple[int, ...]], float] = {}

    def rooted_cost(r: int, terminals: Tuple[int, ...], direction: str) -> float:
        key = (r, direction, terminals)
        if key not in cache:
            side_graph, tables = sides[direction]
            try:
                cache[key] = _rooted_cost(side_graph, terminals, r, budget,
                                          tables)
            except InfeasibleInstance:
                cache[key] = math.inf
        return cache[key]

    best = math.inf
    used: Set[int] = set()

    def place(left: Tuple[int, ...], partial: float) -> None:
        nonlocal best
        if not left:
            best = min(best, partial)
            return
        rest = left[1:]
        penalty = pairs[left[0]].penalty
        if penalty is not None and partial + penalty < best:
            place(rest, partial + penalty)
        full = (1 << len(rest)) - 1
        for mask in range(full, -1, -1):
            block = (left[0],) + _pick(rest, mask)
            others = _pick(rest, full ^ mask)
            srcs = tuple(sorted(pairs[i].s for i in block))
            snks = tuple(sorted(pairs[i].t for i in block))
            for r in range(graph.n):
                if r in used:
                    continue
                total = partial + rooted_cost(r, srcs, "sink")
                if total >= best:
                    continue
                total += rooted_cost(r, snks, "source")
                if total >= best:
                    continue
                used.add(r)
                place(others, total)
                used.discard(r)

    place(tuple(range(len(pairs))), 0.0)
    if not math.isfinite(best):
        raise InfeasibleInstance("no junction assignment connects every pair")
    return best


def reference_offline_opt_prize(graph: TwoMetricGraph,
                                pairs: Sequence[TerminalPair]) -> float:
    """Every drop mask over all pairs, skipping those that drop a pair with
    no penalty, with no drop budget, each routed by the unpruned subset
    search."""
    best = math.inf
    for mask in range(1 << len(pairs)):
        dropped = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if any(p.penalty is None for p in dropped):
            continue
        kept = [p for i, p in enumerate(pairs) if not mask >> i & 1]
        penalty = plain_sum(p.penalty for p in dropped)
        if penalty >= best:
            continue
        try:
            value, _ = reference_offline_opt(graph, kept)
        except InfeasibleInstance:
            continue
        best = min(best, penalty + value)
    if not math.isfinite(best):
        raise InfeasibleInstance("no feasible drop/route split")
    return best


# ----------------------------------------------------------------------
# Reference prize augmentation: each side copied arc by arc with
# ``add_arc``, as ``augment`` did before it assembled sides with ``from_arcs``.

def reference_augment(sides: Sequence[SideGraph], pairs: Sequence[PairSpec]
                      ) -> Tuple[Tuple[SideGraph, ...], RootSpec]:
    """``prize.augment`` on mutable copies of the sides: every side arc,
    then each penalized pair's discard arc."""
    graphs = []
    for side in sides:
        g = TwoMetricGraph(side.graph.n + 1, directed=side.graph.directed)
        for e in range(side.graph.m):
            g.add_arc(side.graph.tail[e], side.graph.head[e], side.graph.c[e],
                      side.graph.l[e])
        g.twin = list(side.graph.twin)
        graphs.append(g)
    virtual = RootSpec(VIRTUAL_ROOT_ID, *(graph.n - 1 for graph in graphs),
                       virtual=True)
    owners: Tuple[Dict[int, int], ...] = tuple({} for _ in sides)
    for pair in pairs:
        if pair.penalty is None:
            continue
        if pair.penalty < 0:
            raise GraphError(f"pair {pair.index}: negative penalty")
        for side, graph, owner in zip(sides, graphs, owners):
            e = graph.add_arc(*side.ends(pair, virtual), 0.0,
                              pair.penalty / 2.0)
            owner[e] = pair.index
    augmented = tuple(SideGraph(graph.freeze(), side.upward, owner)
                      for side, graph, owner in zip(sides, graphs, owners))
    return augmented, virtual


# Composite solver state, read out of its routes for comparison.

def z_values(solver):
    """Every route's ``z``, keyed by (pair, root id)."""
    return {(pi, rid): route.z for pi, routes in solver.routes.items()
            for rid, route in routes.items()}


def side_funnels(solver):
    """(side, funnel) of every route, pairs as registered, roots in order."""
    return [(side, funnel) for routes in solver.routes.values()
            for route in routes.values()
            for side, funnel in zip(solver.sides, route.funnels)]


def assert_forest_routes_cross_their_root(pipeline) -> int:
    """Each assigned pair of a directed run: its up forest path ends at its
    root's up tuple, its down path starts at the root's down tuple, and the
    two joined by the root's link cross exactly one root link. Returns how
    many pairs were checked."""
    forest = pipeline.forest
    graph = forest.graph
    checked = 0
    for record in pipeline.records:
        if record.outcome != "assigned":
            continue
        up_path, down_path = (side.single_sinks[record.root].ledger
                              .paths[record.pair] for side in pipeline.sides)
        assert graph.head[up_path[-1]] == forest.up_root[record.root]
        assert graph.tail[down_path[0]] == forest.down_root[record.root]
        link = forest.root_link_arc[record.root]
        assert sum(map(forest.is_root_link,
                       up_path + (link,) + down_path)) == 1
        checked += 1
    return checked


# Reference distance ball: the funnel definition evaluated on all-pairs
# distances from Floyd-Warshall, with none of the solver's searches.

def _all_pairs_distances(graph: TwoMetricGraph, arcs: Sequence[int],
                         weight: Sequence[float]) -> List[List[float]]:
    """``d[u][v]``: least total ``weight`` of a walk from u to v over
    ``arcs``, ``inf`` when v is out of reach."""
    n = graph.n
    d = [[0.0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for e in arcs:
        u, v = graph.tail[e], graph.head[e]
        d[u][v] = min(d[u][v], weight[e])
    for k, i, j in itertools.product(range(n), repeat=3):
        if d[i][k] + d[k][j] < d[i][j]:
            d[i][j] = d[i][k] + d[k][j]
    return d


def reference_ball(solver, pair: PairSpec) -> Dict[int, Tuple[List[int], ...]]:
    """Eligible root id -> each side's funnel arcs in id order, in ``roots``
    order: a root is eligible when ``d(s, r_up) + d(r_down, t)`` in rescaled
    ``c + l`` over the arcs the pair's owner rule admits is at most
    ``1 + BALL_TOL``, and such an arc stays when the cheapest route through
    it and the root is."""
    limit = 1.0 + BALL_TOL
    usable, dist = [], []
    for side in solver.sides:
        allowed = side.side_graph.allowed(pair.index)
        arcs = [e for e in range(side.graph.m)
                if allowed is None or allowed(e)]
        weight = [c + l for c, l in zip(side.c, side.l)]
        usable.append((arcs, weight))
        dist.append(_all_pairs_distances(side.graph, arcs, weight))
    (up_arcs, up_w), (down_arcs, down_w) = usable
    up, down = solver.up.graph, solver.down.graph
    du, dd = dist
    s, t = pair.up_source, pair.down_sink
    ball = {}
    for root in solver.roots:
        ru, rd = root.up_vertex, root.down_vertex
        if not du[s][ru] + dd[rd][t] <= limit:
            continue
        ball[root.root_id] = (
            [e for e in up_arcs if du[s][up.tail[e]] + up_w[e]
             + du[up.head[e]][ru] + dd[rd][t] <= limit],
            [e for e in down_arcs if dd[rd][down.tail[e]] + down_w[e]
             + dd[down.head[e]][t] + du[s][ru] <= limit])
    return ball


def reference_reaches_a_root(solver, pair: PairSpec) -> bool:
    """Whether some root is reachable on both sides over the arcs the
    pair's owner rule admits, at any guess: from ``s`` to ``r_up`` and
    from ``r_down`` to ``t``."""
    dist = []
    for side in solver.sides:
        allowed = side.side_graph.allowed(pair.index)
        arcs = [e for e in range(side.graph.m)
                if allowed is None or allowed(e)]
        dist.append(_all_pairs_distances(side.graph, arcs,
                                         [1.0] * side.graph.m))
    du, dd = dist
    return any(du[pair.up_source][root.up_vertex] < math.inf
               and dd[root.down_vertex][pair.down_sink] < math.inf
               for root in solver.roots)


# Reference step capacities: every arc of a funnel recomputed from scratch,
# as each growth step did before funnels kept their step state.

def reference_step_capacities(side, rid: int, funnel, tight: Set[int],
                              dt: float) -> List[float]:
    """The rate capacities of one funnel's network for a step of ``dt``;
    ``funnel`` is the side's funnel of the route through root ``rid``."""
    x, c = side.x[rid], side.c
    flows = funnel.flow
    capacity = []
    for e in funnel.arcs:
        grow = _growth_factor(c[e], dt)
        if grow == math.inf:
            capacity.append(math.inf)
        else:
            room = 0.0 if e in tight else max(0.0, x[e] - flows.get(e, 0.0))
            capacity.append((room + x[e] * (grow - 1.0)) / dt)
    return capacity


# ----------------------------------------------------------------------
# Reference search: ``graph.shortest_paths`` as it was before it skipped
# dominated labels and took its weights as a list (renamed, otherwise
# verbatim): a callable weight, and every relaxation pushed.

def reference_shortest_paths(graph: TwoMetricGraph,
                             weight: Callable[[int], float], start: int,
                             goal: Optional[int] = None,
                             allowed: Optional[Callable[[int], bool]] = None,
                             backward: bool = False
                             ) -> Dict[int, Tuple[Tuple[int, ...], float]]:
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


# ----------------------------------------------------------------------
# Reference joint solve: cheapest_flow_curve, _assemble and max_delta as
# they were before the solve walked each augmenting path once (renamed,
# otherwise verbatim), to compare the fused solve with bit for bit.

def reference_build_layered(base: TwoMetricGraph, k: int, h: int,
                            direction: str = "up") -> LayeredGraph:
    """The layered builder as it was before the pair builder mirrored the
    down expansion of undirected bases: one search per vertex and level in
    each direction, the blended weight evaluated per relaxation, lengths
    summed per path and arcs added one by one.

    One search per vertex ``u`` and level: from ``u`` up, into ``u`` (against
    the arcs) down. The backward search walks ``in_arcs`` in id order, as a
    search on ``base.reversed_view()`` walks ``out_arcs``, so down gets the
    reversed graph's up arcs, flipped, in the same order and the same bits.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    if k < 1:
        raise GraphError("pair count must be >= 1")
    if direction not in ("up", "down"):
        raise GraphError(f"unknown direction {direction!r}")
    down = direction == "down"
    n = base.n
    layered = TwoMetricGraph((h + 1) * n, directed=True)
    back: List[Tuple[int, ...]] = []
    for level in range(h, 0, -1):
        factor = float(k) ** (1.0 - level / h)
        weight = lambda e, f=factor: _blend_weight(base.c[e], base.l[e], f)
        for u in range(n):
            # one Dijkstra per (vertex, level); paths reused for every far end v
            found = reference_shortest_paths(base, weight, u,
                                             backward=down)
            for v, (path, cost) in sorted(found.items()):
                length = plain_sum(base.l[e] for e in path)
                ends = (level * n + u, (level - 1) * n + v)
                if down:  # path runs v -> u, listed from u's end
                    ends, path = ends[::-1], path[::-1]
                le = layered.add_arc(*ends, min(cost, WEIGHT_CAP), length)
                if le != len(back):
                    raise GraphError(f"layer arc {le} out of step with back paths")
                back.append(path)
    return LayeredGraph(direction, h, k, base, layered.freeze(), back)


def _reference_tuple_count(n: int, h: int) -> int:
    total = 0
    power = 1
    for _ in range(h + 1):
        total += power
        power *= n
    return total


def reference_build_junction_forest(base: TwoMetricGraph, k: int, h: int,
                          sources: Sequence[int], sinks: Sequence[int],
                          node_budget: int = DEFAULT_NODE_BUDGET) -> JunctionForest:
    """The forest builder as it was before each side shared one code path.

    Refuses instances whose tuple-vertex count would exceed ``node_budget``
    (the count is reported in the error). Terminal hookup arcs are added for
    the given source and sink vertices only.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    n = base.n
    required = 2 * n * _reference_tuple_count(n, h)
    if required > node_budget:
        raise BudgetExceeded(
            f"tuple-tree forest needs {required} vertices, over the budget "
            f"{node_budget}", required=required)
    up_layer = reference_build_layered(base, k, h, "up")
    down_layer = reference_build_layered(base, k, h, "down")

    # layered adjacency indexed by (tail base vertex @ level, head base vertex)
    up_edge_at: Dict[Tuple[int, int, int], int] = {}
    for e in range(up_layer.graph.m):
        t, hd = up_layer.graph.tail[e], up_layer.graph.head[e]
        up_edge_at[(up_layer.base_vertex(t), up_layer.level_of(t),
                    up_layer.base_vertex(hd))] = e
    down_edge_at: Dict[Tuple[int, int, int], int] = {}
    for e in range(down_layer.graph.m):
        t, hd = down_layer.graph.tail[e], down_layer.graph.head[e]
        down_edge_at[(down_layer.base_vertex(t), down_layer.level_of(t),
                      down_layer.base_vertex(hd))] = e

    ids: Dict[Tuple[str, int, Tuple[int, ...]], int] = {}
    tuple_of: Dict[int, Tuple[str, int, Tuple[int, ...]]] = {}
    counter = itertools.count()

    def vertex_id(side: str, root: int, tup: Tuple[int, ...]) -> int:
        key = (side, root, tup)
        if key not in ids:
            ids[key] = next(counter)
            tuple_of[ids[key]] = key
        return ids[key]

    # enumerate all tuple vertices for both sides
    for side in ("up", "down"):
        for r in range(n):
            level_tuples: List[List[Tuple[int, ...]]] = [[()]]
            for i in range(1, h + 1):
                level_tuples.append([tup + (v,) for tup in level_tuples[i - 1]
                                     for v in range(n)])
            for tups in level_tuples:
                for tup in tups:
                    vertex_id(side, r, tup)
    src_ids = {v: next(counter) for v in sorted(set(sources))}
    snk_ids = {v: next(counter) for v in sorted(set(sinks))}
    total_vertices = next(counter)

    g = TwoMetricGraph(total_vertices, directed=True)
    layered_edge: List[Optional[Tuple[str, int]]] = []

    def add(tail: int, head: int, c: float, l: float,
            inherit: Optional[Tuple[str, int]]) -> int:
        a = g.add_arc(tail, head, c, l)
        if a != len(layered_edge):
            raise GraphError(f"forest arc {a} out of step with its provenance")
        layered_edge.append(inherit)
        return a

    up_root = {r: vertex_id("up", r, ()) for r in range(n)}
    down_root = {r: vertex_id("down", r, ()) for r in range(n)}

    for (side, r, tup), vid in ids.items():
        i = len(tup)
        if i == 0 or i > h:
            continue
        parent = ids[(side, r, tup[:-1])]
        last_parent = tup[-2] if i >= 2 else r
        child_v = tup[-1]
        if side == "up":
            le = up_edge_at.get((child_v, i, last_parent))
            if le is not None:
                add(vid, parent, up_layer.graph.c[le], up_layer.graph.l[le],
                    ("up", le))
        else:
            le = down_edge_at.get((last_parent, i - 1, child_v))
            if le is not None:
                add(parent, vid, down_layer.graph.c[le], down_layer.graph.l[le],
                    ("down", le))

    root_link_arc = {}
    for r in range(n):
        root_link_arc[r] = add(up_root[r], down_root[r], 0.0, 0.0, None)

    for v, sid in src_ids.items():
        for (side, r, tup), vid in ids.items():
            if side == "up" and len(tup) == h and tup[-1] == v:
                add(sid, vid, 0.0, 0.0, None)
    for v, tid in snk_ids.items():
        for (side, r, tup), vid in ids.items():
            if side == "down" and len(tup) == h and tup[-1] == v:
                add(vid, tid, 0.0, 0.0, None)

    forest = JunctionForest(base=base, up_layer=up_layer, down_layer=down_layer,
                            h=h, graph=g.freeze(), layered_edge=layered_edge,
                            up_root=up_root, down_root=down_root,
                            source_vertex=src_ids, sink_vertex=snk_ids,
                            tuple_of=tuple_of, root_link_arc=root_link_arc)
    return forest


# ----------------------------------------------------------------------
# The group Steiner view of the junction forest: its single-sink
# sub-instances as group Steiner instances on trees, the bijection the
# analysis of the directed reduction rests on.

@dataclass
class GroupSteinerInstance:
    """Rooted tree with arc weights and leaf groups to be connected.

    ``parent_arc[v]`` gives (parent vertex, weight) for every non-root
    vertex; groups map a group id to its member vertices.
    """

    root: int
    parent_arc: Dict[int, Tuple[int, float]]
    groups: Dict[int, Tuple[int, ...]]

    def root_path(self, v: int) -> List[Tuple[int, int, float]]:
        """Arcs (child, parent, weight) from v up to the root."""
        path = []
        while v != self.root:
            parent, w = self.parent_arc[v]
            path.append((v, parent, w))
            v = parent
        return path


@dataclass
class GstSubInstance:
    """A single-sink sub-instance of the forest viewed as group Steiner.

    Internal vertices are forest vertex ids; dangling vertices get fresh ids
    past the forest's. ``dangling[d] = (terminal index, leaf vertex, hookup
    arc)`` identifies what each dangling arc stands for.
    """

    forest: JunctionForest
    side: str
    instance: GroupSteinerInstance
    dangling: Dict[int, Tuple[int, int, int]]
    tree_arc_id: Dict[Tuple[int, int], int]
    infeasible_terminals: Tuple[int, ...]

    def solution_weight(self, connections: Dict[int, int]) -> float:
        """Weight of the canonical solution connecting the chosen members."""
        arcs: Set[Tuple[int, int]] = set()
        total = 0.0
        for member in connections.values():
            for child, parent, w in self.instance.root_path(member):
                if (child, parent) not in arcs:
                    arcs.add((child, parent))
                    total += w
        return total

    def to_forest_ledger(self, connections: Dict[int, int]) -> SolutionLedger:
        """Forest-graph ledger of a group Steiner solution (equal objective)."""
        ledger = SolutionLedger()
        for gid, member in connections.items():
            hookup = self.dangling[member][2]
            # hookup, then the tree arcs from the leaf to the junction: forest
            # order on the up side, reversed on the down side
            path = [hookup] + [self.tree_arc_id[(child, parent)]
                               for child, parent, _w
                               in self.instance.root_path(member)[1:]]
            if self.side == "down":
                path.reverse()
            ledger.add_path(self.forest.graph, gid, tuple(path))
        return ledger


def map_to_gst(forest: JunctionForest, side: str, root: int,
               terminals: Sequence[int],
               junction: Optional[int] = None) -> GstSubInstance:
    """View the subtree under a junction vertex (the root's tuple by
    default) as a group Steiner instance.

    Internal arcs keep their buy cost; each terminal hookup at leaf ``u``
    becomes a dangling arc weighing the tree path's total length, because a
    terminal routed through ``u`` pays exactly that length. Terminal i's
    group collects its dangling vertices; an empty group marks the terminal
    infeasible for this sub-instance.
    """
    g = forest.graph
    # child arcs enter a tuple on the up side and leave it on the down side;
    # hookups run terminal -> leaf up and leaf -> terminal down
    if side == "up":
        roots, terminal_vertex = forest.up_root, forest.source_vertex
        child_arcs, child_end = g.in_arcs, g.tail
        hook_arcs, leaf_end = g.out_arcs, g.head
    else:
        roots, terminal_vertex = forest.down_root, forest.sink_vertex
        child_arcs, child_end = g.out_arcs, g.head
        hook_arcs, leaf_end = g.in_arcs, g.tail
    junction = roots[root] if junction is None else junction

    parent_arc: Dict[int, Tuple[int, float]] = {}
    tree_arc_id: Dict[Tuple[int, int], int] = {}
    path_length: Dict[int, float] = {junction: 0.0}
    leaves: Set[int] = set()

    # walk the subtree; below a non-leaf tuple every child arc is a tree arc
    stack = [junction]
    while stack:
        v = stack.pop()
        if len(forest.tuple_of[v][2]) == forest.h:
            leaves.add(v)
            continue
        for a in child_arcs[v]:
            child = child_end[a]
            parent_arc[child] = (v, g.c[a])
            tree_arc_id[(child, v)] = a
            path_length[child] = path_length[v] + g.l[a]
            stack.append(child)

    next_id = itertools.count(g.n)
    dangling: Dict[int, Tuple[int, int, int]] = {}
    groups: Dict[int, List[int]] = {}
    for ti, term in enumerate(terminals):
        members = groups[ti] = []
        tvert = terminal_vertex.get(term)
        for a in hook_arcs[tvert] if tvert is not None else ():
            leaf = leaf_end[a]
            if leaf in leaves:
                d = next(next_id)
                dangling[d] = (ti, leaf, a)
                parent_arc[d] = (leaf, path_length[leaf])
                members.append(d)

    infeasible = tuple(t for t, members in groups.items() if not members)
    instance = GroupSteinerInstance(
        root=junction, parent_arc=parent_arc,
        groups={gid: tuple(members) for gid, members in groups.items()})
    return GstSubInstance(forest=forest, side=side, instance=instance,
                          dangling=dangling, tree_arc_id=tree_arc_id,
                          infeasible_terminals=infeasible)


# ----------------------------------------------------------------------
# Flows from the curve, for the checks against an LP solver: the value the
# curve reaches, the cheapest flow of a given value, and a feasibility check.

def curve_value(net: FlowNetwork, source: int, sink: int,
                **caps: float) -> float:
    """The value ``cheapest_flow_curve`` reaches under these caps, the plain
    sum of its amounts: without caps, the maximum flow."""
    return plain_sum(seg.amount
                     for seg in cheapest_flow_curve(net, source, sink, **caps))


def min_cost_flow(net: FlowNetwork, source: int, sink: int,
                  value: float) -> Tuple[Dict[int, float], float]:
    """The cheapest flow of ``value`` (less if the curve stops short),
    keyed by arc label, and its cost: ``cost * flow`` summed over the flow
    dict in its order."""
    flow = _assemble(cheapest_flow_curve(net, source, sink, value_cap=value),
                     value)
    cost = dict(zip(net.labels, net.cost))
    total = 0.0
    for a, f in flow.items():
        total += cost[a] * f
    return flow, total


def check_flow(net: FlowNetwork, flow: Dict[int, float], source: int,
               sink: int, value: float, tol: float = FEAS_TOL) -> None:
    """Raise ``FlowError`` unless ``flow``, keyed by arc label, keeps every
    arc within ``[0, capacity]`` and conserves ``value`` from source to
    sink."""
    balance = [0.0] * net.n
    arc = dict(zip(net.labels, range(net.m)))
    for label, f in flow.items():
        a = arc[label]
        if f < -tol or f > net.capacity[a] + tol:
            raise FlowError(f"arc {a} flow {f} outside [0, {net.capacity[a]}]")
        balance[net.tail[a]] -= f
        balance[net.head[a]] += f
    for v in range(net.n):
        expected = -value if v == source else value if v == sink else 0.0
        if abs(balance[v] - expected) > tol:
            raise FlowError(f"node {v} violates conservation by "
                            f"{balance[v] - expected}")


class ReferenceTopology:
    """The full-id residual search that ``flows`` numbered every network
    by before each network numbered only the nodes its arcs touch.

    Slot ``2a`` is arc ``a`` forward, slot ``2a+1`` its reverse, with cost
    ``-cost[a]``; ``adj[v]`` lists the forward slots of v's out-arcs, then
    the reverse slots of its in-arcs, each in arc order, for every id ``v``
    of ``0..n-1``. ``nodes`` lists the vertices that have a slot; a search
    leaves the potential of every other vertex at zero."""

    def __init__(self, net: FlowNetwork):
        m = net.m
        self.n = net.n
        self.head: List[int] = [0] * (2 * m)
        self.head[0::2] = net.head
        self.head[1::2] = net.tail
        self.cost: List[float] = [0.0] * (2 * m)
        self.cost[0::2] = net.cost
        self.cost[1::2] = [-c for c in net.cost]
        self.adj: List[List[int]] = [[] for _ in range(net.n)]
        for a, v in enumerate(net.tail):
            self.adj[v].append(2 * a)
        for a, v in enumerate(net.head):
            self.adj[v].append(2 * a + 1)
        self.nodes: List[int] = [v for v, slots in enumerate(self.adj) if slots]

    def shortest_path(self, res: List[float], potential: List[float],
                      source: int,
                      sink: int) -> Optional[Tuple[List[int], float]]:
        """Dijkstra on reduced costs over the slots with ``res > EPS_CAP``;
        returns (slot path, true unit cost) and adds each reached vertex's
        distance to its ``potential``."""
        head, cost, adj = self.head, self.cost, self.adj
        heappop, heappush = heapq.heappop, heapq.heappush
        inf, tie = math.inf, TIE_TOL
        dist = [inf] * self.n
        prev_slot = [-1] * self.n
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


def reference_curve(net: FlowNetwork, source: int, sink: int,
                    value_cap: float = math.inf,
                    cost_cap: float = math.inf) -> List[FlowSegment]:
    """Cheapest-flow segments in order of increasing unit cost.

    Augments until the flow value reaches ``value_cap``, the cumulative cost
    reaches ``cost_cap``, or the sink becomes unreachable. Searches whose
    state matches the network's previous solve are replayed from its trail
    (see the ``bulkflow.flows`` docstring).
    """
    if source == sink:
        raise FlowError("source equals sink")
    topology = ReferenceTopology(net)
    nodes = topology.nodes
    res = [0.0] * (2 * net.m)
    res[0::2] = net.capacity
    potential = [0.0] * net.n
    previous = net._trail
    trail: list = []
    key: tuple = (source, sink, net.closed_arcs())
    segments: List[FlowSegment] = []
    total_value = 0.0
    total_cost = 0.0
    while total_value < value_cap - EPS_CAP and total_cost < cost_cap - EPS_CAP:
        i = len(trail)
        if i < len(previous) and previous[i][0] == key:
            search = previous[i]
        else:
            if previous and trail:  # resume from the last replayed search
                for v, pot in zip(nodes, trail[-1][4]):
                    potential[v] = pot
            previous = []
            found = topology.shortest_path(res, potential, source, sink)
            if found is None:
                search = (key, None, 0.0, (), array("d"))
            else:
                live_path, live_cost = found
                search = (key, live_path, live_cost,
                          tuple([(s >> 1, 1 if s % 2 == 0 else -1)
                                 for s in live_path]),
                          array("d", [potential[v] for v in nodes]))
        trail.append(search)
        _, path, unit_cost, steps, _ = search
        if path is None:
            break
        # "if b < a: a = b" is min(a, b) without the call; ties keep a
        amount = min([res[s] for s in path])
        rest = value_cap - total_value
        if rest < amount:
            amount = rest
        if unit_cost > FEAS_TOL:
            rest = (cost_cap - total_cost) / unit_cost
            if rest < amount:
                amount = rest
        if not math.isfinite(amount):
            raise FlowError("flow value is unbounded; pass a finite value_cap")
        if amount <= EPS_CAP:
            break
        for s in path:
            res[s] -= amount
            res[s ^ 1] += amount
        key = tuple([s for s in path if res[s] <= EPS_CAP])
        segments.append(FlowSegment(amount, unit_cost, steps))
        total_value += amount
        total_cost += unit_cost * amount
    net._trail = trail
    return segments


def reference_assemble(segments: List[FlowSegment],
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


@dataclass(slots=True)
class SideFlow:
    """One side's flow, keyed by arc label, and its cost."""

    flow: Dict[int, float]
    total_cost: float


@dataclass(slots=True)
class MaxDeltaResult:
    """What the reference joint solves return: ``delta`` and both sides'
    flows with their cost."""

    delta: float
    up: SideFlow
    down: SideFlow


def reference_max_delta(up_net: FlowNetwork, up_source: int, up_sink: int,
                        down_net: FlowNetwork, down_source: int,
                        down_sink: int, budget: float) -> MaxDeltaResult:
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
        segments = reference_curve(net, s, t, value_cap=1.0, cost_cap=budget)
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
    up_flow, up_cost = reference_assemble(sides[0], delta)
    down_flow, down_cost = reference_assemble(sides[1], delta)
    return MaxDeltaResult(delta, SideFlow(up_flow, up_cost),
                          SideFlow(down_flow, down_cost))


# ----------------------------------------------------------------------
# Reference growth step: the solver's step, its arrival loop and the flow
# calls they made before each root side took one checked pass per step,
# with flows keyed by network arc and rebuilt by edge id (renamed,
# otherwise verbatim). ``ReferenceStepSolver`` runs them on its own state.

def reference_step_update_capacities(net: FlowNetwork,
                                     changes: Sequence[Tuple[int, float]]
                                     ) -> None:
    """Set the capacity of each ``(arc, capacity)`` in ``changes``; the
    other arcs keep theirs. A refused update changes nothing."""
    m = len(net.tail)
    for a, cap in changes:
        if not 0 <= a < m:
            raise FlowError(f"arc {a} out of range")
        if not cap >= 0:
            raise FlowError(f"capacity {cap} is negative or NaN")
    capacity, closed = net.capacity, net._closed
    for a, cap in changes:
        if closed is not None and (capacity[a] <= EPS_CAP) != (cap <= EPS_CAP):
            closed = None
        capacity[a] = float(cap)
    net._closed = closed


def reference_step_curve(net: FlowNetwork, source: int, sink: int,
                         value_cap: float = math.inf,
                         cost_cap: float = math.inf) -> List[FlowSegment]:
    """Cheapest-flow segments in order of increasing unit cost.

    Augments until the flow value reaches ``value_cap``, the cumulative cost
    reaches ``cost_cap``, or the sink becomes unreachable. Searches whose
    state matches the network's previous solve are replayed from its trail
    (see the ``bulkflow.flows`` docstring).
    """
    _check_ends(net, source, sink)
    if source == sink:
        raise FlowError("source equals sink")
    if not (value_cap >= 0 and cost_cap >= 0):
        raise FlowError(f"value cap {value_cap} or cost cap {cost_cap} is "
                        f"negative or NaN")
    inf, isfinite = math.inf, math.isfinite
    # the ends as search nodes; None if an end touches no arc
    start, end = net._number.get(source), net._number.get(sink)
    res: List[float] = [0.0] * (2 * net.m)
    res[0::2] = net.capacity
    potential = [0.0] * len(net._adj)
    previous = net._trail
    trail: List[_Search] = []
    key: tuple = (source, sink, net.closed_arcs())
    segments: List[FlowSegment] = []
    total_value = 0.0
    total_cost = 0.0
    while total_value < value_cap - EPS_CAP and total_cost < cost_cap - EPS_CAP:
        i = len(trail)
        if i < len(previous) and previous[i][0] == key:
            search = previous[i]
        else:
            if previous and trail:  # resume from the last replayed search
                potential[:] = trail[-1][4]
            previous = []
            found = (None if start is None or end is None
                     else net._shortest_path(res, potential, start, end))
            if found is None:
                search = (key, None, 0.0, (), array("d"))
            else:
                live_path, live_cost = found
                search = (key, live_path, live_cost,
                          tuple([(s >> 1, 1 if s % 2 == 0 else -1)
                                 for s in live_path]),
                          array("d", potential))
        trail.append(search)
        _, path, unit_cost, steps, _ = search
        if path is None:
            break
        # the bottleneck; "<" keeps the first minimum, as min() does
        amount = inf
        for s in path:
            if res[s] < amount:
                amount = res[s]
        rest = value_cap - total_value
        if rest < amount:
            amount = rest
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
        segments.append(FlowSegment(amount, unit_cost, steps))
        total_value += amount
        total_cost += unit_cost * amount
    net._trail = trail
    return segments


def reference_step_assemble(segments: List[FlowSegment],
                            value: float) -> Tuple[Dict[int, float], float]:
    """Per-arc flows and cost of the cheapest flow of the given value."""
    flow: Dict[int, float] = {}
    cost = 0.0
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
            flow[arc] = flow.get(arc, 0.0) + direction * take
            if direction < 0:
                crossed_back.append(arc)
        cost += seg.unit_cost * take
        remaining -= take
    for arc in crossed_back:
        if arc in flow and abs(flow[arc]) <= EPS_CAP:
            del flow[arc]
    return flow, cost


def reference_step_max_delta(up_net: FlowNetwork, up_source: int,
                             up_sink: int, down_net: FlowNetwork,
                             down_source: int, down_sink: int,
                             budget: float) -> MaxDeltaResult:
    """Largest common value routable on both sides within the length budget.

    Finds the maximum ``delta`` in [0, 1] such that each network admits a
    flow of value ``delta`` whose cheapest cost is at most ``budget``, and
    returns the two certifying cheapest flows. Disconnected sides yield
    ``delta = 0`` with empty flows.
    """
    if not budget >= 0:
        raise FlowError(f"budget {budget} is negative or NaN")
    best = 1.0
    sides = []
    for net, s, t in ((up_net, up_source, up_sink),
                      (down_net, down_source, down_sink)):
        if s == t:  # a side that is already at its destination never binds
            _check_ends(net, s, t)
            sides.append([])
            continue
        segments = reference_step_curve(net, s, t, value_cap=1.0,
                                        cost_cap=budget)
        # The curve caps each amount at (budget - cost so far) / unit_cost,
        # so every segment fits the budget whole and the value reachable
        # within it is the plain sum of the amounts (a loop: see
        # graph.plain_sum).
        reachable = 0.0
        for seg in segments:
            reachable += seg.amount
        if reachable < best:
            best = reachable
        sides.append(segments)
    delta = best if best > 0.0 else 0.0
    up_flow, up_cost = reference_step_assemble(sides[0], delta)
    down_flow, down_cost = reference_step_assemble(sides[1], delta)
    return MaxDeltaResult(delta, SideFlow(up_flow, up_cost),
                          SideFlow(down_flow, down_cost))


@dataclass(frozen=True)
class ReferenceRootStep:
    """One root's share of a growth step; per-side tuples follow ``sides``."""

    delta: float
    grow: Tuple[Dict[int, float], ...]  # flow rate per edge
    tight: Tuple[Set[int], ...]


@dataclass(frozen=True)
class ReferenceGrowthStep:
    """A staged growth step; ``ReferenceStepSolver.apply`` commits it."""

    pair: int
    dt: float
    solutions: Dict[int, ReferenceRootStep]
    staged_x: List[Tuple[_Side, int, int, float]]  # (side, root, edge, new x)
    d_obj: float


class ReferenceStepSolver(CompositeSolver):
    """``CompositeSolver`` with the reference growth step and arrival loop,
    in which any registered pair may step. Every funnel, one path or not,
    gets a flow network of its own over its arcs in id order, its own
    full-step growth factors and a set of the arcs to recompute, so the
    reference reads nothing of the solver's own step state: of a funnel,
    only its arcs, ends and flow, which are LP state."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the pair whose funnels keep their step state (see _Funnel)
        self._stepping: Optional[int] = None
        # funnel -> its reference network (network arc a is funnel arc a)
        self._nets: Dict[_Funnel, FlowNetwork] = {}
        # funnel -> edge -> exp(dmax / c), the growth over a full step
        self._full_growth: Dict[_Funnel, Dict[int, float]] = {}
        # funnel -> the edges whose capacities its next solve recomputes
        self._dirty: Dict[_Funnel, Set[int]] = {}

    def _reference_network(self, side: _Side, funnel: _Funnel) -> FlowNetwork:
        net = self._nets.get(funnel)
        if net is None:
            graph, arcs = side.graph, funnel.arcs
            net = self._nets[funnel] = FlowNetwork(
                graph.n, [graph.tail[e] for e in arcs],
                [graph.head[e] for e in arcs], [0.0] * len(arcs),
                [side.l[e] for e in arcs])
            self._full_growth[funnel] = {
                e: _growth_factor(side.c[e], self.dmax) for e in arcs}
        return net

    def _hold_step_state(self, pair_index: int) -> None:
        """Let ``pair_index``'s funnels keep step state; the previous pair's
        recompute every arc when next solved, since this pair's steps change
        the ``x`` they read."""
        if pair_index != self._stepping:
            for route in self.routes.get(self._stepping, {}).values():
                for funnel in route.funnels:
                    self._dirty[funnel] = set(funnel.arcs)
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
        net = self._reference_network(side, funnel)
        full_growth = self._full_growth[funnel]
        index = {e: a for a, e in enumerate(funnel.arcs)}
        dirty = self._dirty.setdefault(funnel, set(funnel.arcs))
        changes = []
        for e in dirty:
            a = index[e]
            grow = full_growth[e]
            if grow == inf:
                changes.append((a, inf))
            else:
                room = 0.0
                if e not in tight:  # max(0.0, headroom), NaN included
                    headroom = x[e] - flows_get(e, 0.0)
                    if headroom > 0.0:
                        room = headroom
                changes.append((a, (room + x[e] * (grow - 1.0)) / dmax))
        reference_step_update_capacities(net, changes)
        dirty.clear()
        return net

    def _solve_root(self, rid: int, route: _Route) -> ReferenceRootStep:
        """Max joint growth rate and flow pattern for one root."""
        tight, args = [], []
        for side, funnel in zip(self.sides, route.funnels):
            side_tight = funnel.tight(side.x[rid])
            tight.append(side_tight)
            args += (self._aux_network(side, rid, funnel, side_tight),
                     *funnel.ends)
        result = reference_step_max_delta(*args, route.z)
        grow = []
        for funnel, flow in zip(route.funnels,
                                (result.up.flow, result.down.flow)):
            # network arc a is funnel arc a: key the flow rates by edge id
            arcs, rates = funnel.arcs, {}
            for a, f in flow.items():
                if f > 0.0:
                    rates[arcs[a]] = f
            grow.append(rates)
        return ReferenceRootStep(result.delta, tuple(grow), tuple(tight))

    def growth_step(self, pair_index: int) -> ReferenceGrowthStep:
        """Stage one discretized step of the continuous dynamics for a pair.

        The step length is the configured maximum unless the remaining
        coverage gap truncates it (rates are scaled down so coverage lands
        exactly at 1). The state is left untouched; ``apply`` commits.
        """
        routes = self.routes[pair_index]
        self._hold_step_state(pair_index)
        solutions: Dict[int, ReferenceRootStep] = {}
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
                full_growth = self._full_growth[funnel]
                touched = set(tight) | set(g_side)
                for e in touched:
                    old = arr[e]
                    new = old
                    if e in tight:
                        grow = (full_growth[e] if full
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
        return ReferenceGrowthStep(pair_index, dt, solutions, staged_x, d_obj)

    def apply(self, step: ReferenceGrowthStep) -> None:
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
                dirty = self._dirty[funnel]
                dirty.update(tight)
                dirty.update(g_side)
                flow = funnel.flow
                for e, g in g_side.items():
                    flow[e] = flow.get(e, 0.0) + g * step.dt
            # dt is capped per root, so z stays at or below 1 up to float noise;
            # clamping would desynchronize z from its certifying flow value
            route.z += sol.delta * step.dt
        self._objective += step.d_obj

    def on_arrival(self, pair: PairSpec) -> ArrivalOutcome:
        """Process one arrival to completion, overflow, a guess too small for
        any root, or infeasibility."""
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


# Reference guess doubling: history is replayed at every doubled guess,
# also while the arriving pair has no eligible root there.

class EveryDoublingPipeline(harness.OnlinePipeline):
    """``OnlinePipeline`` whose arrival loop replays history at every
    doubled guess and then retries the arriving pair, as it did before
    guesses were probed. ``outcomes`` lists every arrival outcome of the
    pairs as they arrived, replays left out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes: List[ArrivalOutcome] = []

    def _advance_epoch(self, pending: Optional[PairSpec] = None) -> None:
        while True:
            self.epoch += 1
            # read through the module, so a test's patched limit holds
            if self.epoch > harness.MAX_EPOCHS:
                raise InstanceError(
                    f"guess doubling did not stabilize within "
                    f"{harness.MAX_EPOCHS} epochs; kappa={self.kappa} is too "
                    f"small for this instance")
            self.lam *= 2.0
            self._start_epoch()
            replay_ok = True
            for old in self.arrived:
                outcome = self.solver.on_arrival(old)
                if outcome == ArrivalOutcome.EPOCH_OVERFLOW:
                    replay_ok = False
                    break
                if outcome != ArrivalOutcome.SATISFIED:
                    raise RuntimeError(f"replay of pair {old.index} ended "
                                       f"{outcome} at guess {self.lam}")
            if replay_ok:
                return

    def _absorb(self, spec: PairSpec) -> ArrivalOutcome:
        while True:
            outcome = self.solver.on_arrival(spec)
            self.outcomes.append(outcome)
            if outcome == ArrivalOutcome.SATISFIED:
                self.solver.check_pair(spec.index)
                return outcome
            if outcome == ArrivalOutcome.LP_INFEASIBLE:
                return outcome
            self._advance_epoch()
