"""Shared builders and small brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from bulkflow.errors import BudgetExceeded
from bulkflow.flows import (EPS_CAP, FEAS_TOL, FlowError, FlowNetwork,
                            FlowResult, FlowSegment, MaxDeltaResult,
                            _Residual)
from bulkflow.fractional import _growth_factor
from bulkflow.graph import (GraphError, SolutionLedger, TerminalPair,
                            TwoMetricGraph, Unreachable, shortest_path)
from bulkflow.junction import (DEFAULT_NODE_BUDGET, GroupSteinerInstance,
                               GstSubInstance, JunctionForest)
from bulkflow.layering import build_layered
from bulkflow.oracle import (DEFAULT_BUDGET, VALUE_TOL, InfeasibleInstance,
                             OracleBudget, _multi_weight_dijkstra,
                             _purchase_keys)


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
        return shortest_path(graph, lambda e: graph.l[e], s, t, allowed=allowed)
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


# ----------------------------------------------------------------------
# Reference step capacities: every arc of a funnel recomputed from scratch,
# as each growth step did before funnels kept their step state.

def reference_step_capacities(side, rid: int, tight: Set[int], dt: float,
                              pair_index: int) -> List[float]:
    """The rate capacities of one funnel's network for a step of ``dt``."""
    funnel = side.funnels[(rid, pair_index)]
    x, c = side.x[rid], side.c
    flows = side.flow.get((rid, pair_index), {})
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
# Reference joint solve: cheapest_flow_curve, _assemble and max_delta as
# they were before the solve walked each augmenting path once (renamed,
# otherwise verbatim), to compare the fused solve with bit for bit.

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
    up_layer = build_layered(base, k, h, "up")
    down_layer = build_layered(base, k, h, "down")

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


def reference_map_to_gst(forest: JunctionForest, side: str, root: int,
               terminals: Sequence[int],
               junction: Optional[int] = None) -> GstSubInstance:
    """``map_to_gst`` as it was before each side shared one code path.

    Internal arcs keep their buy cost; each terminal hookup at leaf ``u``
    becomes a dangling arc weighing the tree path's total length, because a
    terminal routed through ``u`` pays exactly that length. Terminal i's
    group collects its dangling vertices; an empty group marks the terminal
    infeasible for this sub-instance.
    """
    if side not in ("up", "down"):
        raise GraphError(f"unknown side {side!r}")
    g = forest.graph
    junction = junction if junction is not None else (
        forest.up_root[root] if side == "up" else forest.down_root[root])
    j_side, j_root, j_tup = forest.tuple_of[junction]
    if j_side != side or j_root != root:
        raise GraphError("junction vertex does not belong to the requested tree")

    parent_arc: Dict[int, Tuple[int, float]] = {}
    tree_arc_id: Dict[Tuple[int, int], int] = {}
    path_length: Dict[int, float] = {junction: 0.0}
    leaves: Dict[int, List[int]] = {}

    # walk the subtree: tuple vertices extending the junction's signature
    stack = [junction]
    while stack:
        v = stack.pop()
        _s, _r, tup = forest.tuple_of[v]
        if len(tup) == forest.h:
            leaves[v] = []
            continue
        arcs = g.in_arcs[v] if side == "up" else g.out_arcs[v]
        for a in arcs:
            other = g.tail[a] if side == "up" else g.head[a]
            if other not in forest.tuple_of:
                continue
            o_side, o_root, o_tup = forest.tuple_of[other]
            if o_side != side or o_root != root or o_tup[:-1] != tup:
                continue
            parent_arc[other] = (v, g.c[a])
            tree_arc_id[(other, v)] = a
            path_length[other] = path_length[v] + g.l[a]
            stack.append(other)

    next_id = itertools.count(g.n)
    dangling: Dict[int, Tuple[int, int, int]] = {}
    groups: Dict[int, List[int]] = {t: [] for t in range(len(terminals))}
    for ti, term in enumerate(terminals):
        if side == "up":
            tvert = forest.source_vertex.get(term)
            hook_arcs = g.out_arcs[tvert] if tvert is not None else []
            leaf_of = lambda a: g.head[a]
        else:
            tvert = forest.sink_vertex.get(term)
            hook_arcs = g.in_arcs[tvert] if tvert is not None else []
            leaf_of = lambda a: g.tail[a]
        for a in hook_arcs:
            leaf = leaf_of(a)
            if leaf in leaves:
                d = next(next_id)
                dangling[d] = (ti, leaf, a)
                parent_arc[d] = (leaf, path_length[leaf])
                groups[ti].append(d)

    infeasible = tuple(t for t, members in groups.items() if not members)
    instance = GroupSteinerInstance(
        root=junction, parent_arc=parent_arc,
        groups={gid: tuple(members) for gid, members in groups.items()})
    return GstSubInstance(forest=forest, side=side, root=root,
                          junction=junction, instance=instance,
                          dangling=dangling, tree_arc_id=tree_arc_id,
                          infeasible_terminals=infeasible)


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
    residual = _Residual(net)
    res, potential, nodes = residual.res, residual.potential, residual.nodes
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
            found = residual.shortest_path(source, sink)
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
    return MaxDeltaResult(delta,
                          FlowResult(delta, up_flow, up_cost),
                          FlowResult(delta, down_flow, down_cost))
