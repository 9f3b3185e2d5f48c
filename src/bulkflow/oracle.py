"""Exact offline baselines for tiny instances.

Three independent routes to ground truth:

* ``offline_opt`` enumerates bought-edge subsets and routes every pair on
  its shortest length-path inside the subset. It keeps each pair's route
  inside the upper set (chosen plus undecided purchases); the upper sets
  along a branch are nested, so a route stays exact until its own purchase
  is excluded. Only then is the pair searched again, and a subtree that
  cuts some pair off is skipped. Branch and bound prunes on the buy cost
  of the chosen purchases plus the lengths of the kept routes, since no
  leaf below routes a pair more cheaply than its kept route.
* ``ss_offline_opt`` solves single-sink instances exactly with a
  terminal-subset dynamic program over collection points, which scales to
  graphs far beyond the subset-enumeration budget (layered expansions).
  Its tables depend only on the terminal multiset, so ``junction_opt``
  shares one per sub-multiset and direction across all roots and
  assignments. It searches the assignments depth first on prefix sums,
  with blocks of pairs as bitmasks, and reads a block's rooted costs from
  the tables once, into a row over every root per direction.
* ``lp_lower_bound`` solves the flow LP relaxation, penalties priced in,
  with an off-the-shelf LP solver.

The prunes and the shared tables skip work only: every value, ledger and
float sum order is the plain search's. Budgets guard every exponential loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded
from .graph import (GraphError, SolutionLedger, TerminalPair, TwoMetricGraph,
                    Unreachable, plain_sum, shortest_path)

VALUE_TOL = 1e-9
# offline_opt's length bound is shrunk by a relative slack, since its
# rounding grows with the costs and VALUE_TOL is absolute. With K
# purchases, p pairs and m arcs (a route has at most m arcs, 40 under the
# default max_edges), any term of the bound passes at most K + p + m + 3
# roundings (the buy fold, a route's label and the fold of the labels, the
# add, the factor and the product) and any term of a leaf's total at most
# K + p * m + 1 (its buy and length folds and their add). Each rounding moves a nonnegative sum by a
# factor within 1 +- 2**-53, so a slack of T * 2**-53 with
# T = 2 K + (p + 1)(m + 1) + 3 keeps the bound at or below every total it
# stands for, to first order; the unit here is doubled to cover the
# higher-order terms.
LENGTH_SLACK_PER_TERM = 2.0 ** -52
# multi-weight Dijkstra: labels closer than this count as equal
TIE_TOL = 1e-15


class InfeasibleInstance(Exception):
    """Some pair cannot be connected even with every edge bought."""


@dataclass(frozen=True)
class OracleBudget:
    max_edges: int = 20        # purchase keys for subset enumeration
    max_vertices: int = 8      # junction root enumeration
    max_pairs: int = 5         # junction assignment enumeration
    max_ss_terminals: int = 10  # terminal-subset DP width
    max_drop_pairs: int = 10   # prize drop-set enumeration


DEFAULT_BUDGET = OracleBudget()


def _purchase_keys(graph: TwoMetricGraph) -> List[int]:
    return sorted({graph.purchase_key(e) for e in range(graph.m)})


def offline_opt(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
                budget: OracleBudget = DEFAULT_BUDGET) -> Tuple[float, SolutionLedger]:
    """Global optimum by exhaustive subset search with a cost lower bound.

    Inside a candidate subset the buying cost is already sunk, so each pair
    routes along its shortest length-path; the candidate's value uses only
    the purchases those routes actually touch. The search keeps every pair's
    route inside its upper set (chosen plus undecided purchases). Along one
    branch the upper sets are nested, and the search returns the least
    (length, arc ids) path over the arcs it may use, so a route stays the
    answer in every smaller upper set that still holds it. Excluding a
    purchase therefore searches again only for the pairs whose routes use it,
    and skips the subtree once one of them is cut off; a leaf's upper set is
    its subset, so its routes are the kept ones. A leaf prices them with the
    ledger's two sums in the ledger's order, and builds the ledger only when
    it beats the best value.

    A node is pruned when its buy cost, or its buy cost plus the kept
    routes' lengths shrunk by the rounding slack, reaches the best value
    less ``VALUE_TOL``. The length bound keeps every bit of the plain
    search, which prunes on the buy cost alone. Each kept route is the
    least path in the node's upper set, so no leaf below routes a pair more
    cheaply. A leaf whose routes leave some included purchase unused has
    the same routes, and the same ``routed_total`` bits, as the leaf that
    excludes that purchase instead; the search tries exclusion first, so
    the plain search meets that leaf earlier and never accepts the later
    one. Every leaf it accepts pays every included purchase, so its total
    is at least the bound of each node above it, and the bound never cuts
    an accepted leaf: the accepted leaves, the value and the ledger are the
    plain search's.
    """
    pairs = [p for p in pairs if p.s != p.t]
    if not pairs:
        return 0.0, SolutionLedger()
    keys = _purchase_keys(graph)
    if len(keys) > budget.max_edges:
        raise BudgetExceeded(
            f"{len(keys)} purchases exceed the subset budget {budget.max_edges}",
            required=len(keys))

    key_of = [graph.purchase_key(e) for e in range(graph.m)]
    arcs_of: Dict[int, List[int]] = {key: [] for key in keys}
    for e, key in enumerate(key_of):
        arcs_of[key].append(e)
    live = bytearray([1]) * graph.m  # the upper set's arcs
    allowed = live.__getitem__

    def route(p: TerminalPair) -> Optional[Tuple[Tuple[int, ...], Set[int], float]]:
        """``p``'s shortest length-path over the live arcs, the purchases it
        uses and its length label, or None when they cut ``p`` off."""
        try:
            path, length = shortest_path(graph, graph.l, p.s, p.t,
                                         allowed=allowed)
        except Unreachable:
            return None
        return path, {key_of[e] for e in path}, length

    routes = []
    for p in pairs:
        found = route(p)
        if found is None:
            raise InfeasibleInstance(f"pair {p.index} ({p.s}->{p.t}) is unreachable")
        routes.append(found)

    def routed_ledger() -> SolutionLedger:
        ledger = SolutionLedger()
        for p, (path, _, _) in zip(pairs, routes):
            ledger.add_path(graph, p.index, path)
        return ledger

    def routed_total() -> float:
        """``routed_ledger().total``, bit for bit: each purchase's ``c`` at
        its first use and every arc's ``l``, over the routes in pair order."""
        c, l = graph.c, graph.l
        bought: Set[int] = set()
        buy_cost = length_cost = 0.0
        for path, _, _ in routes:
            for e in path:
                key = key_of[e]
                if key not in bought:
                    bought.add(key)
                    buy_cost += c[key]
                length_cost += l[e]
        return buy_cost + length_cost

    best_ledger = routed_ledger()  # feasible seed bound
    best_value = best_ledger.total
    # descending buy cost lets the accumulated-cost prune bite early
    order = sorted(keys, key=lambda key: (-graph.c[key], key))
    shrink = 1.0 - ((2 * len(keys) + (len(pairs) + 1) * (graph.m + 1) + 3)
                    * LENGTH_SLACK_PER_TERM)

    def search(i: int, buy_acc: float) -> None:
        nonlocal best_value, best_ledger
        floor = best_value - VALUE_TOL
        if buy_acc >= floor or _length_cut(buy_acc, routes, shrink, floor):
            return
        if i == len(order):
            total = routed_total()
            if total < floor:
                best_value, best_ledger = total, routed_ledger()
            return
        key = order[i]
        arcs = arcs_of[key]
        for e in arcs:
            live[e] = 0
        replaced = []
        for j, p in enumerate(pairs):
            if key in routes[j][1]:
                replaced.append((j, routes[j]))
                found = route(p)
                if found is None:
                    break
                routes[j] = found
        else:  # every pair still connects: exclude first, cheap subsets early
            search(i + 1, buy_acc)
        for j, kept in replaced:
            routes[j] = kept
        for e in arcs:
            live[e] = 1
        # including keeps the parent's upper set and its routes
        search(i + 1, buy_acc + graph.c[key])

    search(0, 0.0)
    return best_value, best_ledger


def _length_cut(buy_acc: float,
                routes: Sequence[Tuple[Tuple[int, ...], Set[int], float]],
                shrink: float, floor: float) -> bool:
    """Whether ``offline_opt`` prunes a node on its buy cost plus its kept
    routes' lengths, shrunk by the rounding slack: no leaf below that pays
    each of its purchases totals less than that."""
    lengths = 0.0
    for route in routes:
        lengths += route[2]
    return (buy_acc + lengths) * shrink >= floor


# apart from graph.shortest_paths: independent ground truth, own sum order
def _multi_weight_dijkstra(graph: TwoMetricGraph, seeds: Dict[int, float],
                           load: int) -> List[float]:
    """Closure of tentative labels under per-arc weight ``c + load * l``."""
    dist = [math.inf] * graph.n
    heap = []
    for v, d in seeds.items():
        if d < dist[v]:
            dist[v] = d
            heapq.heappush(heap, (d, v))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] + TIE_TOL:
            continue
        for e in graph.out_arcs[v]:
            nd = d + graph.c[e] + load * graph.l[e]
            u = graph.head[e]
            if nd < dist[u] - TIE_TOL:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _collection_costs(graph: TwoMetricGraph, terms: Tuple[int, ...],
                      tables: Dict[Tuple[int, ...], List[float]]) -> List[float]:
    """Per-vertex cost of collecting the sorted terminal multiset ``terms``.

    The table depends only on the graph and the multiset, so every root and
    every larger multiset containing ``terms`` shares the one in ``tables``.
    """
    found = tables.get(terms)
    if found is not None:
        return found
    k = len(terms)
    if k == 1:
        costs = _multi_weight_dijkstra(graph, {terms[0]: 0.0}, load=1)
    else:
        full = (1 << k) - 1
        merged = [math.inf] * graph.n
        sub = (full - 1) & full
        while sub:
            comp = full ^ sub
            if sub < comp:  # each split once
                a = _collection_costs(graph, _pick(terms, sub), tables)
                b = _collection_costs(graph, _pick(terms, comp), tables)
                for v in range(graph.n):
                    cand = a[v] + b[v]
                    if cand < merged[v]:
                        merged[v] = cand
            sub = (sub - 1) & full
        seeds = {v: merged[v] for v in range(graph.n) if math.isfinite(merged[v])}
        costs = _multi_weight_dijkstra(graph, seeds, load=k)
    tables[terms] = costs
    return costs


def _pick(terms: Tuple[int, ...], mask: int) -> Tuple[int, ...]:
    return tuple(t for i, t in enumerate(terms) if mask >> i & 1)


def ss_offline_opt(graph: TwoMetricGraph, terminals: Sequence[int], root: int,
                   direction: str = "sink",
                   budget: OracleBudget = DEFAULT_BUDGET) -> float:
    """Exact single-sink (or single-source) optimum.

    Terminals form a multiset: two demands on the same vertex each pay
    their path length. Dynamic program over (terminal subset, collection
    vertex): an optimal solution is an in-tree toward the root, so it
    decomposes into merges at a vertex and shared path segments whose
    per-edge price is ``c + |subset| * l``.
    """
    if direction == "source":
        return ss_offline_opt(graph.reversed_view(), terminals, root, "sink",
                              budget)
    if direction != "sink":
        raise GraphError(f"unknown direction {direction!r}")
    return _rooted_cost(graph, tuple(sorted(terminals)), root, budget, {})


def _rooted_cost(graph: TwoMetricGraph, terminals: Tuple[int, ...], root: int,
                 budget: OracleBudget,
                 tables: Dict[Tuple[int, ...], List[float]]) -> float:
    """``ss_offline_opt`` toward ``root`` for sorted ``terminals``, reading
    and filling the shared ``tables``."""
    terms = tuple(t for t in terminals if t != root)
    if not terms:
        return 0.0
    if len(terms) > budget.max_ss_terminals:
        raise BudgetExceeded(
            f"{len(terms)} terminals exceed the DP budget {budget.max_ss_terminals}",
            required=len(terms))
    value = _collection_costs(graph, terms, tables)[root]
    if not math.isfinite(value):
        raise InfeasibleInstance("some terminal cannot reach the root")
    return value


def _root_row(graph: TwoMetricGraph, terms: Tuple[int, ...],
              tables: Dict[Tuple[int, ...], List[float]]) -> List[float]:
    """``_rooted_cost`` of the sorted multiset ``terms`` toward every root,
    ``inf`` where some terminal cannot reach it. A root's own copies are
    removed, so each multiset read is part of ``terms`` and shares
    ``tables``; the caller checks the DP budget."""
    row = []
    for r in range(graph.n):
        rest = tuple(t for t in terms if t != r) if r in terms else terms
        if not rest:
            row.append(0.0)
            continue
        value = _collection_costs(graph, rest, tables)[r]
        row.append(value if math.isfinite(value) else math.inf)
    return row


def junction_opt(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
                 budget: OracleBudget = DEFAULT_BUDGET) -> float:
    """Best decomposition into per-root single-sink plus single-source solutions.

    Searches every pair-to-root assignment depth first: blocks of pairs in
    the order of their lowest pair, each on its own root, with the partial
    sum pruned once it reaches the best total. A pair with a penalty may
    instead be dropped at its ``q``, so on prize instances the value is the
    best split into dropped and routed pairs. Edge copies appearing in
    several rooted solutions are deliberately paid once per solution.

    A block is a bitmask over the pairs; the lowest pair left joins each
    submask of the rest, high to low. The first time the search meets a
    block it reads two rows over the roots from the shared DP tables: the
    sink cost of the block's sources and the source cost of its sinks (see
    ``_root_row``). Every assignment adds its blocks lowest pair first,
    sink then source, and costs are ``>= 0``, so the prunes skip only
    totals at or above the best, and the value is the plain search's
    minimum, bit for bit.
    """
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

    # every block's multisets are part of the all-pairs block's on its root,
    # so the DP budget is checked once, whatever order the search takes
    width = max((max(sum(p.s != r for p in pairs), sum(p.t != r for p in pairs))
                 for r in range(graph.n)), default=0)
    if width > budget.max_ss_terminals:
        raise BudgetExceeded(
            f"{width} terminals exceed the DP budget {budget.max_ss_terminals}",
            required=width)

    reverse = graph.reversed_view()
    sink_tables: Dict[Tuple[int, ...], List[float]] = {}
    source_tables: Dict[Tuple[int, ...], List[float]] = {}
    n = graph.n
    penalties = [p.penalty for p in pairs]
    # block (a bitmask over the pairs) -> its sink row and its source row
    rows: Dict[int, Tuple[List[float], List[float]]] = {}
    best = math.inf
    used = [False] * n

    def place(left: int, partial: float) -> None:
        """Blocks for the pairs in the bitmask ``left``: the lowest joins a
        subset of the rest on an unused root, or is dropped at its penalty;
        totals add sink then source block by block."""
        nonlocal best
        if not left:
            best = min(best, partial)
            return
        low = left & -left
        rest = left ^ low
        penalty = penalties[low.bit_length() - 1]
        if penalty is not None and partial + penalty < best:
            place(rest, partial + penalty)
        sub = rest
        while True:  # the submasks of rest, high to low
            block = low | sub
            row = rows.get(block)
            if row is None:
                members = [p for i, p in enumerate(pairs) if block >> i & 1]
                # multisets: shared terminals pay length per pair
                row = rows[block] = (
                    _root_row(graph, tuple(sorted(p.s for p in members)),
                              sink_tables),
                    _root_row(reverse, tuple(sorted(p.t for p in members)),
                              source_tables))
            sink, source = row
            others = rest ^ sub
            for r in range(n):
                if used[r]:
                    continue
                total = partial + sink[r]
                if total >= best:
                    continue
                total += source[r]
                if total >= best:
                    continue
                used[r] = True
                place(others, total)
                used[r] = False
            if not sub:
                break
            sub = (sub - 1) & rest

    place((1 << len(pairs)) - 1, 0.0)
    if not math.isfinite(best):
        raise InfeasibleInstance("no junction assignment connects every pair")
    return best


def offline_opt_prize(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
                      budget: OracleBudget = DEFAULT_BUDGET) -> float:
    """Prize-collecting optimum: best split into dropped and routed pairs.

    Only pairs with a penalty may be dropped, so the drop sets are the
    subsets of those pairs, in the order of the masks over all pairs. A pair
    with ``s == t`` routes at cost 0 and its penalty is ``>= 0``, so it is
    left out before the drop budget is checked, as ``offline_opt`` does.
    """
    pairs = [p for p in pairs if p.s != p.t]
    penalized = [i for i, p in enumerate(pairs) if p.penalty is not None]
    if len(penalized) > budget.max_drop_pairs:
        raise BudgetExceeded(
            f"{len(penalized)} penalized pairs exceed the drop budget "
            f"{budget.max_drop_pairs}", required=len(penalized))
    best = math.inf
    for mask in range(1 << len(penalized)):
        drop = [i for j, i in enumerate(penalized) if mask >> j & 1]
        penalty = plain_sum(pairs[i].penalty for i in drop)
        if penalty >= best:
            continue
        kept = [p for i, p in enumerate(pairs) if i not in drop]
        try:
            value, _ = offline_opt(graph, kept, budget)
        except InfeasibleInstance:
            continue
        best = min(best, penalty + value)
    if not math.isfinite(best):
        raise InfeasibleInstance("no feasible drop/route split")
    return best


def exact_opt(graph: TwoMetricGraph, pairs: Sequence[TerminalPair],
              mode: str) -> float:
    """The global optimum a run in ``mode`` is measured against: the
    prize-collecting optimum when some pair may be dropped, else
    ``offline_opt``."""
    if mode == "prize" and any(p.penalty is not None for p in pairs):
        return offline_opt_prize(graph, pairs)
    return offline_opt(graph, pairs)[0]


def lp_lower_bound(graph: TwoMetricGraph, pairs: Sequence[TerminalPair]) -> float:
    """Optimum of the flow LP relaxation (a lower bound on the offline optimum).

    One capacity variable per purchase, one flow per (pair, arc); every
    pair ships one unit from its source to its sink under ``flow <= capacity``.
    A pair with a penalty ``q`` also gets a drop share ``y`` in [0, 1]: it
    ships ``1 - y`` units and pays ``q * y``, so on prize instances the bound
    stays below the prize-collecting optimum.
    """
    pairs = [p for p in pairs if p.s != p.t]
    if not pairs:
        return 0.0
    # loaded here, not at import: scipy.optimize alone takes most of a
    # second and half the memory of a run that never asks for this bound
    import numpy as np
    from scipy.optimize import linprog

    keys = _purchase_keys(graph)
    key_index = {key: i for i, key in enumerate(keys)}
    nk, m, np_ = len(keys), graph.m, len(pairs)
    charged = [pi for pi, p in enumerate(pairs) if p.penalty is not None]
    first_y = nk + np_ * m  # x block, per-pair flow blocks, then the y's
    n_vars = first_y + len(charged)

    def fvar(pi: int, e: int) -> int:
        return nk + pi * m + e

    cost = np.zeros(n_vars)
    for i, key in enumerate(keys):
        cost[i] = graph.c[key]
    for pi in range(np_):
        for e in range(m):
            cost[fvar(pi, e)] = graph.l[e]

    a_eq = np.zeros((np_ * graph.n, n_vars))
    b_eq = np.zeros(np_ * graph.n)
    for pi, p in enumerate(pairs):
        for e in range(m):
            a_eq[pi * graph.n + graph.tail[e], fvar(pi, e)] += 1.0
            a_eq[pi * graph.n + graph.head[e], fvar(pi, e)] -= 1.0
        b_eq[pi * graph.n + p.s] = 1.0
        b_eq[pi * graph.n + p.t] = -1.0
    for y, pi in enumerate(charged, start=first_y):
        cost[y] = pairs[pi].penalty
        a_eq[pi * graph.n + pairs[pi].s, y] = 1.0
        a_eq[pi * graph.n + pairs[pi].t, y] = -1.0

    a_ub = np.zeros((np_ * m, n_vars))
    for pi in range(np_):
        for e in range(m):
            row = pi * m + e
            a_ub[row, fvar(pi, e)] = 1.0
            a_ub[row, key_index[graph.purchase_key(e)]] = -1.0
    b_ub = np.zeros(np_ * m)

    bounds = [(0, None)] * first_y + [(0, 1)] * len(charged)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        raise InfeasibleInstance(f"LP relaxation infeasible: {res.message}")
    return float(res.fun)
