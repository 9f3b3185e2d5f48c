"""Reproducible instance generators and the adversarial-order wrapper."""

from __future__ import annotations

import inspect
import itertools
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import InstanceError
from .graph import TwoMetricGraph, Unreachable, shortest_path, shortest_paths
from .instance import as_int, load_instance

# a cost must beat the best (or worst) so far by more than this to replace it
COST_TIE_TOL = 1e-12
# every generator draws each edge's c and l uniformly from these ranges
C_RANGE = (0.2, 3.0)
L_RANGE = (0.05, 1.0)
# the adversarial wrapper tries every order, so it takes at most this many pairs
ADVERSARIAL_MAX_PAIRS = 6


def _rand_pairs(rng: random.Random, n: int, k: int) -> List[dict]:
    pairs = []
    for _ in range(k):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        pairs.append({"s": s, "t": t})
    return pairs


def _edge(rng: random.Random, eid: int, u: int, v: int) -> dict:
    """Edge ``eid`` from ``u`` to ``v``; ``c`` is drawn before ``l``."""
    return {"id": eid, "tail": u, "head": v,
            "c": round(rng.uniform(*C_RANGE), 6),
            "l": round(rng.uniform(*L_RANGE), 6)}


def random_digraph(n: int, m: int, k: int, seed: int,
                   strongly_connected: bool = True) -> dict:
    """Random directed instance; a random cycle guarantees strong connectivity."""
    if n < 2 or k < 1:
        raise InstanceError(f"need n >= 2 and k >= 1 pairs, got n={n}, k={k}")
    rng = random.Random(f"digraph:{seed}")
    arcs: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    if strongly_connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(n):
            u, v = order[i], order[(i + 1) % n]
            arcs.append((u, v))
            seen.add((u, v))
    attempts = 0
    while len(arcs) < m and attempts < 50 * m:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v))
    edges = [_edge(rng, i, u, v) for i, (u, v) in enumerate(arcs)]
    return {"directed": True, "n": n, "mode": "edge", "edges": edges,
            "pairs": _rand_pairs(rng, n, k)}


def grid(rows: int, cols: int, k: int, seed: int) -> dict:
    """Undirected grid instance with random weights and pairs."""
    if rows < 1 or cols < 1 or rows * cols < 2 or k < 1:
        raise InstanceError("grid needs at least 2 vertices and k >= 1 pairs")
    rng = random.Random(f"grid:{seed}")
    n = rows * cols
    edges: List[dict] = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append(_edge(rng, len(edges), v, v + 1))
            if i + 1 < rows:
                edges.append(_edge(rng, len(edges), v, v + cols))
    return {"directed": False, "n": n, "mode": "edge", "edges": edges,
            "pairs": _rand_pairs(rng, n, k)}


def star_of_paths(arms: int, arm_len: int, k: int, seed: int) -> dict:
    """Hub vertex 0 with ``arms`` paths of ``arm_len`` edges radiating out.

    Pairs connect endpoints of distinct arms, which forces junction routing
    through (or near) the hub.
    """
    if arms < 2 or arm_len < 1 or k < 1:
        raise InstanceError("need at least 2 arms of length >= 1 and k >= 1 pairs")
    rng = random.Random(f"star:{seed}")
    n = 1 + arms * arm_len
    edges: List[dict] = []
    tips = []
    for a in range(arms):
        prev = 0
        for step in range(arm_len):
            v = 1 + a * arm_len + step
            edges.append(_edge(rng, len(edges), prev, v))
            prev = v
        tips.append(prev)
    pairs = []
    for _ in range(k):
        a, b = rng.sample(range(arms), 2)
        pairs.append({"s": tips[a], "t": tips[b]})
    return {"directed": False, "n": n, "mode": "edge", "edges": edges,
            "pairs": pairs}


def with_penalties(data: dict, seed: int,
                   q_range: Tuple[float, float] = (0.5, 5.0)) -> dict:
    """Prize-collecting variant of an instance: every pair gets a penalty."""
    rng = random.Random(f"penalty:{seed}")
    out = dict(data)
    out["mode"] = "prize"
    out["pairs"] = [dict(p, q=round(rng.uniform(*q_range), 6))
                    for p in data["pairs"]]
    return out


def _greedy_dispatch_cost(graph: TwoMetricGraph, pairs: Sequence[dict]) -> float:
    """Greedy single-sink proxy: each pair routes via its cheapest root.

    Marginal prices (bought edges charge only length) make the total
    order-sensitive; the adversarial wrapper maximizes this.
    """
    bought: Set[int] = set()
    total = 0.0
    for pr in pairs:
        marginal = [l if graph.purchase_key(e) in bought else c + l
                    for e, (c, l) in enumerate(zip(graph.c, graph.l))]
        best: Optional[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = None
        # every vertex is a candidate root; one search reaches them all
        up = shortest_paths(graph, marginal, pr["s"])
        for r, (up_path, up_cost) in sorted(up.items()):
            try:
                down_path, down_cost = shortest_path(graph, marginal, r, pr["t"])
            except Unreachable:
                continue
            cand = (up_cost + down_cost, up_path, down_path)
            if best is None or cand[0] < best[0] - COST_TIE_TOL:
                best = cand
        if best is None:
            continue
        total += best[0]
        for e in best[1] + best[2]:
            bought.add(graph.purchase_key(e))
    return total


def adversarial_order(data: dict) -> dict:
    """Reorder arrivals to maximize the greedy dispatch cost (exhaustive).

    Deterministic: among equal-cost orders the lexicographically first
    permutation wins.
    """
    pairs = data.get("pairs", [])
    if len(pairs) > ADVERSARIAL_MAX_PAIRS:
        raise InstanceError(
            f"adversarial wrapper is exhaustive; {len(pairs)} pairs exceed "
            f"the cap {ADVERSARIAL_MAX_PAIRS}")
    instance = load_instance(data)
    worst_cost = -1.0
    worst: Sequence[int] = tuple(range(len(pairs)))
    for perm in itertools.permutations(range(len(pairs))):
        cost = _greedy_dispatch_cost(instance.graph,
                                     [pairs[i] for i in perm])
        if cost > worst_cost + COST_TIE_TOL:
            worst_cost = cost
            worst = perm
    out = dict(data)
    out["pairs"] = [pairs[i] for i in worst]
    out["adversarial_cost"] = worst_cost
    return out


GENERATORS = {
    "random-digraph": random_digraph,
    "grid": grid,
    "star-of-paths": star_of_paths,
}


def _flag(value: object, what: str) -> bool:
    """An on/off parameter: 0 or 1, as ``as_int`` reads it."""
    flag = as_int(value, what)
    if flag not in (0, 1):
        raise InstanceError(f"{what} must be 0 or 1, got {value!r}")
    return bool(flag)


def generate(kind: str, params: Dict[str, float], seed: int) -> dict:
    """Dispatch by kind; ``adversarial=1`` wraps the result, ``prize=1`` adds q."""
    params = dict(params)
    adversarial = _flag(params.pop("adversarial", 0), "adversarial")
    prize = _flag(params.pop("prize", 0), "prize")
    if kind not in GENERATORS:
        raise InstanceError(f"unknown generator kind {kind!r}; "
                            f"options: {sorted(GENERATORS)}")
    fn = GENERATORS[kind]
    signature = inspect.signature(fn).parameters.values()
    names = [p.name for p in signature if p.name != "seed"]
    missing = [p.name for p in signature if p.name in names
               and p.default is p.empty and p.name not in params]
    unknown = sorted(set(params) - set(names))
    if unknown or missing:
        raise InstanceError(f"{kind} takes parameters {names}; unknown: "
                            f"{unknown}, missing: {missing}")
    flags = {p.name for p in signature if p.annotation == "bool"}
    data = fn(seed=seed, **{
        key: _flag(value, key) if key in flags else as_int(value, key)
        for key, value in params.items()})
    if prize:
        data = with_penalties(data, seed)
    if adversarial:
        data = adversarial_order(data)
    return data
