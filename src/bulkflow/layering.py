"""Height-reduced layered expansions and solution pull-back.

The ``(h+1)``-level expansion replaces arbitrary-length routes by exactly
``h``-hop level-to-level paths: a level-``i`` layer edge ``(u,i) -> (v,i-1)``
packs the best ``u -> v`` route under the blended metric
``c_e + k**(1 - i/h) * l_e`` and remembers that route so solutions can be
mapped back. The trade is an ``O(h * k**(1/h))`` cost factor for bounded hop
count, which keeps the online LP's per-level accounting logarithmic.
The down expansion's ``(v,i-1) -> (u,i)`` packs the best ``v -> u`` route;
the same searches, run against the base arcs, find it. ``build_expansions``
builds both; on an undirected base, where every arc has an anti-parallel
twin with the same weights, the down expansion is the up one mirrored, with
no search of its own, and bit-identical to the searched one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .graph import GraphError, SolutionLedger, TwoMetricGraph, shortest_paths

# blended layer weights are clamped here before they can overflow; never
# reached at desk scale
WEIGHT_CAP = 1e18


def default_height(n: int) -> int:
    """Default level count: ceil(log2 n). Overridable via run configuration."""
    if n < 2:
        raise GraphError("need at least 2 vertices to pick a height")
    return max(1, math.ceil(math.log2(n)))


@dataclass
class LayeredGraph:
    """Layered expansion of a base graph together with back-pointer paths.

    ``graph`` holds the layer vertices and layer edges as an ordinary
    two-metric graph; layer vertex ids are ``level * base_n + v``. For the
    "up" direction edges run from level ``i`` to ``i-1`` (terminals enter at
    level ``h``, roots sit at level 0); "down" edges run from ``i-1`` to ``i``.
    ``back_path[e]`` is the base-graph arc sequence a layer edge stands for,
    oriented tail-to-head in the base graph.
    """

    direction: str
    h: int
    k: int
    base: TwoMetricGraph
    graph: TwoMetricGraph
    back_path: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def base_n(self) -> int:
        return self.base.n

    def vertex(self, v: int, level: int) -> int:
        if not (0 <= level <= self.h and 0 <= v < self.base_n):
            raise GraphError(f"layer vertex ({v},{level}) out of range")
        return level * self.base_n + v

    def level_of(self, layer_vertex: int) -> int:
        return layer_vertex // self.base_n

    def base_vertex(self, layer_vertex: int) -> int:
        return layer_vertex % self.base_n

    def vertex_label(self, layer_vertex: int) -> str:
        return f"{self.base_vertex(layer_vertex)}@{self.level_of(layer_vertex)}"


def _blend_weight(c: float, l: float, factor: float) -> float:
    w = c + factor * l
    if w > WEIGHT_CAP:
        warnings.warn(f"layer weight {w} saturated at {WEIGHT_CAP}",
                      RuntimeWarning, stacklevel=2)
        return WEIGHT_CAP
    return w


def build_layered(base: TwoMetricGraph, k: int, h: int,
                  direction: str = "up") -> LayeredGraph:
    """Build the ``(h+1)``-level expansion of ``base`` for ``k`` pairs.

    One search per vertex ``u`` and level: from ``u`` up, into ``u`` (against
    the arcs) down. The backward search walks ``in_arcs`` in id order, as a
    search on ``base.reversed_view()`` walks ``out_arcs``, so down gets the
    reversed graph's up arcs, flipped, in the same order and the same bits.
    Each level blends every arc's weight once, and each layer arc's length
    is its route's lengths summed from the route's start, the order
    ``plain_sum`` adds them in, taken from the search tree: a settled route
    is its predecessor's settled route plus one arc.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    if k < 1:
        raise GraphError("pair count must be >= 1")
    if direction not in ("up", "down"):
        raise GraphError(f"unknown direction {direction!r}")
    down = direction == "down"
    n, base_l = base.n, base.l
    # the end a route's last arc leaves from, seen from the search's start
    near_end = base.head if down else base.tail
    tails: List[int] = []
    heads: List[int] = []
    costs: List[float] = []
    lengths: List[float] = []
    back: List[Tuple[int, ...]] = []
    for level in range(h, 0, -1):
        factor = float(k) ** (1.0 - level / h)
        weights = [_blend_weight(c, l, factor) for c, l in zip(base.c, base_l)]
        for u in range(n):
            # one Dijkstra per (vertex, level); paths reused for every far end v
            found = shortest_paths(base, weights, u, backward=down)
            length = {}
            for v, (path, _) in found.items():  # settle order
                length[v] = (length[near_end[path[-1]]] + base_l[path[-1]]
                             if path else 0)
            for v, (path, cost) in sorted(found.items()):
                ends = (level * n + u, (level - 1) * n + v)
                if down:  # path runs v -> u, listed from u's end
                    ends, path = ends[::-1], path[::-1]
                tails.append(ends[0])
                heads.append(ends[1])
                costs.append(min(cost, WEIGHT_CAP))
                lengths.append(length[v])
                back.append(path)
    layered = TwoMetricGraph.from_arcs((h + 1) * n, tails, heads, costs,
                                       lengths)
    return LayeredGraph(direction, h, k, base, layered, back)


def _twinned(base: TwoMetricGraph) -> bool:
    """Whether every arc ``e`` of ``base`` has the twin ``e ^ 1``, running
    the other way with the same cost and length, as ``add_edge`` makes an
    undirected graph."""
    tail, head, c, l, twin = base.tail, base.head, base.c, base.l, base.twin
    return not base.directed and all(
        twin[e] == e ^ 1 and tail[e] == head[e ^ 1] and head[e] == tail[e ^ 1]
        and c[e] == c[e ^ 1] and l[e] == l[e ^ 1] for e in range(base.m))


def build_expansions(base: TwoMetricGraph, k: int,
                     h: int) -> Tuple[LayeredGraph, LayeredGraph]:
    """The up and down expansions of ``base`` for ``k`` pairs at height ``h``.

    The guard ``_twinned`` holds for the undirected graphs ``add_edge``
    builds. There the down expansion is the up one mirrored: every layer
    arc flipped with its ``c`` and ``l``, every back path reversed and
    mapped to the twins. This is exact. Swapping every arc for its twin
    ``e ^ 1`` turns the search into ``u`` against the arcs into the search
    from ``u`` along them with the same weights, since each vertex's
    ``in_arcs`` are the twins of its ``out_arcs``. The swap keeps the tie
    order (the arc-id order of routes): two routes first differ at two arcs
    into one vertex, and ``e < f`` gives ``e ^ 1 < f ^ 1`` unless ``f`` is
    ``e``'s twin, which makes ``e`` a loop, and no search follows a loop.
    So each search settles the swapped routes at the same weight bits, and
    adds their lengths in the same order. Any other base, every directed
    one among them, gets its own search against the arcs.
    """
    up = build_layered(base, k, h, "up")
    if not _twinned(base):
        return up, build_layered(base, k, h, "down")
    twin = base.twin.__getitem__
    back = [tuple(map(twin, reversed(path))) for path in up.back_path]
    return up, LayeredGraph("down", h, k, base, up.graph.reversed_view(), back)


def pull_back(layered: LayeredGraph, ledger: SolutionLedger) -> SolutionLedger:
    """Map a layered-graph ledger to a base-graph ledger.

    Every layer edge is replaced by its remembered base path. The result is
    never more expensive: lengths transfer exactly, layer buy costs include
    the blended length surcharge, and overlapping back paths share one
    purchase. Any expansion with ``base``, ``graph`` and a per-arc
    ``back_path`` works, the junction forest included.
    """
    out = SolutionLedger()
    for le in ledger.bought:
        if not (0 <= le < layered.graph.m):
            raise GraphError(f"layered purchase {le} has no back path")
        for e in layered.back_path[le]:
            out.buy(layered.base, e)
    for pair_index, path in ledger.paths.items():
        base_path: List[int] = []
        for le in path:
            base_path.extend(layered.back_path[le])
        for e in base_path:
            out.buy(layered.base, e)  # defensive: paths imply purchases
            out.length_cost += layered.base.l[e]
        out.paths[pair_index] = tuple(base_path)
    return out


def dump_layered_edges(layered: LayeredGraph) -> List[Dict]:
    """Debug dump of layer edges in the standard edge JSON schema."""
    rows = []
    g = layered.graph
    for e in range(g.m):
        rows.append({
            "id": e,
            "tail": layered.vertex_label(g.tail[e]),
            "head": layered.vertex_label(g.head[e]),
            "c": g.c[e],
            "l": g.l[e],
            "back_path": list(layered.back_path[e]),
        })
    return rows
