"""Height-reduced layered expansions and solution pull-back.

The ``(h+1)``-level expansion replaces arbitrary-length routes by exactly
``h``-hop level-to-level paths: a level-``i`` layer edge ``(u,i) -> (v,i-1)``
packs the best ``u -> v`` route under the blended metric
``c_e + k**(1 - i/h) * l_e`` and remembers that route so solutions can be
mapped back. The trade is an ``O(h * k**(1/h))`` cost factor for bounded hop
count, which keeps the online LP's per-level accounting logarithmic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .graph import (GraphError, SolutionLedger, TwoMetricGraph, Unreachable,
                    shortest_path)

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
    level ``h``, roots sit at level 0); "down" is the mirror image.
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


def _build_up(base: TwoMetricGraph, k: int, h: int) -> LayeredGraph:
    n = base.n
    layered = TwoMetricGraph((h + 1) * n, directed=True)
    back: List[Tuple[int, ...]] = []
    for level in range(h, 0, -1):
        factor = float(k) ** (1.0 - level / h)
        weight = lambda e, f=factor: _blend_weight(base.c[e], base.l[e], f)
        for u in range(n):
            # one Dijkstra per (source, level); paths reused for every head v
            for v in range(n):
                try:
                    path, cost = shortest_path(base, weight, u, v)
                except Unreachable:
                    continue
                length = sum(base.l[e] for e in path)
                le = layered.add_arc(level * n + u, (level - 1) * n + v,
                                     min(cost, WEIGHT_CAP), length)
                assert le == len(back)
                back.append(path)
    return LayeredGraph("up", h, k, base, layered.freeze(), back)


def build_layered(base: TwoMetricGraph, k: int, h: int,
                  direction: str = "up") -> LayeredGraph:
    """Build the ``(h+1)``-level expansion of ``base`` for ``k`` pairs.

    The down graph is produced by reversing the base graph, building an up
    graph, and flipping the result back, which keeps the two constructions
    exactly symmetric.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    if k < 1:
        raise GraphError("pair count must be >= 1")
    if direction == "up":
        return _build_up(base, k, h)
    if direction != "down":
        raise GraphError(f"unknown direction {direction!r}")
    rev_up = _build_up(base.reversed_view(), k, h)
    n = base.n
    layered = TwoMetricGraph((h + 1) * n, directed=True)
    back: List[Tuple[int, ...]] = []
    for e in range(rev_up.graph.m):
        tail, head = rev_up.graph.tail[e], rev_up.graph.head[e]
        le = layered.add_arc(head, tail, rev_up.graph.c[e], rev_up.graph.l[e])
        assert le == len(back)
        back.append(tuple(reversed(rev_up.back_path[e])))
    return LayeredGraph("down", h, k, base, layered.freeze(), back)


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
