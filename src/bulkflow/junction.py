"""Tree-like preprocessing of directed instances.

Directed instances are rewritten over a forest of per-root tuple trees: the
up tree of root ``r`` has one vertex per path signature ``(r, v1, ..., vi)``
and inherits the layered-expansion edges, so every source-to-sink route is
forced through exactly one zero-cost root link. Single-sink sub-instances of
this forest are group Steiner tree instances, since the unique tree path
makes lengths collapse into one dangling arc per terminal attachment; that
is how the analysis bounds them, and the pipeline solves them with
``single_sink.GreedySingleSink`` without building that view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .graph import GraphError, SolutionLedger, TwoMetricGraph
from .layering import LayeredGraph, build_expansions, pull_back

DEFAULT_NODE_BUDGET = 10 ** 6
# tuple counts are exact up to this many digits, just under Python's default
# limit for printing an int; a larger count is refused with 10**this as its
# lower bound
COUNT_DIGITS = 4299


@dataclass
class JunctionForest:
    """The preprocessed graph: tuple trees, root links, terminal hookups.

    ``layered_edge[a]`` records, per forest arc, which layered edge it
    inherits (side, edge id), and ``back_path[a]`` that edge's base-graph
    arc sequence, so ``layering.pull_back`` maps forest solutions to the base
    graph; zero-cost structural arcs (root links, terminal hookups) map to
    nothing and have an empty back path.
    """

    base: TwoMetricGraph
    up_layer: LayeredGraph
    down_layer: LayeredGraph
    h: int
    graph: TwoMetricGraph
    layered_edge: List[Optional[Tuple[str, int]]]
    up_root: Dict[int, int]
    down_root: Dict[int, int]
    source_vertex: Dict[int, int]
    sink_vertex: Dict[int, int]
    tuple_of: Dict[int, Tuple[str, int, Tuple[int, ...]]]
    root_link_arc: Dict[int, int]
    back_path: List[Tuple[int, ...]] = field(init=False)

    def is_root_link(self, arc: int) -> bool:
        return arc in self._root_link_set

    def __post_init__(self):
        self._root_link_set = set(self.root_link_arc.values())
        layers = {"up": self.up_layer, "down": self.down_layer}
        self.back_path = [() if inherit is None
                          else layers[inherit[0]].back_path[inherit[1]]
                          for inherit in self.layered_edge]


def build_junction_forest(base: TwoMetricGraph, k: int, h: int,
                          sources: Sequence[int], sinks: Sequence[int],
                          node_budget: int = DEFAULT_NODE_BUDGET) -> JunctionForest:
    """Materialize the tuple-tree forest over the layered expansions.

    Refuses instances whose tuple-vertex count would exceed ``node_budget``
    (the count is reported in the error). Vertices: the up tuples (root by
    root, level by level, lexicographic within a level), the down tuples
    alike, the sorted sources, the sorted sinks. Arcs: tree arcs in vertex
    order, root links, then hookups for the given sources and sinks.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    n = base.n
    # 2n * (1 + n + ... + n**h) tuple vertices, in closed form so that any
    # height is refused at once
    if n > 1 and (h + 1) * math.log10(n) > COUNT_DIGITS:
        raise BudgetExceeded(
            f"tuple-tree forest needs more than 10**{COUNT_DIGITS} vertices, "
            f"over the budget {node_budget}", required=10 ** COUNT_DIGITS)
    required = 2 * n * (h + 1 if n == 1 else (n ** (h + 1) - 1) // (n - 1))
    if required > node_budget:
        raise BudgetExceeded(
            f"tuple-tree forest needs {required} vertices, over the budget "
            f"{node_budget}", required=required)
    up_layer, down_layer = build_expansions(base, k, h)

    tuples: List[Tuple[str, int, Tuple[int, ...]]] = []  # vertex id -> tuple
    roots: Dict[str, Dict[int, int]] = {"up": {}, "down": {}}
    leaves: Dict[Tuple[str, int], List[int]] = {}  # (side, last vertex) -> ids
    # (tail, head, c, l, inherited layered edge) per forest arc, in id order
    arcs: List[Tuple[int, int, float, float, Optional[Tuple[str, int]]]] = []
    for side, layer in (("up", up_layer), ("down", down_layer)):
        lg = layer.graph
        edge_at = {ends: e for e, ends in enumerate(zip(lg.tail, lg.head))}
        # a tuple inherits the layered edge between its parent's last vertex
        # and its own; up arcs run child -> parent, down arcs the reverse
        up = side == "up"
        for r in range(n):
            roots[side][r] = len(tuples)
            # (signature, layer vertex of its last base vertex, vertex id)
            level = [((), r, len(tuples))]
            tuples.append((side, r, ()))
            for i in range(1, h + 1):
                below = []
                for tup, p_lv, pid in level:
                    for v in range(n):
                        vid, c_lv, child = len(tuples), i * n + v, tup + (v,)
                        tuples.append((side, r, child))
                        below.append((child, c_lv, vid))
                        le = edge_at.get((c_lv, p_lv) if up else (p_lv, c_lv))
                        if le is not None:
                            ends = (vid, pid) if up else (pid, vid)
                            arcs.append(ends + (lg.c[le], lg.l[le],
                                                (side, le)))
                level = below
            for tup, _lv, vid in level:
                leaves.setdefault((side, tup[-1]), []).append(vid)

    src_ids = {v: vid for vid, v in enumerate(sorted(set(sources)),
                                              len(tuples))}
    snk_ids = {v: vid for vid, v in enumerate(sorted(set(sinks)),
                                              len(tuples) + len(src_ids))}
    up_root, down_root = roots["up"], roots["down"]
    root_link_arc = {r: len(arcs) + r for r in range(n)}
    arcs += [(up_root[r], down_root[r], 0.0, 0.0, None) for r in range(n)]
    arcs += [(sid, leaf, 0.0, 0.0, None) for v, sid in src_ids.items()
             for leaf in leaves.get(("up", v), ())]
    arcs += [(leaf, tid, 0.0, 0.0, None) for v, tid in snk_ids.items()
             for leaf in leaves.get(("down", v), ())]

    tail, head, c, l, layered_edge = ([arc[i] for arc in arcs]
                                      for i in range(5))
    g = TwoMetricGraph.from_arcs(len(tuples) + len(src_ids) + len(snk_ids),
                                 tail, head, c, l)
    if len(layered_edge) != g.m:
        raise GraphError(f"{len(layered_edge)} inherited layered edges for "
                         f"{g.m} forest arcs")
    return JunctionForest(base=base, up_layer=up_layer, down_layer=down_layer,
                          h=h, graph=g, layered_edge=layered_edge,
                          up_root=up_root, down_root=down_root,
                          source_vertex=src_ids, sink_vertex=snk_ids,
                          tuple_of=dict(enumerate(tuples)),
                          root_link_arc=root_link_arc)


def pull_forest_ledger(forest: JunctionForest,
                       ledger: SolutionLedger) -> SolutionLedger:
    """Map a forest ledger down to the base graph (never more expensive).

    Each forest arc stands for its inherited layered edge's base path;
    structural zero-cost arcs vanish. Shared base arcs collapse into one
    purchase. This is ``layering.pull_back`` under its own name; the
    pipeline pulls every mode back through ``pull_back`` itself, and this
    name stays for the benchmark's tracer, which wraps it.
    """
    return pull_back(forest, ledger)


def dump_forest_edges(forest: JunctionForest) -> List[Dict]:
    """Debug dump of the forest in the standard edge JSON schema."""
    label = {vid: f"{side}:{root}|" + ".".join(str(v) for v in tup)
             for vid, (side, root, tup) in forest.tuple_of.items()}
    label.update((vid, f"src:{v}") for v, vid in forest.source_vertex.items())
    label.update((vid, f"snk:{v}") for v, vid in forest.sink_vertex.items())
    rows = []
    g = forest.graph
    for a in range(g.m):
        rows.append({
            "id": a,
            "tail": label[g.tail[a]],
            "head": label[g.head[a]],
            "c": g.c[a],
            "l": g.l[a],
        })
    return rows
