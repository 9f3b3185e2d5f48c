"""Tree-like preprocessing of directed instances and the group Steiner view.

Directed instances are rewritten over a forest of per-root tuple trees: the
up tree of root ``r`` has one vertex per path signature ``(r, v1, ..., vi)``
and inherits the layered-expansion edges, so every source-to-sink route is
forced through exactly one zero-cost root link. Single-sink sub-instances of
this forest are literally group Steiner tree instances: the unique tree path
makes lengths collapse into one dangling arc per terminal attachment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded
from .graph import GraphError, SolutionLedger, TwoMetricGraph
from .layering import LayeredGraph, build_layered, pull_back
from .single_sink import GroupSteinerInstance

DEFAULT_NODE_BUDGET = 10 ** 6


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


def _tuple_count(n: int, h: int) -> int:
    total = 0
    power = 1
    for _ in range(h + 1):
        total += power
        power *= n
    return total


def build_junction_forest(base: TwoMetricGraph, k: int, h: int,
                          sources: Sequence[int], sinks: Sequence[int],
                          node_budget: int = DEFAULT_NODE_BUDGET) -> JunctionForest:
    """Materialize the tuple-tree forest over the layered expansions.

    Refuses instances whose tuple-vertex count would exceed ``node_budget``
    (the count is reported in the error). Terminal hookup arcs are added for
    the given source and sink vertices only.
    """
    if h < 1:
        raise GraphError("height must be >= 1")
    n = base.n
    required = 2 * n * _tuple_count(n, h)
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


def pull_forest_ledger(forest: JunctionForest,
                       ledger: SolutionLedger) -> SolutionLedger:
    """Map a forest ledger down to the base graph (never more expensive).

    Each forest arc stands for its inherited layered edge's base path;
    structural zero-cost arcs vanish. Shared base arcs collapse into one
    purchase.
    """
    return pull_back(forest, ledger)


@dataclass
class GstSubInstance:
    """A single-sink sub-instance of the forest viewed as group Steiner.

    Internal vertices are forest vertex ids; dangling vertices get fresh ids
    past the forest's. ``dangling[d] = (terminal index, leaf vertex, hookup
    arc)`` identifies what each dangling arc stands for.
    """

    forest: JunctionForest
    side: str
    root: int
    junction: int
    instance: GroupSteinerInstance
    dangling: Dict[int, Tuple[int, int, int]]
    tree_arc_id: Dict[Tuple[int, int], int]
    infeasible_terminals: Tuple[int, ...]

    def solution_weight(self, connections: Dict[int, int]) -> float:
        """Weight of the canonical solution connecting the chosen members."""
        arcs: Set[Tuple[int, int]] = set()
        total = 0.0
        for gid, member in connections.items():
            for child, parent, w in self.instance.root_path(member):
                if (child, parent) not in arcs:
                    arcs.add((child, parent))
                    total += w
        return total

    def to_forest_ledger(self, connections: Dict[int, int]) -> SolutionLedger:
        """Forest-graph ledger of a group Steiner solution (equal objective)."""
        ledger = SolutionLedger()
        for gid, member in connections.items():
            terminal_index, leaf, hookup = self.dangling[member]
            tree_path: List[int] = []
            for child, parent, _w in self.instance.root_path(member):
                if child in self.dangling:
                    continue  # the dangling arc itself is the hookup
                tree_path.append(self.tree_arc_id[(child, parent)])
            if self.side == "up":
                path = (hookup,) + tuple(tree_path)
            else:
                # down side: forest arcs run junction -> leaf -> terminal
                path = tuple(reversed(tree_path)) + (hookup,)
            ledger.add_path(self.forest.graph, gid, path)
        return ledger

    def to_base_ledger(self, connections: Dict[int, int]) -> SolutionLedger:
        return pull_forest_ledger(self.forest, self.to_forest_ledger(connections))


def map_to_gst(forest: JunctionForest, side: str, root: int,
               terminals: Sequence[int],
               junction: Optional[int] = None) -> GstSubInstance:
    """View the subtree under a junction vertex as a group Steiner instance.

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


def root_links_on_path(forest: JunctionForest, path: Sequence[int]) -> int:
    """How many root-link arcs a forest path crosses (must be exactly 1)."""
    return sum(1 for a in path if forest.is_root_link(a))


def forest_vertex_label(forest: JunctionForest, vertex: int) -> str:
    if vertex in forest.tuple_of:
        side, root, tup = forest.tuple_of[vertex]
        suffix = ".".join(str(v) for v in tup)
        return f"{side}:{root}|{suffix}" if suffix else f"{side}:{root}|"
    for v, vid in forest.source_vertex.items():
        if vid == vertex:
            return f"src:{v}"
    for v, vid in forest.sink_vertex.items():
        if vid == vertex:
            return f"snk:{v}"
    return str(vertex)


def dump_forest_edges(forest: JunctionForest) -> List[Dict]:
    """Debug dump of the forest in the standard edge JSON schema."""
    rows = []
    g = forest.graph
    for a in range(g.m):
        rows.append({
            "id": a,
            "tail": forest_vertex_label(forest, g.tail[a]),
            "head": forest_vertex_label(forest, g.head[a]),
            "c": g.c[a],
            "l": g.l[a],
        })
    return rows
