"""Prize-collecting support: the discard option as a virtual root.

A pair with penalty ``q`` gains a private escape route: an arc from its
source to a virtual root vertex upstairs and one from the virtual root to
its sink downstairs, each of length ``q/2`` and no buying cost. Fractional
mass on the virtual root is exactly the fractional discard decision, and
its length contribution prices the penalty into the LP objective with no
special casing. The arcs are usable only by their own pair.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .fractional import PairSpec, RootSpec, SideGraph
from .graph import GraphError
from .rounding import Assignment

VIRTUAL_ROOT_ID = -1


def augment(sides: Sequence[SideGraph], pairs: Sequence[PairSpec]
            ) -> Tuple[Tuple[SideGraph, ...], RootSpec]:
    """Add the virtual root and the pair-private discard arcs to both sides.

    ``sides`` are in (up, down) order. Returns the augmented sides, which
    own their discard arcs, and the virtual root: the new last vertex of
    each side.
    """
    graphs = [side.graph.unfrozen_copy(extra_vertices=1) for side in sides]
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


def settle(penalty: Optional[float], outcome: str) -> float:
    """Penalty charged by a rounding outcome (zero unless dropped)."""
    if outcome == Assignment.DROPPED:
        if penalty is None:
            raise GraphError("dropped a pair that has no penalty")
        return penalty
    return 0.0
