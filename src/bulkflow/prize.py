"""Prize-collecting support: the discard option as a virtual root.

A pair with penalty ``q`` gains a private escape route: an arc from its
source to a virtual root vertex upstairs and one from the virtual root to
its sink downstairs, each of length ``q/2`` and no buying cost. Fractional
mass on the virtual root is exactly the fractional discard decision, and
its length contribution prices the penalty into the LP objective with no
special casing. The arcs are usable only by their own pair.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .fractional import PairSpec, RootSpec, SideGraph
from .graph import GraphError, TwoMetricGraph
from .rounding import Assignment

VIRTUAL_ROOT_ID = -1


def augment(sides: Sequence[SideGraph], pairs: Sequence[PairSpec]
            ) -> Tuple[Tuple[SideGraph, ...], RootSpec]:
    """Add the virtual root and the pair-private discard arcs to both sides.

    ``sides`` are in (up, down) order. Returns the augmented sides, which
    own their discard arcs, and the virtual root: the new last vertex of
    each side. A side keeps its arcs, ids, ``twin`` and ``directed``; the
    discard arcs follow in pair order.
    """
    virtual = RootSpec(VIRTUAL_ROOT_ID, *(side.graph.n for side in sides),
                       virtual=True)
    charged = [pair for pair in pairs if pair.penalty is not None]
    for pair in charged:
        if pair.penalty < 0:
            raise GraphError(f"pair {pair.index}: negative penalty")
    lengths = [pair.penalty / 2.0 for pair in charged]
    augmented = []
    for side in sides:
        g = side.graph
        ends = [side.ends(pair, virtual) for pair in charged]
        graph = TwoMetricGraph.from_arcs(
            g.n + 1, g.tail + [s for s, _ in ends],
            g.head + [t for _, t in ends], g.c + [0.0] * len(charged),
            g.l + lengths)
        graph.directed, graph.twin = g.directed, g.twin + [-1] * len(charged)
        owner = {g.m + i: pair.index for i, pair in enumerate(charged)}
        augmented.append(SideGraph(graph, side.upward, owner))
    return tuple(augmented), virtual


def settle(penalty: Optional[float], outcome: str) -> float:
    """Penalty charged by a rounding outcome (zero unless dropped)."""
    if outcome == Assignment.DROPPED:
        if penalty is None:
            raise GraphError("dropped a pair that has no penalty")
        return penalty
    return 0.0
