"""Prize-collecting support: the discard option as a virtual root.

A pair with penalty ``q`` gains a private escape route: an arc from its
source to a virtual root vertex upstairs and one from the virtual root to
its sink downstairs, each of length ``q/2`` and no buying cost. Fractional
mass on the virtual root is exactly the fractional discard decision, and
its length contribution prices the penalty into the LP objective with no
special casing. The arcs are usable only by their own pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .fractional import PairSpec, RootSpec
from .graph import GraphError, TwoMetricGraph
from .rounding import Assignment

VIRTUAL_ROOT_ID = -1


@dataclass
class PenaltyAugmentation:
    """Extended side graphs plus ownership of the per-pair penalty arcs."""

    up_graph: TwoMetricGraph
    down_graph: TwoMetricGraph
    up_owner: Dict[int, int]
    down_owner: Dict[int, int]
    virtual_root: RootSpec
    up_arc_of_pair: Dict[int, int]


def augment(up_graph: TwoMetricGraph, down_graph: TwoMetricGraph,
            pairs: Sequence[PairSpec]) -> PenaltyAugmentation:
    """Add the virtual root and the pair-private discard arcs to both sides."""
    up = up_graph.unfrozen_copy(extra_vertices=1)
    down = down_graph.unfrozen_copy(extra_vertices=1)
    virtual_up = up.n - 1
    virtual_down = down.n - 1
    up_owner: Dict[int, int] = {}
    down_owner: Dict[int, int] = {}
    up_arc_of_pair: Dict[int, int] = {}
    for pair in pairs:
        if pair.penalty is None:
            continue
        if pair.penalty < 0:
            raise GraphError(f"pair {pair.index}: negative penalty")
        e_up = up.add_arc(pair.up_source, virtual_up, 0.0, pair.penalty / 2.0,
                          source=("penalty", pair.index))
        e_down = down.add_arc(virtual_down, pair.down_sink, 0.0,
                              pair.penalty / 2.0, source=("penalty", pair.index))
        up_owner[e_up] = pair.index
        down_owner[e_down] = pair.index
        up_arc_of_pair[pair.index] = e_up
    spec = RootSpec(root_id=VIRTUAL_ROOT_ID, up_vertex=virtual_up,
                    down_vertex=virtual_down, virtual=True)
    return PenaltyAugmentation(up_graph=up.freeze(), down_graph=down.freeze(),
                               up_owner=up_owner, down_owner=down_owner,
                               virtual_root=spec,
                               up_arc_of_pair=up_arc_of_pair)


def settle(penalty: Optional[float], outcome: str) -> float:
    """Penalty charged by a rounding outcome (zero unless dropped)."""
    if outcome == Assignment.DROPPED:
        if penalty is None:
            raise GraphError("dropped a pair that has no penalty")
        return penalty
    return 0.0
