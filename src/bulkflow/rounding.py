"""Online partial rounding of the composite LP.

Only the outer assignment variables are rounded: each root draws a uniform
threshold once per epoch, a pair is assigned to a root whose ``z`` clears
its threshold, and the inner capacity/flow variables are merely rescaled by
``1/threshold`` (capped at 1). The rescaled flows still support a unit
routing for every assigned pair, which is what the downstream single-sink
algorithms rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .flows import FlowNetwork, max_flow
from .fractional import CompositeSolver


@dataclass(frozen=True)
class ThresholdDraw:
    """Per-root rounding thresholds, drawn once per epoch."""

    tau: Dict[int, float]
    seed: object
    lo: float
    hi: float


@dataclass
class ScaledSolution:
    """Element-wise ``min(1, value / tau_root)`` image of the fractional state."""

    x_up: Dict[Tuple[int, int], float]
    x_down: Dict[Tuple[int, int], float]
    f_up: Dict[Tuple[int, int, int], float]
    f_down: Dict[Tuple[int, int, int], float]
    z_rounded: Dict[Tuple[int, int], int]


class Assignment:
    """Write-once map pair -> routing decision (online irrevocability)."""

    ASSIGNED = "assigned"
    FALLBACK = "fallback"
    DROPPED = "dropped"

    def __init__(self):
        self._entries: Dict[int, Tuple[str, Optional[int]]] = {}

    def record(self, pair_index: int, outcome: str, root: Optional[int]) -> None:
        if pair_index in self._entries:
            raise ValueError(f"pair {pair_index} already has an assignment")
        self._entries[pair_index] = (outcome, root)

    def get(self, pair_index: int) -> Tuple[str, Optional[int]]:
        return self._entries[pair_index]

    def __contains__(self, pair_index: int) -> bool:
        return pair_index in self._entries

    def items(self):
        return self._entries.items()


def threshold_interval(n: int) -> Tuple[float, float]:
    """Threshold support ``[1/(2n), 1/(3 log2 n)]``.

    For very small n the upper endpoint can fall below the lower one; the
    interval then collapses to (essentially) the single point ``1/(2n)``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lo = 1.0 / (2.0 * n)
    hi = 1.0 / (3.0 * math.log2(n))
    hi = max(lo * (1.0 + 1e-12), hi)
    return lo, hi


def draw_thresholds(roots: Sequence[int], n: int, seed: object) -> ThresholdDraw:
    """Independent uniform thresholds, one per root, deterministic in seed.

    Each root gets its own stream keyed by (seed, root id), so a root's
    threshold does not depend on which other roots exist; adding the
    prize-collecting virtual root leaves every real root's draw unchanged.
    """
    lo, hi = threshold_interval(n)
    tau = {rid: random.Random(f"thresholds:{seed}:{rid}").uniform(lo, hi)
           for rid in sorted(roots)}
    return ThresholdDraw(tau=tau, seed=seed, lo=lo, hi=hi)


def _scaled_side(side, tau: Dict[int, float]):
    """One side's capacities and flows divided by their root's threshold."""
    x = {(rid, e): min(1.0, v / tau[rid])
         for rid, arr in side.x.items()
         for e, v in enumerate(arr) if side.alive[e]}
    f = {(rid, pi, e): min(1.0, f / tau[rid])
         for (rid, pi), fdict in side.flow.items() for e, f in fdict.items()}
    return x, f


def scale(state: CompositeSolver, draw: ThresholdDraw) -> ScaledSolution:
    """Materialize the scaled solution; pure function of (state, draw)."""
    (x_up, f_up), (x_down, f_down) = (_scaled_side(side, draw.tau)
                                      for side in state.sides)
    z_rounded = {(pi, rid): 1 if zv >= draw.tau[rid] else 0
                 for (pi, rid), zv in state.z.items()}
    return ScaledSolution(x_up, x_down, f_up, f_down, z_rounded)


def choose_root(state: CompositeSolver, draw: ThresholdDraw,
                pair_index: int) -> Tuple[str, Optional[int]]:
    """The rounding decision for one pair, without recording it.

    Among roots whose ``z`` clears the threshold, the largest ``z`` wins
    (smallest root id on ties). A winning virtual root means the pair is
    discarded for its penalty; no clearing root at all means the harness
    routes a direct fallback path.
    """
    best_root: Optional[int] = None
    best_z = -1.0
    for rid in sorted(state.eligible.get(pair_index, ())):
        zv = state.z.get((pair_index, rid), 0.0)
        if zv >= draw.tau[rid] and zv > best_z:
            best_root, best_z = rid, zv
    if best_root is None:
        return (Assignment.FALLBACK, None)
    if state.root_by_id[best_root].virtual:
        return (Assignment.DROPPED, best_root)
    return (Assignment.ASSIGNED, best_root)


def scaled_min_cut(state: CompositeSolver, draw: ThresholdDraw,
                   pair_index: int, root_id: int, side: str) -> float:
    """Max-flow value under the scaled flow capacities for one pair and root.

    For an assigned pair this certifies that the scaled inner solution still
    dominates a unit routing: the cut value must be (numerically) at least 1.
    """
    by_name = {"up": state.up, "down": state.down}
    if side not in by_name:
        raise ValueError(f"unknown side {side!r}")
    record = by_name[side]
    graph, flows = record.graph, record.flow[(root_id, pair_index)]
    source, sink = record.ends(state.pairs[pair_index],
                               state.root_by_id[root_id])
    tau = draw.tau[root_id]
    net = FlowNetwork(graph.n)
    for e, f in flows.items():
        net.add_arc(graph.tail[e], graph.head[e], min(1.0, f / tau), 0.0)
    if source == sink:
        return 1.0
    return max_flow(net, source, sink, value_cap=2.0).value
