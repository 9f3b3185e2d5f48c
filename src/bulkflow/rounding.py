"""Online partial rounding of the composite LP.

Only the outer assignment variables are rounded: each root draws a uniform
threshold once per epoch, when a pair first reads it, and a pair is
assigned to a root whose ``z`` clears its threshold. The inner
capacity/flow variables are never rounded. Divided by the threshold (capped
at 1) they still support a unit routing for every assigned pair, which
``scaled_min_cut`` certifies and the downstream single-sink algorithms rely
on.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from .flows import FlowNetwork, cheapest_flow_curve
from .fractional import CompositeSolver
from .graph import plain_sum

# a collapsed threshold interval keeps this relative width above 1/(2n)
MIN_REL_WIDTH = 1e-12


class Assignment:
    """The outcome labels of a rounding decision."""

    ASSIGNED = "assigned"
    FALLBACK = "fallback"
    DROPPED = "dropped"


def threshold_interval(n: int) -> Tuple[float, float]:
    """Threshold support ``[1/(2n), 1/(3 log2 n)]``.

    For very small n the upper endpoint can fall below the lower one; the
    interval then collapses to (essentially) the single point ``1/(2n)``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lo = 1.0 / (2.0 * n)
    hi = 1.0 / (3.0 * math.log2(n))
    hi = max(lo * (1.0 + MIN_REL_WIDTH), hi)
    return lo, hi


def draw_thresholds(roots: Sequence[int], n: int,
                    seed: object) -> Dict[int, float]:
    """Independent uniform thresholds ``{root id: tau}``, deterministic in seed.

    Each root gets its own stream keyed by (seed, root id), so a root's
    threshold does not depend on which other roots exist; adding the
    prize-collecting virtual root leaves every real root's draw unchanged.
    """
    lo, hi = threshold_interval(n)
    return {rid: _draw(seed, rid, lo, hi) for rid in sorted(roots)}


def _draw(seed: object, rid: int, lo: float, hi: float) -> float:
    return random.Random(f"thresholds:{seed}:{rid}").uniform(lo, hi)


class LazyThresholds(dict):
    """``draw_thresholds(roots, n, seed)``, each root's entry drawn when
    first read: seeding a root's stream costs more than the draw, and most
    epochs read only some roots. Reading a root outside ``roots`` raises
    ``KeyError``, as it does on the eager dict."""

    def __init__(self, roots: Sequence[int], n: int, seed: object):
        super().__init__()
        self._roots = frozenset(roots)
        self._interval = threshold_interval(n)
        self._seed = seed

    def __missing__(self, rid: int) -> float:
        if rid not in self._roots:
            raise KeyError(rid)
        tau = self[rid] = _draw(self._seed, rid, *self._interval)
        return tau


def choose_root(state: CompositeSolver, tau: Dict[int, float],
                pair_index: int) -> Tuple[str, Optional[int]]:
    """The rounding decision for one pair, without recording it.

    Among roots whose ``z`` clears the threshold, the largest ``z`` wins
    (smallest root id on ties). A winning virtual root means the pair is
    discarded for its penalty; no clearing root at all means the harness
    routes a direct fallback path.
    """
    best_root: Optional[int] = None
    best_z = -1.0
    for rid, route in sorted(state.routes.get(pair_index, {}).items()):
        if route.z >= tau[rid] and route.z > best_z:
            best_root, best_z = rid, route.z
    if best_root is None:
        return (Assignment.FALLBACK, None)
    if state.root_by_id[best_root].virtual:
        return (Assignment.DROPPED, best_root)
    return (Assignment.ASSIGNED, best_root)


def scaled_min_cut(state: CompositeSolver, tau: Dict[int, float],
                   pair_index: int, root_id: int, side: str) -> float:
    """Max-flow value under the scaled flow capacities for one pair and root.

    For an assigned pair this certifies that the scaled inner solution still
    dominates a unit routing: the cut value must be (numerically) at least 1.
    Every arc costs nothing, so the cheapest-flow curve is a maximum flow and
    its value the plain sum of its amounts.
    """
    positions = {"up": 0, "down": 1}
    if side not in positions:
        raise ValueError(f"unknown side {side!r}")
    funnel = state.routes[pair_index][root_id].funnels[positions[side]]
    graph, flows = state.sides[positions[side]].graph, funnel.flow
    source, sink = funnel.ends
    net = FlowNetwork(graph.n, [graph.tail[e] for e in flows],
                      [graph.head[e] for e in flows],
                      [min(1.0, f / tau[root_id]) for f in flows.values()],
                      [0.0] * len(flows))
    if source == sink:
        return 1.0
    return plain_sum(seg.amount for seg in
                     cheapest_flow_curve(net, source, sink, value_cap=2.0))
