"""Online single-sink (and single-source) subalgorithms.

The multicommodity pipeline builds one ``GreedySingleSink`` per root and
side and uses its ``on_terminal``, ``marginal_cost`` and ``ledger``. It
augments greedily: each terminal takes the path minimizing marginal cost,
where already-bought edges charge only their length. Sink instances route
terminal -> root, source instances root -> terminal; both share the same
residual-weight shortest-path core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .graph import (GraphError, SolutionLedger, TwoMetricGraph, plain_sum,
                    shortest_path)


class GreedySingleSink:
    """Online greedy augmentation toward (or from) a fixed root.

    Keeps a nondecreasing bought set and immutable committed paths. The
    reported cost always equals exact ledger accounting: each purchase once,
    each traversal's length once.
    """

    def __init__(self, graph: TwoMetricGraph, root: int,
                 direction: str = "sink"):
        if direction not in ("sink", "source"):
            raise GraphError(f"unknown direction {direction!r}")
        self.graph = graph
        self.root = root
        self.direction = direction
        self.ledger = SolutionLedger()
        # (terminal, path, cost) of the last search; the ledger changes only
        # in on_terminal, which drops it
        self._quote: Optional[Tuple[int, Tuple[int, ...], float]] = None

    def _marginal_weight(self, e: int) -> float:
        if self.graph.purchase_key(e) in self.ledger.bought:
            return self.graph.l[e]
        return self.graph.c[e] + self.graph.l[e]

    def _cheapest(self, terminal: int) -> Tuple[Tuple[int, ...], float]:
        """Marginal-cheapest path for the terminal under the current ledger."""
        if self._quote is None or self._quote[0] != terminal:
            if self.direction == "sink":
                start, goal = terminal, self.root
            else:
                start, goal = self.root, terminal
            path, cost = shortest_path(self.graph, self._marginal_weight,
                                       start, goal)
            self._quote = (terminal, path, cost)
        return self._quote[1], self._quote[2]

    def marginal_cost(self, terminal: int) -> float:
        """Cost serving this terminal would add right now (no commitment)."""
        return self._cheapest(terminal)[1]

    def on_terminal(self, terminal: int,
                    pair_index: Optional[int] = None) -> Tuple[int, ...]:
        """Serve one terminal; buys the marginal-cheapest path and commits it."""
        path, _ = self._cheapest(terminal)
        self._quote = None
        key = pair_index if pair_index is not None else len(self.ledger.paths)
        self.ledger.add_path(self.graph, key, path)
        return path

    def cost(self) -> Tuple[float, float]:
        return self.ledger.buy_cost, self.ledger.length_cost

    @property
    def bought(self) -> Set[int]:
        return self.ledger.bought


@dataclass
class GroupSteinerInstance:
    """Rooted tree with arc weights and leaf groups to be connected.

    ``parent_arc[v]`` gives (parent vertex, weight) for every non-root
    vertex; groups map a group id to its member vertices.
    """

    root: int
    parent_arc: Dict[int, Tuple[int, float]]
    groups: Dict[int, Tuple[int, ...]]

    def root_path(self, v: int) -> List[Tuple[int, int, float]]:
        """Arcs (child, parent, weight) from v up to the root."""
        path = []
        while v != self.root:
            if v not in self.parent_arc:
                raise GraphError(f"vertex {v} has no path to the root")
            parent, w = self.parent_arc[v]
            path.append((v, parent, w))
            v = parent
        return path


class GroupSteinerGreedy:
    """Online greedy for group connection on a tree.

    Each arriving group buys the root path of its cheapest member, where
    already-bought tree arcs cost nothing. Serves as the stand-in for an
    online group Steiner tree algorithm behind the same interface.
    """

    def __init__(self, instance: GroupSteinerInstance):
        self.instance = instance
        self.bought: Set[Tuple[int, int]] = set()
        self.total_weight = 0.0
        self.connections: Dict[int, int] = {}

    def residual_cost(self, v: int) -> float:
        return plain_sum(w for child, parent, w in self.instance.root_path(v)
                         if (child, parent) not in self.bought)

    def on_group(self, group_id: int) -> int:
        """Connect one group; returns the chosen member vertex."""
        members = self.instance.groups.get(group_id, ())
        if not members:
            raise GraphError(f"group {group_id} is empty")
        best = min(members, key=lambda v: (self.residual_cost(v), v))
        for child, parent, w in self.instance.root_path(best):
            if (child, parent) not in self.bought:
                self.bought.add((child, parent))
                self.total_weight += w
        self.connections[group_id] = best
        return best
