"""The online single-sink (and single-source) algorithm.

The multicommodity pipeline builds one ``GreedySingleSink`` per root and
side and uses its ``on_terminal``, ``marginal_cost`` and ``ledger``. It
augments greedily: each terminal takes the path minimizing marginal cost,
where already-bought edges charge only their length. Sink instances route
terminal -> root, source instances root -> terminal; both run the same
marginal-weight search, once per ``marginal_cost`` or ``on_terminal`` call.

On the junction forest each instance is a group Steiner instance on a tree
(``junction.map_to_gst``), and this greedy is the online group Steiner greedy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .graph import GraphError, SolutionLedger, TwoMetricGraph, shortest_path


def combined_weight(graph: TwoMetricGraph) -> List[float]:
    """``c + l`` per arc: what a terminal pays on an arc nothing has bought."""
    return [c + l for c, l in zip(graph.c, graph.l)]


class GreedySingleSink:
    """Online greedy augmentation toward (or from) a fixed root.

    Keeps a nondecreasing bought set and immutable committed paths. The
    reported cost always equals exact ledger accounting: each purchase once,
    each traversal's length once.
    """

    def __init__(self, graph: TwoMetricGraph, root: int,
                 direction: str = "sink",
                 weight: Optional[Sequence[float]] = None):
        """``weight``, when given, is ``graph``'s ``c + l`` list, so that
        instances on one graph share its construction; each instance keeps
        its own copy."""
        if direction not in ("sink", "source"):
            raise GraphError(f"unknown direction {direction!r}")
        self.graph = graph
        self.root = root
        self.direction = direction
        self.ledger = SolutionLedger()
        # marginal weight per arc: c + l, or l alone once its purchase (which
        # a twin shares) is bought
        self._weight = (combined_weight(graph) if weight is None
                        else list(weight))

    def _cheapest(self, terminal: int) -> Tuple[Tuple[int, ...], float]:
        """Marginal-cheapest path for the terminal under the current ledger."""
        ends = ((terminal, self.root) if self.direction == "sink"
                else (self.root, terminal))
        return shortest_path(self.graph, self._weight, *ends)

    def marginal_cost(self, terminal: int) -> float:
        """Cost serving this terminal would add right now (no commitment)."""
        return self._cheapest(terminal)[1]

    def on_terminal(self, terminal: int, pair_index: int) -> Tuple[int, ...]:
        """Serve one terminal; buys the marginal-cheapest path and commits it
        as ``pair_index``'s."""
        path, _ = self._cheapest(terminal)
        self.ledger.add_path(self.graph, pair_index, path)
        l, twin, weight = self.graph.l, self.graph.twin, self._weight
        for e in path:
            weight[e] = l[e]
            if twin[e] >= 0:
                weight[twin[e]] = l[twin[e]]
        return path
