"""The online single-sink (and single-source) algorithm.

The multicommodity pipeline builds one ``GreedySingleSink`` per root and
side and uses its ``on_terminal``, ``marginal_cost`` and ``ledger``. It
augments greedily: each terminal takes the path minimizing marginal cost,
where already-bought edges charge only their length. Sink instances route
terminal -> root, source instances root -> terminal; both share the same
residual-weight shortest-path core.

On the junction forest each instance is a group Steiner instance on a tree
(``junction.map_to_gst``), and this greedy is the online group Steiner greedy.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .graph import GraphError, SolutionLedger, TwoMetricGraph, shortest_path


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
