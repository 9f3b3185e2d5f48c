"""Instance files: the JSON schema and its mapping onto internal graphs.

Schema::

    {
      "directed": bool,
      "n": int,
      "mode": "edge" | "node" | "prize",
      "edges": [{"id": int, "tail": int, "head": int, "c": num, "l": num}],
      "pairs": [{"s": int, "t": int, "q": num?, "d": int?}],
      "node_costs": [{"v": int, "c": num, "l": num}]   # node mode only
    }

Node-weighted inputs are split immediately (vertex v becomes an internal
arc ``v_in -> v_out``); terminals map to ``v_out`` for sources and ``v_in``
for sinks. Demands other than 1 are rejected.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from .errors import InstanceError
from .graph import TerminalPair, TwoMetricGraph, split_node_weights

MODES = ("edge", "node", "prize")


@dataclass
class Instance:
    """A loaded problem: internal graph, mapped pairs, and display metadata."""

    graph: TwoMetricGraph
    pairs: List[TerminalPair]
    mode: str
    directed: bool
    display_n: int
    name: str = ""

    @property
    def k(self) -> int:
        return len(self.pairs)


def load_instance(source: Union[str, Path, dict], name: str = "") -> Instance:
    """Parse an instance from a dict or a JSON file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InstanceError(f"cannot read instance {path}: {exc}") from exc
        name = name or path.stem
    else:
        data = source
    try:
        return _parse(data, name)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"bad instance {name or '<dict>'}: {exc}") from exc


def as_int(value: object, what: str) -> int:
    """``value`` as an int: ints and integral floats pass; fractions, bools,
    strings and non-finite numbers are refused."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_float(value: object, what: str) -> float:
    """``value`` as a float: ints and floats pass; bools and strings are
    refused (finiteness is checked where the value is used)."""
    # int and float are tested before the slower ABC check
    if isinstance(value, bool) or not isinstance(
            value, (int, float, numbers.Real)):
        raise InstanceError(f"{what} must be a number, got {value!r}")
    return float(value)


def _missing(block: str, index: int, exc: KeyError) -> InstanceError:
    """The error for a ``block`` entry that lacks the field ``exc`` names."""
    return InstanceError(f"{block} entry {index} has no {exc.args[0]!r} "
                         f"field")


def _objects(entries: object, what: str) -> list:
    """``entries``, which must be a list of JSON objects."""
    if not isinstance(entries, list):
        raise InstanceError(f"{what} must be a list of objects, got "
                            f"{type(entries).__name__} {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise InstanceError(f"each {what} entry must be an object, "
                                f"got {entry!r}")
    return entries


def _parse(data: dict, name: str) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError(f"an instance must be a JSON object, got "
                            f"{type(data).__name__}")
    mode = data.get("mode", "edge")
    if mode not in MODES:
        raise InstanceError(f"unknown mode {mode!r}")
    if "n" not in data:
        raise InstanceError("the instance has no 'n' field")
    n = as_int(data["n"], "n")
    if n < 1:
        raise InstanceError("n must be positive")
    directed = data.get("directed", False)
    if not isinstance(directed, bool):
        raise InstanceError(
            f"directed must be true or false, got {directed!r}")
    edges = _objects(data.get("edges", []), "edges")
    raw_pairs = _objects(data.get("pairs", []), "pairs")

    for i, ed in enumerate(edges):
        as_int(ed.get("id", 0), "id")  # validated, though nothing reads it
        try:
            tail, head = ed["tail"], ed["head"]
        except KeyError as exc:
            raise _missing("edges", i, exc) from None
        if not (0 <= as_int(tail, "tail") < n
                and 0 <= as_int(head, "head") < n):
            raise InstanceError(f"edge endpoint out of range: {ed}")
    for i, pr in enumerate(raw_pairs):
        try:
            s, t = pr["s"], pr["t"]
        except KeyError as exc:
            raise _missing("pairs", i, exc) from None
        if not (0 <= as_int(s, "s") < n and 0 <= as_int(t, "t") < n):
            raise InstanceError(f"pair endpoint out of range: {pr}")
        if as_int(pr.get("d", 1), "d") != 1:
            raise InstanceError(f"pair demand must be 1, got {pr.get('d')}")
        if "q" in pr and mode != "prize":
            raise InstanceError("penalties are only allowed in prize mode")

    if mode == "node":
        costs = data.get("node_costs")
        if costs is None:
            raise InstanceError("node mode requires a node_costs block")
        node_c = [0.0] * n
        node_l = [0.0] * n
        seen = set()
        for i, entry in enumerate(_objects(costs, "node_costs")):
            try:
                v, c, l = entry["v"], entry["c"], entry["l"]
            except KeyError as exc:
                raise _missing("node_costs", i, exc) from None
            v = as_int(v, "v")
            if not 0 <= v < n or v in seen:
                raise InstanceError(f"bad node_costs entry {entry}")
            seen.add(v)
            node_c[v] = as_float(c, "c")
            node_l[v] = as_float(l, "l")
        edge_list = [(int(ed["tail"]), int(ed["head"])) for ed in edges]
        graph, mapping = split_node_weights(n, node_c, node_l, edge_list,
                                            directed=directed)
        pairs = [TerminalPair(index=i,
                              s=mapping["source_vertex"][int(pr["s"])],
                              t=mapping["sink_vertex"][int(pr["t"])])
                 for i, pr in enumerate(raw_pairs)]
        # the split graph is always directed, whatever the input edges were
        return Instance(graph=graph, pairs=pairs, mode=mode, directed=True,
                        display_n=n, name=name)

    graph = TwoMetricGraph(n, directed=directed)
    for i, ed in enumerate(edges):
        try:
            c, l = ed["c"], ed["l"]
        except KeyError as exc:
            raise _missing("edges", i, exc) from None
        graph.add_edge(int(ed["tail"]), int(ed["head"]),
                       as_float(c, "c"), as_float(l, "l"))
    graph.freeze()
    pairs = []
    for i, pr in enumerate(raw_pairs):
        penalty = as_float(pr["q"], "q") if "q" in pr else None
        pairs.append(TerminalPair(index=i, s=int(pr["s"]), t=int(pr["t"]),
                                  penalty=penalty))
    return Instance(graph=graph, pairs=pairs, mode=mode, directed=directed,
                    display_n=n, name=name)


def dump_instance(data: dict, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
