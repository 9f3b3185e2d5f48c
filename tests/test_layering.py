import random

import pytest

from bulkflow import fractional, graph, layering
from bulkflow.generate import grid, random_digraph, with_penalties
from bulkflow.graph import (GraphError, SolutionLedger, TwoMetricGraph,
                            Unreachable, reachable_from, shortest_path,
                            solution_cost, split_node_weights)
from bulkflow.harness import OnlinePipeline, RunConfig
from bulkflow.instance import load_instance
from bulkflow.layering import (WEIGHT_CAP, build_expansions, build_layered,
                               default_height, dump_layered_edges, pull_back)
from helpers import build_graph, random_two_metric, reference_build_layered


def find_layer_edge(layered, u, lu, v, lv):
    g = layered.graph
    for e in range(g.m):
        if (g.tail[e] == layered.vertex(u, lu)
                and g.head[e] == layered.vertex(v, lv)):
            return e
    return None


class TestBuildLayered:
    def test_single_arc_top_level(self):
        g = build_graph(2, [(0, 1, 2, 3)])
        up = build_layered(g, k=16, h=4)
        e = find_layer_edge(up, 0, 4, 1, 3)
        # exponent 16**(1 - 4/4) == 1, so the blended metric is c + l
        assert up.graph.c[e] == pytest.approx(5.0)
        assert up.graph.l[e] == pytest.approx(3.0)

    def test_single_arc_level_one(self):
        g = build_graph(2, [(0, 1, 2, 3)])
        up = build_layered(g, k=16, h=4)
        e = find_layer_edge(up, 0, 1, 1, 0)
        # 16**(3/4) == 8
        assert up.graph.c[e] == pytest.approx(2 + 8 * 3)

    def test_h_one_uses_combined_metric(self):
        g = build_graph(3, [(0, 1, 2, 3), (1, 2, 1, 1)])
        up = build_layered(g, k=5, h=1)
        e = find_layer_edge(up, 0, 1, 2, 0)
        assert up.graph.c[e] == pytest.approx((2 + 3) + (1 + 1))
        assert up.graph.l[e] == pytest.approx(4.0)

    def test_vertex_count_and_level_structure(self):
        g = random_two_metric(random.Random(1), 4, 8)
        up = build_layered(g, k=3, h=3)
        assert up.graph.n == 4 * (3 + 1)
        for e in range(up.graph.m):
            assert up.level_of(up.graph.tail[e]) == up.level_of(up.graph.head[e]) + 1

    def test_every_top_to_root_path_has_h_edges(self):
        g = random_two_metric(random.Random(2), 4, 10, ensure_cycle=True)
        h = 3
        up = build_layered(g, k=2, h=h)
        # walk any greedy path from level h to level 0
        v = up.vertex(0, h)
        hops = 0
        while up.level_of(v) > 0:
            arcs = up.graph.out_arcs[v]
            assert arcs, "dead end above level 0"
            v = up.graph.head[arcs[0]]
            hops += 1
        assert hops == h

    def test_stay_edges_are_free(self):
        g = build_graph(2, [(0, 1, 2, 3)])
        up = build_layered(g, k=4, h=2)
        e = find_layer_edge(up, 0, 2, 0, 1)
        assert up.graph.c[e] == 0 and up.graph.l[e] == 0
        assert up.back_path[e] == ()

    def test_unreachable_pairs_have_no_edge(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        up = build_layered(g, k=2, h=1)
        assert find_layer_edge(up, 1, 1, 0, 0) is None

    def test_down_edges_pack_root_to_terminal_paths(self):
        from bulkflow.graph import shortest_path
        g = random_two_metric(random.Random(3), 4, 9)
        k, h = 3, 2
        down = build_layered(g, k=k, h=h, direction="down")
        for e in range(down.graph.m):
            t, hd = down.graph.tail[e], down.graph.head[e]
            v, u = down.base_vertex(t), down.base_vertex(hd)
            level = down.level_of(hd)
            assert down.level_of(t) == level - 1
            factor = float(k) ** (1.0 - level / h)
            _, expected = shortest_path(
                g, lambda a: g.c[a] + factor * g.l[a], v, u)
            assert down.graph.c[e] == pytest.approx(expected)
            # the remembered path runs v -> u in the base graph
            back = down.back_path[e]
            if back:
                assert g.tail[back[0]] == v and g.head[back[-1]] == u

    def test_saturated_weight_warns_and_is_capped(self):
        g = build_graph(2, [(0, 1, 1e17, 1e17)])
        with pytest.warns(RuntimeWarning, match="saturated"):
            up, down = build_expansions(g, k=100, h=2)
        # level 1 blends 1e17 + 100**0.5 * 1e17 > WEIGHT_CAP
        assert up.graph.c[find_layer_edge(up, 0, 1, 1, 0)] == WEIGHT_CAP
        assert down.graph.c[find_layer_edge(down, 0, 0, 1, 1)] == WEIGHT_CAP
        # level 2 blends 1e17 + 1e17, under the cap
        assert up.graph.c[find_layer_edge(up, 0, 2, 1, 1)] == 2e17

    def test_rejects_bad_parameters(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        with pytest.raises(GraphError):
            build_layered(g, k=1, h=0)
        with pytest.raises(GraphError):
            build_layered(g, k=0, h=1)


def _reference_up_arcs(base, k, h):
    """Up arcs built with one point-to-point search per (level, u, v)."""
    n, arcs = base.n, []
    for level in range(h, 0, -1):
        factor = float(k) ** (1.0 - level / h)
        for u in range(n):
            for v in range(n):
                try:
                    path, cost = shortest_path(
                        base, lambda e: min(base.c[e] + factor * base.l[e],
                                            WEIGHT_CAP), u, v)
                except Unreachable:
                    continue
                arcs.append((level * n + u, (level - 1) * n + v,
                             min(cost, WEIGHT_CAP),
                             sum(base.l[e] for e in path), path))
    return arcs


def _reference_arcs(base, k, h, direction):
    if direction == "up":
        return _reference_up_arcs(base, k, h)
    return [(head, tail, c, l, tuple(reversed(path))) for tail, head, c, l, path
            in _reference_up_arcs(base.reversed_view(), k, h)]


def _layered_arcs(layered):
    g = layered.graph
    return [(g.tail[e], g.head[e], g.c[e], g.l[e], layered.back_path[e])
            for e in range(g.m)]


def _split_grid():
    rng = random.Random(5)
    n = 6
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    node_c = [rng.choice([0.0, 0.5, 1.0]) for _ in range(n)]
    node_l = [rng.choice([0.0, 0.25]) for _ in range(n)]
    return split_node_weights(n, node_c, node_l, edges)[0]


def _tie_heavy_grid():
    """Directed 3x4 grid, some steps both ways, with integer ``c`` and ``l``
    of 0.5 or an integer: equal-weight paths abound."""
    rng = random.Random(8)
    g = TwoMetricGraph(12, directed=True)
    for v in range(12):
        for w in ([v + 1] if v % 4 < 3 else []) + ([v + 4] if v < 8 else []):
            for tail, head in [(v, w), (w, v)][:rng.randint(1, 2)]:
                g.add_arc(tail, head, rng.choice([0, 1, 2]),
                          rng.choice([0.5, 0, 1]))
    return g.freeze()


BASES = {
    "grid": lambda: load_instance(grid(2, 3, k=3, seed=4)).graph,
    "split": _split_grid,
    "digraph": lambda: load_instance(random_digraph(
        6, 14, 3, 7, strongly_connected=False)).graph,
    "ties": _tie_heavy_grid,
}


class TestSingleSourceLayering:
    @pytest.mark.parametrize("base_name", ["grid", "split", "digraph", "ties"])
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_equals_point_to_point_reference(self, base_name, direction):
        base = BASES[base_name]()
        if base_name == "digraph":  # not strongly connected: arcs go missing
            assert len(reachable_from(base, base.n - 1)) < base.n
        for k, h in ((3, 1), (3, 3), (5, 2)):
            layered = build_layered(base, k=k, h=h, direction=direction)
            # exact equality: same arcs in the same order, bit-equal c and l
            assert _layered_arcs(layered) == _reference_arcs(base, k, h,
                                                             direction)

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_one_search_per_source_and_level(self, monkeypatch, direction):
        calls = []
        kernel = layering.shortest_paths

        def counting(graph, weight, start, *args, **kwargs):
            calls.append(start)
            return kernel(graph, weight, start, *args, **kwargs)

        monkeypatch.setattr(layering, "shortest_paths", counting)
        base = load_instance(grid(2, 3, k=3, seed=4)).graph
        h = 3
        build_layered(base, k=3, h=h, direction=direction)
        assert len(calls) == h * base.n
        assert sorted(calls) == sorted(list(range(base.n)) * h)


def _hex_expansion(layered):
    """Everything a layered graph holds, floats as ``float.hex``."""
    g = layered.graph
    return (layered.direction, layered.h, layered.k, g.n, g.directed, g.tail,
            g.head, [x.hex() for x in g.c], [x.hex() for x in g.l], g.twin,
            g.out_arcs, g.in_arcs, layered.back_path)


def _undirected_ties(rng, rows=4, cols=5):
    """Undirected grid with ``c`` an integer in 0-3 and ``l`` 0.5 or an
    integer in 0-2: equal-weight routes abound."""
    g = TwoMetricGraph(rows * cols, directed=False)
    for v in range(rows * cols):
        for w in (([v + 1] if v % cols < cols - 1 else [])
                  + ([v + cols] if v < (rows - 1) * cols else [])):
            g.add_edge(v, w, rng.randint(0, 3), rng.choice([0.5, 0, 1, 2]))
    return g.freeze()


def _zeros_and_parallels():
    """Undirected, with zero lengths, parallel edges and a loop."""
    return build_graph(4, [(0, 1, 1, 0), (0, 1, 1, 0), (0, 1, 0.5, 0),
                           (1, 2, 0, 0), (2, 3, 1, 0.5), (2, 3, 1, 0),
                           (3, 0, 2, 0), (1, 1, 0, 0), (3, 1, 0, 1)],
                       directed=False)


def _bare_arcs_undirected():
    """Undirected by flag, but built with ``add_arc``: no arc has a twin."""
    g = TwoMetricGraph(4, directed=False)
    for tail, head in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (0, 3)]:
        g.add_arc(tail, head, 1, 0.5)
    return g.freeze()


TIES = random.Random(12)
PAIR_BASES = {
    **{f"grid4x4-{s}": (lambda s=s: load_instance(grid(4, 4, k=2, seed=s))
                        .graph) for s in range(3)},
    **{f"grid3x5-{s}": (lambda s=s: load_instance(grid(3, 5, k=3, seed=s))
                        .graph) for s in range(3)},
    **{f"ties-{i}": (lambda g=_undirected_ties(TIES): g) for i in range(8)},
    "zeros-parallels": _zeros_and_parallels,
    "bare-arcs": _bare_arcs_undirected,
    "digraph": BASES["digraph"],
    "directed-ties": BASES["ties"],
}
MIRRORED = {name for name in PAIR_BASES
            if name.startswith(("grid", "ties", "zeros"))}


class TestBuildExpansions:
    @pytest.mark.parametrize("name", sorted(PAIR_BASES))
    def test_equals_reference_builder(self, name):
        base = PAIR_BASES[name]()
        assert layering._twinned(base) == (name in MIRRORED)
        for h in (1, 2, 3):
            up, down = build_expansions(base, k=3, h=h)
            assert _hex_expansion(up) == _hex_expansion(
                reference_build_layered(base, 3, h, "up"))
            assert _hex_expansion(down) == _hex_expansion(
                reference_build_layered(base, 3, h, "down"))

    @pytest.mark.parametrize("column", ["c", "l"])
    def test_twins_of_unequal_weight_take_the_search(self, column):
        base = _zeros_and_parallels()  # a fresh graph: its columns are ours
        getattr(base, column)[2] += 1  # arc 0 -> 1 of weight (1, 0)
        assert not layering._twinned(base)
        for direction, layered in zip(("up", "down"),
                                      build_expansions(base, k=3, h=2)):
            assert _hex_expansion(layered) == _hex_expansion(
                reference_build_layered(base, 3, 2, direction))


@pytest.fixture
def search_starts(monkeypatch):
    """Starts of the ``graph.shortest_paths`` calls made while in use."""
    starts = []
    kernel = graph.shortest_paths

    def counting(g, weight, start, *args, **kwargs):
        starts.append(start)
        return kernel(g, weight, start, *args, **kwargs)

    for module in (graph, layering, fractional):
        monkeypatch.setattr(module, "shortest_paths", counting)
    return starts


class TestExpansionWork:
    @pytest.mark.parametrize("data,mode,searches_per_level", [
        (grid(3, 3, k=2, seed=1), "edge", 1),
        (with_penalties(grid(3, 3, k=2, seed=1), 1), "prize", 1),
        (random_digraph(6, 14, 2, 3), "edge", 2),
        (random_digraph(4, 9, 2, 3), "directed", 2),
    ])
    def test_searches_while_constructing_a_pipeline(self, search_starts, data,
                                                    mode, searches_per_level):
        inst = load_instance(data)
        h = 2
        OnlinePipeline(inst, RunConfig(mode=mode, h=h))
        n = inst.graph.n
        # an undirected base mirrors its down expansion; a directed one
        # searches against the arcs
        assert len(search_starts) == searches_per_level * h * n
        assert sorted(search_starts) == sorted(
            list(range(n)) * searches_per_level * h)


class TestPullBack:
    def test_single_layer_edge_equal_cost(self):
        g = build_graph(2, [(0, 1, 2, 3)])
        up = build_layered(g, k=16, h=4)
        e = find_layer_edge(up, 0, 4, 1, 3)
        layered_ledger = SolutionLedger()
        layered_ledger.add_path(up.graph, 0, [e])
        pulled = pull_back(up, layered_ledger)
        assert solution_cost(g, pulled) == pytest.approx((2, 3, 5))

    def test_shared_back_paths_reduce_cost(self):
        g = build_graph(3, [(0, 1, 10, 1), (1, 2, 1, 1), (1, 2, 3, 0.1)])
        up = build_layered(g, k=2, h=1)
        e02 = find_layer_edge(up, 0, 1, 2, 0)
        e12 = find_layer_edge(up, 1, 1, 2, 0)
        layered_ledger = SolutionLedger()
        layered_ledger.add_path(up.graph, 0, [e02])
        layered_ledger.add_path(up.graph, 1, [e12])
        layered_total = solution_cost(up.graph, layered_ledger)[2]
        pulled_total = solution_cost(g, pull_back(up, layered_ledger))[2]
        assert pulled_total < layered_total - 1e-9

    def test_empty_ledger(self):
        g = build_graph(2, [(0, 1, 1, 1)])
        up = build_layered(g, k=2, h=1)
        pulled = pull_back(up, SolutionLedger())
        assert solution_cost(g, pulled) == (0, 0, 0)

    def test_never_increases_cost_randomized(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_two_metric(rng, rng.randint(3, 5), 8, ensure_cycle=True)
            h = rng.randint(1, 3)
            up = build_layered(g, k=rng.randint(1, 4), h=h)
            ledger = SolutionLedger()
            pair = 0
            for v in range(g.n):
                # random level-by-level walk from (v, h) to level 0
                node = up.vertex(v, h)
                path = []
                ok = True
                while up.level_of(node) > 0:
                    arcs = up.graph.out_arcs[node]
                    if not arcs:
                        ok = False
                        break
                    a = rng.choice(arcs)
                    path.append(a)
                    node = up.graph.head[a]
                if ok and path:
                    ledger.add_path(up.graph, pair, path)
                    pair += 1
            layered_total = solution_cost(up.graph, ledger)[2]
            pulled_total = solution_cost(g, pull_back(up, ledger))[2]
            assert pulled_total <= layered_total + 1e-9


class TestDefaultHeight:
    @pytest.mark.parametrize("n,expected", [(2, 1), (16, 4), (1000, 10)])
    def test_values(self, n, expected):
        assert default_height(n) == expected

    def test_rejects_tiny(self):
        with pytest.raises(GraphError):
            default_height(1)


def test_dump_layered_edges_schema():
    g = build_graph(2, [(0, 1, 2, 3)])
    up = build_layered(g, k=2, h=1)
    rows = dump_layered_edges(up)
    assert all({"id", "tail", "head", "c", "l", "back_path"} <= set(r) for r in rows)
    assert any(r["tail"] == "0@1" and r["head"] == "1@0" for r in rows)
