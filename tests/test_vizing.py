"""Edge colouring within max_degree + 1 colours."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avdtotal.pipeline as pipeline
import avdtotal.vizing as vizing
from avdtotal import (EdgeColoring, Graph, PipelineParams, Violation,
                      complete_bipartite_graph, complete_graph, cycle_graph,
                      normalize_edge, path_graph, random_gnp, run_pipeline,
                      star_graph, violations, vizing_color)
from avdtotal.vizing import _color_edges

from helpers import (connected_graphs, hub_graph, reference_vizing_color,
                     with_private_vertex_colours)


def assert_valid(g, ec):
    assert set(ec.colors) == set(g.edges)
    assert all(1 <= c <= g.max_degree + 1 for c in ec.colors.values())
    for v in range(g.n):
        cols = [ec.colors[normalize_edge(v, w)] for w in g.adjacency[v]]
        assert len(cols) == len(set(cols)), f"clash at vertex {v}"


class TestVizing:
    def test_empty_graph(self):
        g = Graph.build(3, [])
        ec = vizing_color(g)
        assert ec.colors == {} and ec.k == 1

    def test_single_edge(self):
        g = path_graph(2)
        ec = vizing_color(g)
        assert ec.colors == {(0, 1): 1}

    def test_path(self):
        assert_valid(path_graph(6), vizing_color(path_graph(6)))

    def test_even_cycle_two_colors(self):
        g = cycle_graph(6)
        ec = vizing_color(g)
        assert_valid(g, ec)
        assert len(set(ec.colors.values())) <= 3

    def test_odd_cycle_needs_three(self):
        g = cycle_graph(5)
        ec = vizing_color(g)
        assert_valid(g, ec)
        assert len(set(ec.colors.values())) == 3

    def test_star_uses_exactly_degree(self):
        g = star_graph(7)
        ec = vizing_color(g)
        assert_valid(g, ec)
        assert len(set(ec.colors.values())) == 7

    def test_complete_graphs(self):
        for n in range(2, 9):
            g = complete_graph(n)
            assert_valid(g, vizing_color(g))

    def test_bipartite(self):
        g = complete_bipartite_graph(3, 4)
        assert_valid(g, vizing_color(g))

    def test_all_connected_up_to_five(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                assert_valid(g, vizing_color(g))

    @given(st.integers(2, 16), st.floats(0.1, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert_valid(g, vizing_color(g))


def assert_matches_reference(g):
    ec, ref = vizing_color(g), reference_vizing_color(g)
    assert ec.k == ref.k
    # the reference's colours, iterated in g.edges order
    assert ec.colors == ref.colors and list(ec.colors) == list(g.edges)


class TestAgainstReference:
    """The bitmask fan makes the dict-scan loop's choices in its order."""

    def test_random_graphs_across_densities(self):
        for p in (0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0):
            for seed in range(12):
                assert_matches_reference(random_gnp(10 + 4 * seed, p, seed))

    def test_complete_bipartite_and_stars(self):
        for n in range(1, 21):
            assert_matches_reference(complete_graph(n))
        for a in range(1, 7):
            for b in range(1, 7):
                assert_matches_reference(complete_bipartite_graph(a, b))
        for leaves in range(1, 13):
            assert_matches_reference(star_graph(leaves))

    @pytest.mark.parametrize("g", [random_gnp(150, 0.5, 4), hub_graph(5, 400, 4, 3)],
                             ids=["dense", "hub"])
    def test_pipeline_union_subgraphs(self, g, monkeypatch):
        """The recolour hands the union to the colouring loop as an edge
        list; every union it colours is a valid graph's sorted edges with
        their true maximum degree, coloured as the reference colours it,
        item i of the colour list colouring edge i."""
        unions = []

        def capture(n, edges, max_degree):
            colors = _color_edges(n, edges, max_degree)
            unions.append((n, list(edges), max_degree, colors))
            return colors

        monkeypatch.setattr(pipeline, "_color_edges", capture)
        run_pipeline(g, params=PipelineParams(seed=4))
        assert unions and len(unions[0][1]) >= 100
        for n, edges, max_degree, colors in unions:
            sub = Graph.build(n, edges)
            assert list(sub.edges) == edges and sub.max_degree == max_degree
            assert len(colors) == len(edges)
            assert dict(zip(edges, colors)) == reference_vizing_color(sub).colors


def first_fit_gets_stuck(g):
    """True when plain first-fit, in sorted edge order, meets an edge with
    no colour in 1..max_degree + 1 free at both ends."""
    at = [set() for _ in range(g.n)]
    for u, v in g.edges:
        c = min(set(range(1, g.max_degree + 3)) - at[u] - at[v])
        if c > g.max_degree + 1:
            return True
        at[u].add(c)
        at[v].add(c)
    return False


class TestFanPath:
    """Graphs on which first-fit alone runs out of colours, so some edge
    goes through the fan, the path inversion and the rotation."""

    @pytest.mark.parametrize("g", [complete_graph(5), random_gnp(20, 0.7, 0),
                                   random_gnp(40, 0.9, 3)],
                             ids=["K5", "gnp20", "gnp40"])
    def test_within_bound_and_matches_reference(self, g):
        assert first_fit_gets_stuck(g)
        assert_valid(g, vizing_color(g))
        assert_matches_reference(g)


class TestStar:
    """Every hub edge of a star finds a common free colour: leaf i takes
    colour i, and no fan is built."""

    @pytest.mark.parametrize("leaves", [1, 7, 400, 2000])
    def test_leaf_i_takes_colour_i(self, leaves):
        ec = vizing_color(star_graph(leaves))
        assert ec.colors == {(0, i): i for i in range(1, leaves + 1)}


class TestIsolatedVertices:
    """Vertices without edges keep no state the fan or the walks can reach."""

    @given(st.integers(2, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                        max_size=60), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, n, pairs, spare):
        edges = [(u, v) for u, v in pairs if u != v and max(u, v) < n]
        g = Graph.build(n + spare, edges)
        assert_matches_reference(g)

    def test_sparse_and_padded_graphs(self):
        for seed in range(6):
            g = random_gnp(80, 0.02, seed)
            assert any(g.degree(v) == 0 for v in range(g.n))
            assert_matches_reference(g)
        clique = [(3 + i, 3 + j) for i in range(6) for j in range(i + 1, 6)]
        assert_matches_reference(Graph.build(20, clique))
        assert_matches_reference(Graph.build(12, [(0, 11), (5, 11), (11, 7)]))


class TestSlotMemory:
    """Colour slots grow with the assignments made, not with n times the
    palette: one list of k + 1 slots per vertex would need n * (k + 1)."""

    @pytest.mark.parametrize("g,bound_mb", [
        # lists: 401 * 402 slots, 1.3 MB; dict slots measure about 0.2 MB
        (star_graph(400), 0.6),
        # lists: 20 000 * 302 slots, 48 MB; about 1.7 MB, mostly empty dicts
        (Graph.build(20_000, [(0, i) for i in range(1, 301)]), 8.0),
    ], ids=["star", "hub-among-isolated"])
    def test_peak_stays_linear(self, g, bound_mb):
        tracemalloc.start()
        try:
            ec = vizing_color(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ec.colors) == len(g.edges)
        assert peak < bound_mb * 1e6

    def test_no_fan_index_without_a_fan(self):
        # a star among 20 000 isolated vertices colours first-fit alone; the
        # fan index, one dict per vertex, would need 20 000 empty dicts
        n = 20_000
        edges = [(0, i) for i in range(1, 301)]
        tracemalloc.start()
        try:
            colors = _color_edges(n, edges, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert colors == list(range(1, 301))
        assert peak < n * sys.getsizeof({})

    def test_fan_index_built_once_at_the_first_fan(self, monkeypatch):
        # K_4 colours first-fit alone; K_5's ninth edge, (2, 4), is the first
        # to need a fan, so the index is built once, from the eight colours
        # before it, and the colouring still matches the reference
        built = []
        original = vizing._fan_index

        def counting(n, edges, color):
            built.append(list(edges[:len(color)]))
            return original(n, edges, color)

        monkeypatch.setattr(vizing, "_fan_index", counting)
        vizing_color(complete_graph(4))
        assert built == []
        g = complete_graph(5)
        assert vizing_color(g) == reference_vizing_color(g)
        assert built == [list(g.edges[:8])]

    def test_fan_index_holds_positions(self):
        # each colour at a vertex names the position of its edge in the
        # list, whose far endpoint the fan reads from that edge
        edges = [(0, 1), (0, 2), (1, 2)]
        assert vizing._fan_index(4, edges, [1, 2]) == [{1: 0, 2: 1}, {1: 0}, {2: 1}, {}]


class TestEdgePropernessViolations:
    """Edge clashes as ``violations`` reports them on private vertex colours."""

    def test_clean(self):
        g = path_graph(3)
        ec = EdgeColoring({(0, 1): 1, (1, 2): 2}, 2)
        assert violations(g, with_private_vertex_colours(g, ec)) == []

    def test_clash_detected(self):
        g = path_graph(3)
        ec = EdgeColoring({(0, 1): 1, (1, 2): 1}, 1)
        vs = violations(g, with_private_vertex_colours(g, ec))
        assert vs == [Violation("edge-edge", ((0, 1), (1, 2)))]
