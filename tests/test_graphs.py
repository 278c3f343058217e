"""Graph container, formats, generators, and the degree split."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (DimacsError, Graph, Graph6Error, complete_bipartite_graph,
                      complete_graph, cycle_graph, degree_split, generate,
                      normalize_edge, parse_dimacs, parse_graph6, path_graph,
                      random_gnp, random_regular, star_graph, write_graph6)

from helpers import connected_graphs


def small_graphs(max_n=10):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            Graph.build,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)),
                          st.integers(0, max(n - 1, 0))).filter(
                    lambda e: e[0] != e[1]),
                max_size=min(n * (n - 1) // 2, 20))
            if n >= 2 else st.just([])))


class TestGraphBasics:
    def test_normalize_edge_orders_endpoints(self):
        assert normalize_edge(3, 1) == (1, 3)
        assert normalize_edge(1, 3) == (1, 3)

    def test_build_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(1, 1)])

    def test_build_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])

    def test_build_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Graph.build(-1, [])

    def test_duplicate_edges_collapse(self):
        g = Graph.build(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_accessors_on_path(self):
        g = path_graph(4)
        assert g.degree(0) == 1 and g.degree(1) == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert g.incident_edges(1) == [(0, 1), (1, 2)]
        assert g.max_degree == 2

    def test_empty_graph(self):
        g = Graph.build(0, [])
        assert g.n == 0 and g.edges == () and g.max_degree == 0

    @given(small_graphs())
    def test_adjacency_is_sorted_and_symmetric(self, g):
        for v in range(g.n):
            nb = g.neighbors(v)
            assert list(nb) == sorted(nb)
            for w in nb:
                assert v in g.neighbors(w)


class TestDegreeSplit:
    def test_regular_graph_all_high(self):
        g = cycle_graph(5)
        split = degree_split(g)
        assert split.high == frozenset(range(5)) and not split.low

    def test_star_leaves_low_centre_high(self):
        g = star_graph(4)
        split = degree_split(g)
        assert split.high == frozenset({0})
        assert split.low == frozenset({1, 2, 3, 4})

    def test_edgeless_all_low(self):
        g = Graph.build(3, [])
        split = degree_split(g)
        assert split.low == frozenset({0, 1, 2})

    def test_boundary_vertex_is_low(self):
        # deg(v) = 2, max degree 4: 2*2 <= 4 holds, so v is low.
        g = Graph.build(6, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2)])
        assert 5 in degree_split(g).low

    @given(small_graphs())
    def test_partition(self, g):
        split = degree_split(g)
        assert split.low | split.high == frozenset(range(g.n))
        assert not (split.low & split.high)
        for v in split.low:
            assert 2 * g.degree(v) <= g.max_degree
        for v in split.high:
            assert 2 * g.degree(v) > g.max_degree


class TestGraph6:
    # Byte values computed by hand from the format definition.
    def test_known_strings(self):
        assert write_graph6(complete_graph(4)) == "C~"
        assert write_graph6(path_graph(4)) == "Ch"
        assert write_graph6(cycle_graph(4)) == "Cl"
        assert write_graph6(complete_graph(5)) == "D~{"

    def test_parse_known(self):
        g = parse_graph6("D~{")
        assert g.n == 5 and len(g.edges) == 10

    def test_parse_skips_header(self):
        assert parse_graph6(">>graph6<<C~").edges == complete_graph(4).edges

    def test_parse_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_parse_rejects_bad_alphabet(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("C\x1f")
        assert exc.value.offset == 1

    def test_parse_rejects_truncation(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D~")

    def test_parse_rejects_trailing(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")

    @given(small_graphs(max_n=12))
    @settings(max_examples=60)
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_all_connected_n4(self):
        for g in connected_graphs(4):
            assert parse_graph6(write_graph6(g)) == g


class TestDimacs:
    def test_basic(self):
        text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        g = parse_dimacs(text)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_duplicate_edges_collapse(self):
        g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.edges == ((0, 1),)

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("e 1 2\n")

    def test_edge_out_of_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\ne 1 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\ne 1 1\n")

    def test_unknown_record(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 1\nq 1 2\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p edge 2 0\np edge 2 0\n")


class TestGenerators:
    def test_path_shape(self):
        g = path_graph(5)
        assert len(g.edges) == 4 and g.max_degree == 2

    def test_cycle_shape(self):
        g = cycle_graph(6)
        assert len(g.edges) == 6
        assert all(g.degree(v) == 2 for v in range(6))

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete_shape(self):
        g = complete_graph(6)
        assert len(g.edges) == 15 and g.max_degree == 5

    def test_complete_bipartite_shape(self):
        g = complete_bipartite_graph(2, 3)
        assert len(g.edges) == 6
        assert {g.degree(v) for v in range(2)} == {3}
        assert {g.degree(v) for v in range(2, 5)} == {2}

    def test_star_shape(self):
        g = star_graph(4)
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_gnp_extremes(self):
        assert random_gnp(6, 0.0, 1).edges == ()
        assert random_gnp(6, 1.0, 1).edges == complete_graph(6).edges

    def test_gnp_deterministic(self):
        assert random_gnp(20, 0.4, 9).edges == random_gnp(20, 0.4, 9).edges

    def test_gnp_seed_sensitivity(self):
        draws = {random_gnp(20, 0.4, s).edges for s in range(5)}
        assert len(draws) > 1

    # SHA-256 of "n\n" followed by one "u v\n" line per edge, recorded from
    # the generator that listed every vertex pair up front. Sizes above 1449
    # span more than one draw chunk.
    GNP_DIGESTS = {
        (0, 0.5, 0): "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        (1, 0.5, 0): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        (2, 0.5, 0): "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
        (2, 1.0, 1): "1e7a4f32fb9185df1c6fd771a5cf931f03681ea1d0ee5e4efb66e78a58277eeb",
        (12, 0.35, 0): "8d01cf3540a6b41f82aa9c33e4cb1f3c6bf774f9d267be9b5025967b58c49115",
        (12, 0.35, 7): "a4e1f261a7643f61c585a672462be679f2ed687e227c7f3c3afa8c8d3b358754",
        (20, 0.0, 3): "5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3",
        (20, 1.0, 3): "3bc8941d14acb6b88718558dd45a9645a137cd3f1dd1d7e354f4fb7fac1c442e",
        (60, 0.5, 1): "cbb89613352d01b23f48131e2cec259e824f42ba7023d09586596c1eed5e05ac",
        (300, 0.5, 0): "82a9a056b0f9b402884035ba4f76f3a5602d6b6a201dcf2c797d98ed664ed35b",
        (2000, 0.004, 3): "7f598e06ffa450954816311fcbac8cab6a4b66281f22c44962a6ace696132d2b",
    }

    @pytest.mark.parametrize("n, p, seed", sorted(GNP_DIGESTS))
    def test_gnp_edges_pinned(self, n, p, seed):
        g = random_gnp(n, p, seed)
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GNP_DIGESTS[(n, p, seed)]

    def test_regular_degrees(self):
        g = random_regular(10, 3, 2)
        assert all(g.degree(v) == 3 for v in range(10))

    def test_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)

    def test_generate_dispatch(self):
        g = generate("cycle", n=5)
        assert g.edges == cycle_graph(5).edges

    def test_generate_unknown_family(self):
        with pytest.raises(ValueError):
            generate("hypercube", n=3)

    def test_generate_bad_params(self):
        with pytest.raises(ValueError):
            generate("cycle", vertices=5)


def test_connected_enumeration_counts():
    # Classical counts of connected graphs up to isomorphism.
    assert len(connected_graphs(2)) == 1
    assert len(connected_graphs(3)) == 2
    assert len(connected_graphs(4)) == 6
    assert len(connected_graphs(5)) == 21
