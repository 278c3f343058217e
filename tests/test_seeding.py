"""Greedy seed colouring and document import."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avdtotal.coloring as coloring
from avdtotal import (TotalColoring, check_total, complete_graph, cycle_graph,
                      greedy_total, path_graph, random_gnp, star_graph, verdict)

from helpers import (connected_graphs, hub_graph, naive_is_proper,
                     reference_greedy_total, used_colours)


def vertices_then_edges(g):
    return list(range(g.n)) + list(g.edges)


class TestDefaultOrder:
    def test_vertices_then_edges(self):
        g = path_graph(3)
        assert greedy_total(g) == reference_greedy_total(g, [0, 1, 2, (0, 1), (1, 2)])


class TestGreedy:
    def test_single_vertex(self):
        g = path_graph(1)
        phi = greedy_total(g)
        assert phi.vertex_colors == (1,) and phi.k == 1

    def test_path_traced_by_hand(self):
        # default order: vertices 1,2,1,2 then edges 3,4,3
        g = path_graph(4)
        phi = greedy_total(g)
        assert naive_is_proper(g, phi)
        assert phi.vertex_colors == (1, 2, 1, 2)
        assert phi.edge_colors == (3, 4, 3) and phi.graph is g

    def test_star_palette(self):
        # centre + 3 leaf edges + leaf colours: greedy needs 5 distinct
        # colours along the default order
        g = star_graph(3)
        phi = greedy_total(g)
        assert naive_is_proper(g, phi)
        assert phi.k == 5

    def test_k_is_max_used_color(self):
        g = complete_graph(4)
        phi = greedy_total(g)
        assert phi.k == max(used_colours(phi))

    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_proper_and_within_budget(self, n, p, seed):
        g = random_gnp(n, p, seed)
        phi = greedy_total(g)
        assert naive_is_proper(g, phi)
        assert len(used_colours(phi)) <= 2 * g.max_degree + 1
        assert phi.k >= 1

    @given(st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_first_fit(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert greedy_total(g) == reference_greedy_total(g, vertices_then_edges(g))


class TestCarriedStars:
    """The seed hands its result the masks it coloured with, which
    ``run_pipeline`` reads instead of verifying a self-built seed on entry."""

    @staticmethod
    def assert_carries_fresh_masks(g):
        phi = greedy_total(g)
        assert "stars" in vars(phi)  # set by the seeder, not built on reading
        fresh = TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k, g)
        assert phi.stars == coloring._closed_stars(fresh)

    def test_connected_graphs_up_to_five_vertices(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                self.assert_carries_fresh_masks(g)

    @given(st.integers(0, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, n, p, seed):
        self.assert_carries_fresh_masks(random_gnp(n, p, seed))

    def test_hub_graph(self):
        self.assert_carries_fresh_masks(hub_graph(0, 300, 4, 3))


class TestImport:
    """Adopting a colouring built elsewhere: check_total, then verdict."""

    def test_import_valid(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        check_total(g, phi)
        assert verdict(g, phi)["proper"] is True

    def test_import_improper_flags_false(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), (2,), 2, g)
        check_total(g, phi)
        assert verdict(g, phi) == {"proper": False, "avd": False}

    def test_import_rejects_shape_mismatch(self):
        g = path_graph(3)
        phi = TotalColoring((1, 2), (3,), 3, g)
        with pytest.raises(ValueError):
            check_total(g, phi)
        with pytest.raises(ValueError):
            verdict(g, phi)
