"""Greedy seed colouring and document import."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (TotalColoring, complete_graph, cycle_graph,
                      default_order, greedy_total, import_total, is_proper,
                      palette_size, path_graph, random_gnp, star_graph)

from helpers import naive_is_proper, reference_greedy_total


class TestDefaultOrder:
    def test_vertices_then_edges(self):
        g = path_graph(3)
        assert default_order(g) == [0, 1, 2, (0, 1), (1, 2)]


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
        assert phi.edge_colors == {(0, 1): 3, (1, 2): 4, (2, 3): 3}

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
        assert phi.k == max(phi.used_colors())

    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_proper_and_within_budget(self, n, p, seed):
        g = random_gnp(n, p, seed)
        phi = greedy_total(g)
        assert naive_is_proper(g, phi)
        assert palette_size(phi) <= 2 * g.max_degree + 1
        assert phi.k >= 1

    @given(st.integers(0, 10), st.floats(0.0, 1.0), st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_first_fit(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert greedy_total(g) == reference_greedy_total(g, default_order(g))

    @given(st.integers(1, 9), st.floats(0.2, 1.0), st.integers(0, 999),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_on_permuted_orders(self, n, p, seed, rnd):
        # any interleaving, vertices after their edges included, and edges
        # named in either orientation
        g = random_gnp(n, p, seed)
        order = default_order(g)
        rnd.shuffle(order)
        order = [(e[1], e[0]) if isinstance(e, tuple) and rnd.random() < 0.5 else e
                 for e in order]
        assert greedy_total(g, order) == reference_greedy_total(g, order)

    def test_vertices_after_edges_by_hand(self):
        # edges first take 1, 2; then vertex 1 must avoid both, vertex 0 and
        # vertex 2 must avoid their edge colour and vertex 1's colour
        g = path_graph(3)
        phi = greedy_total(g, [(0, 1), (1, 2), 1, 0, 2])
        assert phi.edge_colors == {(0, 1): 1, (1, 2): 2}
        assert phi.vertex_colors == (2, 3, 1)

    def test_custom_order_changes_result(self):
        g = path_graph(3)
        inverted = [(1, 2), (0, 1), 2, 1, 0]
        phi = greedy_total(g, inverted)
        assert naive_is_proper(g, phi)
        assert phi.edge_colors[(1, 2)] == 1

    def test_order_must_cover_everything(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            greedy_total(g, [0, 1, 2, (0, 1)])

    def test_order_rejects_repeats(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            greedy_total(g, [0, 0, 1, 2, (0, 1), (1, 2)])

    def test_order_rejects_foreign_edge(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            greedy_total(g, [0, 1, 2, (0, 2), (1, 2)])


class TestImport:
    def test_import_valid(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        imported, flags = import_total(g, phi)
        assert imported == phi
        assert flags["proper"] is True

    def test_import_improper_flags_false(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), {(0, 1): 2}, 2)
        imported, flags = import_total(g, phi)
        assert flags == {"proper": False, "avd": False}

    def test_import_rejects_shape_mismatch(self):
        g = path_graph(3)
        phi = TotalColoring((1, 2), {(0, 1): 3}, 3)
        with pytest.raises(ValueError):
            import_total(g, phi)
