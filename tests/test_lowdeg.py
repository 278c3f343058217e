"""Deterministic recolouring of low-degree vertices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (Graph, PipelineParams, TotalColoring, complete_graph,
                      degree_split, distinguish_low_degree, find_bulk_deletion,
                      find_patch_deletion, greedy_total, light_vertices,
                      random_gnp, recolor_union, star_graph, verdict,
                      violations)

from avdtotal.lowdeg import _forbidden

from helpers import (colours_of, from_edge_dict, hub_graph, naive_is_proper,
                     reference_distinguish_low_degree)


def two_low_clash():
    """Adjacent degree-2 vertices 0 and 1 that both see {1, 2, 3}.

    Vertex 2 has degree 5, so 0 and 1 are low. Hand-verified proper.
    """
    g = Graph.build(8, [(0, 1), (0, 2), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6)])
    phi = from_edge_dict(
        g, (2, 3, 4, 2, 1, 1, 1, 1),
        {(0, 1): 1, (0, 2): 3, (1, 7): 2, (2, 3): 1, (2, 4): 2,
         (2, 5): 5, (2, 6): 6}, 6)
    return g, phi


def forbidden(g, phi, u):
    """The forbidden set distinguish_low_degree computes for u, read from
    the mask _forbidden returns."""
    return colours_of(_forbidden(g, list(phi.vertex_colors), phi.stars, u))


class TestForbiddenColors:
    def test_rejects_high_degree_vertex(self):
        # forbidden sets are computed for low vertices only: whatever the
        # clashes, the phase leaves every high vertex's colour alone
        for seed in range(20):
            g = random_gnp(12, 0.4, seed)
            phi = greedy_total(g)
            out = distinguish_low_degree(g, phi)
            assert all(out.vertex_colors[v] == phi.vertex_colors[v]
                       for v in degree_split(g).high)

    def test_rejects_small_palette(self):
        # the palette check sits in the phase that computes forbidden sets
        g = star_graph(2)
        squeezed = TotalColoring((1, 2, 2), (3, 4), 4, g)
        assert distinguish_low_degree(g, squeezed).k == 4  # 4 > max_degree 2
        tight = TotalColoring((1, 2, 2), (1, 2), 2, g)
        with pytest.raises(ValueError):
            distinguish_low_degree(g, tight)

    def test_hand_example(self):
        g, phi = two_low_clash()
        # edges at 0 give {1, 3}; neighbour colours give {3, 4}; adopting 2
        # would replicate vertex 1's set {1, 2, 3}
        assert forbidden(g, phi, 0) == {1, 2, 3, 4}

    def test_size_bound(self):
        g, phi = two_low_clash()
        for u in sorted(degree_split(g).low):
            assert len(forbidden(g, phi, u)) <= 2 * g.degree(u)


class TestDistinguishLowDegree:
    def test_hand_example_recolours_vertex_zero(self):
        g, phi = two_low_clash()
        out = distinguish_low_degree(g, phi)
        # forbidden {1,2,3,4}: smallest allowed colour is 5
        assert out.vertex_colors == (5, 3, 4, 2, 1, 1, 1, 1)
        assert out.edge_colors == phi.edge_colors
        assert out.k == phi.k
        assert verdict(g, out)["proper"]
        sets = out.stars
        for u in sorted(degree_split(g).low):
            assert all(sets[u] != sets[w] for w in g.adjacency[u])

    def test_already_clean_returns_same_object(self):
        g = star_graph(3)
        phi = greedy_total(g)
        # leaves are pairwise non-adjacent, so nothing to do
        assert distinguish_low_degree(g, phi) is phi

    def test_high_degree_clashes_left_alone(self):
        # greedy K_3 gives all three vertices the set {1,2,3}; every vertex
        # is high, so this phase must not touch anything
        g = complete_graph(3)
        phi = greedy_total(g)
        assert [v.kind for v in violations(g, phi)] == ["undistinguished-pair"] * 3
        assert distinguish_low_degree(g, phi) is phi

    def test_no_low_vertex_reads_no_mask(self):
        # K_5 has no low vertex: the phase returns before building masks
        g = complete_graph(5)
        seed = greedy_total(g)
        phi = TotalColoring(seed.vertex_colors, seed.edge_colors, seed.k, g)
        assert distinguish_low_degree(g, phi) is phi
        assert "stars" not in vars(phi)

    def test_visits_only_low_vertices_clashing_on_entry(self, monkeypatch):
        # of the low vertices 0, 1, 3 .. 7 only 0 and 1 share a set, and
        # recolouring 0 settles 1, so _forbidden runs once
        g, phi = two_low_clash()
        visited = []

        def spy(g, vertex_colors, masks, u):
            visited.append(u)
            return _forbidden(g, vertex_colors, masks, u)

        monkeypatch.setattr("avdtotal.lowdeg._forbidden", spy)
        out = distinguish_low_degree(g, phi)
        assert visited == [0]
        assert out == reference_distinguish_low_degree(g, phi)

    def test_rejects_small_palette(self):
        g = star_graph(2)
        phi = TotalColoring((1, 2, 2), (2, 1), 2, g)
        with pytest.raises(ValueError):
            distinguish_low_degree(g, phi)

    @given(st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_postconditions_on_random_graphs(self, n, p, seed):
        g = random_gnp(n, p, seed)
        phi = greedy_total(g)
        out = distinguish_low_degree(g, phi)
        assert out == reference_distinguish_low_degree(g, phi)
        assert naive_is_proper(g, out)
        assert out.k == phi.k
        assert out.edge_colors == phi.edge_colors
        split = degree_split(g)
        for v in split.high:
            assert out.vertex_colors[v] == phi.vertex_colors[v]
        sets = out.stars
        for u in split.low:
            for w in g.adjacency[u]:
                assert sets[u] != sets[w]


def pipeline_state(g, seed):
    """The colouring run_pipeline hands to the low-degree phase."""
    phi = greedy_total(g)
    params = PipelineParams(seed=seed)
    bulk = find_bulk_deletion(g, phi, params)
    light = light_vertices(g, bulk.selection, params.m)
    patch = find_patch_deletion(g, phi, bulk.selection, light, params)
    return recolor_union(g, phi, bulk.selection, patch.selection)


def recolours(before, after):
    return sum(a != b for a, b in zip(before.vertex_colors, after.vertex_colors))


class TestAgainstRescan:
    """One forward pass equals rescanning from the first low vertex after
    every recolour."""

    def test_corpus_with_recolours(self):
        total = 0
        for seed in range(30):
            g = hub_graph(seed, 40 + 3 * seed, 3 + seed % 4, 1 + seed % 2)
            for phi in (greedy_total(g), pipeline_state(g, seed)):
                out = distinguish_low_degree(g, phi)
                assert out == reference_distinguish_low_degree(g, phi)
                total += recolours(phi, out)
        # the comparison means little unless many vertices get recoloured
        assert total >= 50

    @given(st.integers(0, 2 ** 32 - 1), st.integers(20, 90), st.integers(2, 6),
           st.integers(1, 2), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_hub_graphs(self, seed, n, background_degree, hubs, after_recolor):
        g = hub_graph(seed, n, background_degree, hubs)
        phi = pipeline_state(g, seed) if after_recolor else greedy_total(g)
        assert distinguish_low_degree(g, phi) == reference_distinguish_low_degree(g, phi)
