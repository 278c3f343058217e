"""Colour sets, verifiers, and the JSON document round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (DocumentError, TotalColoring, avd_violations,
                      check_total, color_set, color_sets, complete_graph,
                      cycle_graph, from_document, greedy_total, is_proper,
                      palette_size, path_graph, properness_violations,
                      star_graph, to_document, verdict)

from helpers import naive_color_set, naive_is_avd, naive_is_proper


def p3_coloring():
    # path 0-1-2, hand-checked proper colouring
    g = path_graph(3)
    phi = TotalColoring((1, 2, 1), {(0, 1): 3, (1, 2): 4}, 4)
    return g, phi


class TestCheckTotal:
    def test_accepts_valid(self):
        g, phi = p3_coloring()
        check_total(g, phi)

    def test_rejects_wrong_vertex_count(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2), phi.edge_colors, 4)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_missing_edge(self):
        g, phi = p3_coloring()
        bad = TotalColoring(phi.vertex_colors, {(0, 1): 3}, 4)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_extra_edge(self):
        g, phi = p3_coloring()
        extra = dict(phi.edge_colors)
        extra[(0, 2)] = 2
        with pytest.raises(ValueError):
            check_total(g, TotalColoring(phi.vertex_colors, extra, 4))

    def test_rejects_color_out_of_palette(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2, 5), phi.edge_colors, 4)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_zero_color(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2, 0), phi.edge_colors, 4)
        with pytest.raises(ValueError):
            check_total(g, bad)


class TestColorSets:
    def test_color_set_matches_naive(self):
        g, phi = p3_coloring()
        for v in range(3):
            assert color_set(g, phi, v).colors == naive_color_set(g, phi, v)

    def test_color_set_owner(self):
        g, phi = p3_coloring()
        assert color_set(g, phi, 1).owner == 1

    def test_color_set_out_of_range(self):
        g, phi = p3_coloring()
        with pytest.raises(ValueError):
            color_set(g, phi, 3)

    def test_proper_set_size_is_degree_plus_one(self):
        g = complete_graph(4)
        phi = greedy_total(g)
        for v in range(g.n):
            assert len(color_set(g, phi, v).colors) == g.degree(v) + 1

    def test_color_sets_batch_agrees(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        batch = color_sets(g, phi)
        for v in range(g.n):
            assert batch[v] == color_set(g, phi, v).colors


class TestPropernessViolations:
    def test_clean_coloring_no_violations(self):
        g, phi = p3_coloring()
        assert properness_violations(g, phi) == []
        assert is_proper(g, phi)

    def test_vertex_vertex_clash(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), {(0, 1): 2}, 2)
        vs = properness_violations(g, phi)
        assert [v.kind for v in vs] == ["vertex-vertex"]
        assert vs[0].witness == (0, 1)

    def test_vertex_edge_clash_reports_each_side(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), {(0, 1): 1}, 1)
        kinds = sorted(v.kind for v in properness_violations(g, phi))
        assert kinds == ["vertex-edge", "vertex-edge", "vertex-vertex"]

    def test_edge_edge_clash(self):
        g = path_graph(3)
        phi = TotalColoring((1, 2, 1), {(0, 1): 3, (1, 2): 3}, 3)
        vs = properness_violations(g, phi)
        assert [v.kind for v in vs] == ["edge-edge"]
        assert vs[0].witness == ((0, 1), (1, 2))

    def test_edge_edge_reported_once_per_pair(self):
        g = star_graph(3)
        phi = TotalColoring((1, 2, 2, 2), {(0, 1): 3, (0, 2): 3, (0, 3): 3}, 3)
        clashes = [v for v in properness_violations(g, phi) if v.kind == "edge-edge"]
        assert len(clashes) == 3  # three unordered pairs of the three edges


class TestAvdViolations:
    def test_requires_properness(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), {(0, 1): 2}, 2)
        with pytest.raises(ValueError):
            avd_violations(g, phi)

    def test_undistinguished_pair_on_k2(self):
        # both endpoints of K_2 see {1, 2} and {2, 3}? choose a clash:
        g = path_graph(2)
        phi = TotalColoring((1, 2), {(0, 1): 3}, 3)
        # C(0) = {1,3}, C(1) = {2,3}: distinguished
        assert avd_violations(g, phi) == []

    def test_cycle_clash(self):
        # C_4 colouring where vertices 0 and 1 both see {1, 2, 3}.
        g = cycle_graph(4)
        phi = TotalColoring((1, 2, 4, 3),
                            {(0, 1): 3, (1, 2): 1, (2, 3): 5, (0, 3): 2}, 5)
        vs = avd_violations(g, phi)
        assert [v.kind for v in vs] == ["undistinguished-pair"]
        assert vs[0].witness == (0, 1)

    def test_opposite_vertices_never_flagged(self):
        # Alternating colouring: equal sets only on the non-adjacent diagonals.
        g = cycle_graph(4)
        phi = TotalColoring((1, 2, 1, 2),
                            {(0, 1): 3, (1, 2): 4, (2, 3): 3, (0, 3): 4}, 4)
        assert avd_violations(g, phi) == []

    def test_verdict_matches_naive(self):
        g = cycle_graph(4)
        phi = TotalColoring((1, 2, 4, 3),
                            {(0, 1): 3, (1, 2): 1, (2, 3): 5, (0, 3): 2}, 5)
        v = verdict(g, phi)
        assert v == {"proper": naive_is_proper(g, phi),
                     "avd": naive_is_avd(g, phi)}
        assert v == {"proper": True, "avd": False}


class TestPalette:
    def test_palette_size_counts_used_not_declared(self):
        g, phi = p3_coloring()
        wide = TotalColoring(phi.vertex_colors, phi.edge_colors, 99)
        assert palette_size(wide) == 4

    def test_used_colors(self):
        g, phi = p3_coloring()
        assert phi.used_colors() == frozenset({1, 2, 3, 4})

    def test_edge_color_either_order(self):
        g, phi = p3_coloring()
        assert phi.edge_color(1, 0) == 3
        assert phi.edge_color(0, 1) == 3


class TestDocuments:
    def test_round_trip(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        g2, phi2 = from_document(to_document(g, phi))
        assert g2 == g
        assert phi2 == phi

    def test_verified_flags_recomputed_not_trusted(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["verified"] = {"proper": False, "avd": True}
        g2, phi2 = from_document(doc)
        assert verdict(g2, phi2)["proper"] is True

    def test_improper_document_loads(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), {(0, 1): 2}, 2)
        doc = {
            "n": 2, "edges": [[0, 1]], "k": 2,
            "vertex_colors": [1, 1],
            "edge_colors": [{"u": 0, "v": 1, "c": 2}],
        }
        g2, phi2 = from_document(doc)
        assert not is_proper(g2, phi2)

    @pytest.mark.parametrize("missing", ["n", "edges", "k", "vertex_colors",
                                         "edge_colors"])
    def test_missing_field(self, missing):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        del doc[missing]
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(DocumentError):
            from_document([1, 2, 3])

    def test_color_for_non_edge_rejected(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edge_colors"].append({"u": 0, "v": 2, "c": 1})
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_duplicate_edge_color_rejected(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edge_colors"].append({"u": 1, "v": 0, "c": 2})
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_missing_edge_color_rejected(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edge_colors"].pop()
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("n", 3.0), ("n", "3"),
        ("k", True), ("k", 3.0), ("k", 4.5),
    ])
    def test_non_integer_scalar_rejected(self, field, value):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc[field] = value
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("value", [True, 1.0, 2.5, None, "1"])
    def test_non_integer_vertex_color_rejected(self, value):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["vertex_colors"][0] = value
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("key, value", [
        ("c", 3.9), ("c", True), ("c", 2.0), ("u", True), ("u", 0.0),
        ("v", 1.5), ("v", "1"),
    ])
    def test_non_integer_edge_record_rejected(self, key, value):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edge_colors"][0][key] = value
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("edge", [[0, True], [0.0, 1], [0], [0, 1, 2], "01"])
    def test_non_integer_edge_rejected(self, edge):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edges"][0] = edge
        with pytest.raises(DocumentError):
            from_document(doc)

    @pytest.mark.parametrize("field", ["edges", "vertex_colors", "edge_colors"])
    def test_non_list_field_rejected(self, field):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc[field] = 7
        with pytest.raises(DocumentError):
            from_document(doc)

    def test_out_of_palette_rejected(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["k"] = 2
        with pytest.raises(DocumentError):
            from_document(doc)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10))
@settings(max_examples=40)
def test_greedy_verifiers_agree_with_naive(n, salt):
    from avdtotal import random_gnp
    g = random_gnp(n, 0.5, salt)
    phi = greedy_total(g)
    assert is_proper(g, phi) == naive_is_proper(g, phi)
    assert naive_is_proper(g, phi)
    assert (not avd_violations(g, phi)) == naive_is_avd(g, phi)
