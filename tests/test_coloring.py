"""Colour sets, verifiers, and the JSON document round trip."""

import importlib.util
import random
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avdtotal.coloring as coloring
from avdtotal import (DocumentError, Graph, PipelineParams, TotalColoring,
                      Violation, check_total, complete_graph, cycle_graph,
                      from_document, greedy_total, path_graph,
                      random_gnp, random_regular, run_pipeline, star_graph,
                      to_document, verdict, violations)

from helpers import (edge_dict, from_edge_dict, mask_of, naive_color_set, naive_is_avd,
                     naive_is_proper, reference_document_body,
                     reference_properness_violations, reference_violations,
                     used_colours)

P3 = path_graph(3)


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "bench_oracle", Path(__file__).resolve().parents[1] / "benchmarks" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


ORACLE = _load_oracle()


def p3_coloring():
    # path 0-1-2, hand-checked proper colouring: (0, 1) gets 3, (1, 2) gets 4
    g = path_graph(3)
    phi = TotalColoring((1, 2, 1), (3, 4), 4, g)
    return g, phi


class TestCheckTotal:
    def test_accepts_valid(self):
        g, phi = p3_coloring()
        check_total(g, phi)

    def test_rejects_wrong_vertex_count(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2), phi.edge_colors, 4, g)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_missing_edge(self):
        g, phi = p3_coloring()
        bad = TotalColoring(phi.vertex_colors, (3,), 4, g)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_extra_edge(self):
        g, phi = p3_coloring()
        with pytest.raises(ValueError):
            check_total(g, TotalColoring(phi.vertex_colors, phi.edge_colors + (2,), 4, g))

    def test_accepts_keys_in_any_order(self):
        # the dict form of a colouring, in any key order, converts to the
        # same row-aligned colouring, which check_total takes
        g = random_gnp(30, 0.3, 1)
        phi = greedy_total(g)
        colour_of = edge_dict(phi)
        keys = list(colour_of)
        random.Random(0).shuffle(keys)
        assert tuple(keys) != g.edges
        shuffled = from_edge_dict(g, phi.vertex_colors, {e: colour_of[e] for e in keys}, phi.k)
        assert shuffled.edge_colors == phi.edge_colors and shuffled.graph is g
        check_total(g, shuffled)

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("key", [(0, 2), (1, 0), (2, 1)])
    def test_rejects_key_swapped_at_same_size(self, at, key):
        # a non-edge or a reversed pair in place of one edge: the dict form
        # names no colouring of g, and the converter says so
        g, phi = p3_coloring()
        items = list(edge_dict(phi).items())
        items[at] = (key, items[at][1])
        with pytest.raises(ValueError, match=r"^edge colours do not cover the edge set exactly$"):
            from_edge_dict(g, phi.vertex_colors, dict(items), 4)

    def test_rejects_color_out_of_palette(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2, 5), phi.edge_colors, 4, g)
        with pytest.raises(ValueError):
            check_total(g, bad)

    def test_rejects_zero_color(self):
        g, phi = p3_coloring()
        bad = TotalColoring((1, 2, 0), phi.edge_colors, 4, g)
        with pytest.raises(ValueError):
            check_total(g, bad)

    @pytest.mark.parametrize("phi, message", [
        # the vertex count is checked first, then the edge colour count
        (TotalColoring((1, 2), (9,), 4, P3),
         "vertex colour count 2 does not match n=3"),
        (TotalColoring((9, 2, 9), (3,), 4, P3),
         "edge colours do not cover the edge set exactly"),
        # vertex colours before edge colours, the first bad one named
        (TotalColoring((1, 7, 0), (9, 4), 4, P3),
         "vertex colour 7 outside palette 1..4"),
        # edge colours in row order
        (TotalColoring((1, 2, 1), (0, 9), 4, P3),
         "edge colour 0 outside palette 1..4"),
        (TotalColoring((1, 2, 1), (3, 2 ** 63), 2 ** 63 - 1, P3),
         f"edge colour {2 ** 63} outside palette 1..{2 ** 63 - 1}"),
        (TotalColoring((1, 2, 1), (3, -2 ** 70), 4, P3),
         f"edge colour {-2 ** 70} outside palette 1..4"),
        (TotalColoring((1, 4.5, 1), (3, 4), 4, P3),
         "vertex colour 4.5 outside palette 1..4"),
        (TotalColoring((1, 2, 1), (3, 4), 3, P3),
         "edge colour 4 outside palette 1..3"),
    ])
    def test_messages_and_order(self, phi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_total(path_graph(3), phi)

    def test_colours_that_are_not_ints(self):
        # a bool is the int it equals, a float in range passes as before,
        # and a string is no colour at all
        g = path_graph(3)
        check_total(g, TotalColoring((True, 2, 1), (3, 4), 4, g))
        check_total(g, TotalColoring((1, 2.5, 1), (3, 4), 4, g))
        with pytest.raises(TypeError):
            check_total(g, TotalColoring(("1", "2", "1"), (3, 4), 4, g))


# the entry points that take a colouring from outside
ENTRIES = {"check_total": check_total, "violations": violations, "verdict": verdict,
           "require_proper": coloring._require_proper,
           "run_pipeline": lambda g, phi: run_pipeline(g, phi)}


class TestMadeOnItsGraph:
    """A colouring names the graph it was made on, and its edge colours are
    the rows of that graph's edges: every entry point refuses a colouring
    made on another graph, or without one colour per row."""

    # the star at 0 on P3's vertices: equal n and |E|, other edges
    STAR = Graph.build(3, [(0, 1), (0, 2)])

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_other_graph_with_equal_sizes_refused(self, entry):
        # colours proper and AVD on both graphs, so only the graph is wrong
        g = path_graph(3)
        phi = TotalColoring((1, 2, 5), (3, 4), 5, g)
        on_star = TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k, self.STAR)
        assert violations(g, phi) == violations(self.STAR, on_star) == []
        with pytest.raises(ValueError, match="^the colouring was not made on this graph$"):
            ENTRIES[entry](g, on_star)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("edge_colors", [(3,), (3, 4, 5), ()])
    def test_wrong_edge_colour_count_refused(self, entry, edge_colors):
        g, phi = p3_coloring()
        bad = TotalColoring(phi.vertex_colors, edge_colors, 5, g)
        with pytest.raises(ValueError, match="^edge colours do not cover the edge set exactly$"):
            ENTRIES[entry](g, bad)

    def test_equal_graph_accepted_and_copied_onto_g(self):
        g, phi = p3_coloring()
        on_equal = TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k, path_graph(3))
        check_total(g, on_equal)
        assert violations(g, on_equal) == violations(g, phi)
        copy = coloring._require_proper(g, on_equal)
        assert copy == on_equal and copy.graph is g

    def test_own_graph_is_not_compared(self, monkeypatch):
        # the identity test comes first, so a colouring on g itself costs
        # no comparison of edge tuples
        g = random_gnp(40, 0.3, 1)
        phi = greedy_total(g)

        def refuse(self, other):
            raise AssertionError("graphs compared")

        monkeypatch.setattr(Graph, "__eq__", refuse)
        monkeypatch.setattr(Graph, "__ne__", refuse, raising=False)
        check_total(g, phi)
        assert violations(g, phi) == violations(g, phi)

    def test_results_name_their_graph(self):
        g = random_gnp(30, 0.3, 2)
        phi = greedy_total(g)
        out, _ = run_pipeline(g, params=PipelineParams(seed=2))
        g2, loaded = from_document(to_document(g, out))
        assert phi.graph is g and out.graph is g
        assert loaded.graph is g2 and g2 == g and loaded == out


class TestColorSets:
    """Colour sets as the closed-star masks every phase reads."""

    def test_color_set_matches_naive(self):
        g, phi = p3_coloring()
        masks = phi.stars
        assert masks == (0b1010, 0b11100, 0b10010)
        for v in range(3):
            assert masks[v] == mask_of(naive_color_set(g, phi, v))

    def test_proper_set_size_is_degree_plus_one(self):
        for g in (complete_graph(4), random_gnp(30, 0.3, 5)):
            phi = greedy_total(g)
            for v, mask in enumerate(phi.stars):
                assert mask.bit_count() == g.degree(v) + 1

    def test_color_sets_batch_agrees(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        assert phi.stars == tuple(mask_of(naive_color_set(g, phi, v))
                                  for v in range(g.n))

    def test_built_once_and_kept(self):
        g = cycle_graph(5)
        phi = greedy_total(g)
        assert phi.stars is phi.stars

    def test_verifier_never_reads_carried_masks(self):
        # masks that hide every clash, or report clashes that are not
        # there, leave the verdict as it is on an unpoisoned copy
        improper = TotalColoring((1, 2, 1), (3, 3), 3, P3)
        for g, phi in ((complete_graph(3), greedy_total(complete_graph(3))),
                       p3_coloring(), (P3, improper)):
            clean = TotalColoring(phi.vertex_colors, phi.edge_colors, phi.k, g)
            for poison in (tuple(range(1, g.n + 1)), (0,) * g.n):
                object.__setattr__(phi, "stars", poison)
                assert violations(g, phi) == violations(g, clean)
                assert verdict(g, phi) == verdict(g, clean)


class TestPropernessViolations:
    """The properness witnesses ``violations`` lists on improper colourings."""

    def test_clean_coloring_no_violations(self):
        g, phi = p3_coloring()
        assert violations(g, phi) == []
        assert verdict(g, phi)["proper"]

    def test_vertex_vertex_clash(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), (2,), 2, g)
        vs = violations(g, phi)
        assert [v.kind for v in vs] == ["vertex-vertex"]
        assert vs[0].witness == (0, 1)

    def test_vertex_edge_clash_reports_each_side(self):
        g = path_graph(2)
        phi = TotalColoring((1, 1), (1,), 1, g)
        kinds = sorted(v.kind for v in violations(g, phi))
        assert kinds == ["vertex-edge", "vertex-edge", "vertex-vertex"]

    def test_edge_edge_clash(self):
        g = path_graph(3)
        phi = TotalColoring((1, 2, 1), (3, 3), 3, g)
        vs = violations(g, phi)
        assert [v.kind for v in vs] == ["edge-edge"]
        assert vs[0].witness == ((0, 1), (1, 2))

    def test_edge_edge_reported_once_per_pair(self):
        g = star_graph(3)
        phi = TotalColoring((1, 2, 2, 2), (3, 3, 3), 3, g)
        clashes = [v for v in violations(g, phi) if v.kind == "edge-edge"]
        assert len(clashes) == 3  # three unordered pairs of the three edges

    @given(st.integers(1, 40), st.floats(0.05, 1.0), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_improper_colourings_match_reference(self, n, p, k, seed):
        g = random_gnp(n, p, seed)
        rng = random.Random(seed)
        phi = TotalColoring(tuple(rng.randint(1, k) for _ in range(g.n)),
                            tuple(rng.randint(1, k) for _ in g.edges), k, g)
        improper = reference_properness_violations(g, phi)
        found = violations(g, phi)
        if improper:
            assert found == improper
        else:
            assert all(v.kind == "undistinguished-pair" for v in found)
        assert phi.stars == tuple(mask_of(naive_color_set(g, phi, v))
                                  for v in range(g.n))


class TestAvdViolations:
    """The undistinguished pairs ``violations`` lists on proper colourings."""

    def test_requires_properness(self):
        # the colour sets {1, 2} and {1, 2} clash too, but an improper
        # colouring is never AVD, whatever its colour sets
        g = path_graph(2)
        phi = TotalColoring((1, 1), (2,), 2, g)
        assert verdict(g, phi) == {"proper": False, "avd": False}
        distinct = TotalColoring((1, 2), (2,), 2, g)
        assert verdict(g, distinct) == {"proper": False, "avd": False}

    def test_undistinguished_pair_on_k2(self):
        # both endpoints of K_2 see {1, 2} and {2, 3}? choose a clash:
        g = path_graph(2)
        phi = TotalColoring((1, 2), (3,), 3, g)
        # C(0) = {1,3}, C(1) = {2,3}: distinguished
        assert violations(g, phi) == []

    def test_cycle_clash(self):
        # C_4 colouring where vertices 0 and 1 both see {1, 2, 3}.
        g = cycle_graph(4)
        phi = from_edge_dict(g, (1, 2, 4, 3),
                             {(0, 1): 3, (1, 2): 1, (2, 3): 5, (0, 3): 2}, 5)
        vs = violations(g, phi)
        assert [v.kind for v in vs] == ["undistinguished-pair"]
        assert vs[0].witness == (0, 1)

    def test_opposite_vertices_never_flagged(self):
        # Alternating colouring: equal sets only on the non-adjacent diagonals.
        g = cycle_graph(4)
        phi = from_edge_dict(g, (1, 2, 1, 2),
                             {(0, 1): 3, (1, 2): 4, (2, 3): 3, (0, 3): 4}, 4)
        assert violations(g, phi) == []

    def test_verdict_matches_naive(self):
        g = cycle_graph(4)
        phi = from_edge_dict(g, (1, 2, 4, 3),
                             {(0, 1): 3, (1, 2): 1, (2, 3): 5, (0, 3): 2}, 5)
        v = verdict(g, phi)
        assert v == {"proper": naive_is_proper(g, phi),
                     "avd": naive_is_avd(g, phi)}
        assert v == {"proper": True, "avd": False}


def fresh_fault(phi: TotalColoring, edge, fault: str) -> TotalColoring:
    """phi with one fault made of the brand-new colour k + 1 at edge uv.

    ``vertex-edge`` gives u and uv that colour: u's star loses a colour and
    nothing else clashes. ``vertex-vertex`` gives it to u and v: every star
    keeps deg + 1 colours, only the vertex colours across uv agree.
    """
    u, v = edge
    k = phi.k + 1
    vertex_colors = list(phi.vertex_colors)
    edge_colors = list(phi.edge_colors)
    vertex_colors[u] = k
    if fault == "vertex-edge":
        edge_colors[phi.graph.edges.index(edge)] = k
    else:
        vertex_colors[v] = k
    return TotalColoring(tuple(vertex_colors), tuple(edge_colors), k, phi.graph)


@st.composite
def graphs_and_colourings(draw):
    """Small graphs, edgeless ones and isolated vertices included, with a
    colouring that is random, greedy, or greedy plus one fresh fault."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.build(n, [e for e, kept in zip(pairs, keep) if kept])
    kind = draw(st.sampled_from(["random", "greedy", "vertex-edge", "vertex-vertex"]))
    if kind == "random":
        k = draw(st.integers(1, 2 * g.max_degree + 2))
        colour = st.integers(1, k)
        return g, TotalColoring(tuple(draw(colour) for _ in range(n)),
                                tuple(draw(colour) for _ in g.edges), k, g)
    phi = greedy_total(g)
    if kind == "greedy" or not g.edges:
        return g, phi
    return g, fresh_fault(phi, draw(st.sampled_from(g.edges)), kind)


class TestViolations:
    """The one verifier against the witness loop it replaced and the naive sets."""

    @given(graphs_and_colourings())
    @settings(max_examples=400, deadline=None)
    def test_properness_list_or_else_avd_list(self, case):
        g, phi = case
        improper = reference_properness_violations(g, phi)
        undistinguished = [Violation("undistinguished-pair", (u, v)) for u, v in g.edges
                           if naive_color_set(g, phi, u) == naive_color_set(g, phi, v)]
        found = violations(g, phi)
        assert found == (improper or undistinguished)
        assert [v for v in found if v.kind != "undistinguished-pair"] == improper
        assert verdict(g, phi) == {"proper": naive_is_proper(g, phi),
                                   "avd": naive_is_avd(g, phi)}

    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_verdicts_agree_with_the_benchmark_oracle(self, n, q, seed, spare, changes,
                                                       rnd):
        # benchmarks/oracle.check_document shares no code with the package.
        # The colours are drawn from 1..k, all of them at changes = 3, else
        # changes of them over the greedy colouring, so some are proper
        g = random_gnp(n, q, seed)
        base = greedy_total(g)
        k = base.k + spare
        vertex_colors, edge_colors = list(base.vertex_colors), list(base.edge_colors)
        picks = (range(n + len(g.edges)) if changes == 3
                 else rnd.sample(range(n + len(g.edges)), min(changes, n + len(g.edges))))
        for i in picks:
            colours = vertex_colors if i < n else edge_colors
            colours[i if i < n else i - n] = rnd.randint(1, k)
        phi = TotalColoring(tuple(vertex_colors), tuple(edge_colors), k, g)
        found = violations(g, phi)
        # the document claims both flags, with a report that accounts for
        # the palette, so the oracle's only complaints are about the colours
        doc = coloring._document_body(g, phi, {"proper": True, "avd": True})
        doc["report"] = {"input_k": k, "final_k": k, "fresh_palette_size": 0,
                         "fallback_repairs": 0, "verified": {"proper": True, "avd": True}}
        problems = ORACLE.check_document(g.n, list(g.edges), doc)
        assert set(problems) <= {"colouring is not a proper total colouring",
                                 "adjacent vertices share a colour set"}
        assert coloring._proper(found) == (
            "colouring is not a proper total colouring" not in problems)
        assert (not found) == (not problems)

    @pytest.mark.parametrize("fault", ["vertex-edge", "vertex-vertex"])
    def test_single_fresh_fault_is_the_only_witness(self, fault):
        g = random_gnp(12, 0.4, 3)
        edge = g.edges[len(g.edges) // 2]
        phi = fresh_fault(greedy_total(g), edge, fault)
        witness = (edge[0], edge) if fault == "vertex-edge" else edge
        assert violations(g, phi) == [Violation(fault, witness)]
        assert verdict(g, phi) == {"proper": False, "avd": False}

    def test_edgeless_and_isolated_vertices(self):
        empty = Graph.build(0, [])
        assert violations(empty, TotalColoring((), (), 0, empty)) == []
        edgeless = Graph.build(3, [])
        assert violations(edgeless, TotalColoring((1, 1, 1), (), 1, edgeless)) == []
        g = Graph.build(4, [(1, 2)])  # 0 and 3 isolated
        phi = TotalColoring((1, 1, 2, 1), (3,), 3, g)
        assert violations(g, phi) == []
        assert verdict(g, phi) == {"proper": True, "avd": True}



def shifted(phi: TotalColoring, shift: int) -> TotalColoring:
    """phi with shift added to every colour and to k."""
    return TotalColoring(tuple(c + shift for c in phi.vertex_colors),
                         tuple(c + shift for c in phi.edge_colors),
                         phi.k + shift, phi.graph)


def permuted(phi: TotalColoring, rng: random.Random, spread: int) -> TotalColoring:
    """phi with its colours mapped one-to-one onto random colours in
    1..k + spread, k growing to the largest; properness and colour-set
    equality are kept."""
    used = sorted(used_colours(phi))
    image = dict(zip(used, rng.sample(range(1, phi.k + spread + 1), len(used))))
    return TotalColoring(tuple(image[c] for c in phi.vertex_colors),
                         tuple(image[c] for c in phi.edge_colors),
                         max(image.values(), default=phi.k), phi.graph)


def colouring_of(g: Graph, kind: str, rng: random.Random) -> TotalColoring:
    """A total colouring of g: uniformly random in a small palette, mostly
    improper; or, with its colours permuted, a greedy seed, proper and
    often not AVD, or a pipeline output, proper and AVD."""
    if kind == "random":
        k = rng.randint(1, 2 * g.max_degree + 2)
        return TotalColoring(tuple(rng.randint(1, k) for _ in range(g.n)),
                             tuple(rng.randint(1, k) for _ in g.edges), k, g)
    if kind == "greedy":
        return permuted(greedy_total(g), rng, 10)
    out, _ = run_pipeline(g, params=PipelineParams(seed=rng.randrange(2 ** 32)))
    return permuted(out, rng, 10)


class TestSortedKeyJudge:
    """The sort-based properness check and the hash-then-confirm AVD check
    against ``reference_violations``, the mask-based judge they replaced."""

    @given(st.integers(0, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["random", "greedy", "solved"]))
    @settings(max_examples=200, deadline=None)
    def test_equals_reference(self, n, p, seed, kind):
        g = random_gnp(n, p, seed)
        phi = colouring_of(g, kind, random.Random(seed))
        assert violations(g, phi) == reference_violations(g, phi)

    def test_greedy_seeds_exercise_true_matches(self):
        # most permuted greedy seeds are proper and not AVD, so the
        # confirmation of true matches runs
        found = 0
        for seed in range(40):
            g = random_gnp(20, 0.3, seed)
            phi = colouring_of(g, "greedy", random.Random(seed))
            got = violations(g, phi)
            assert got == reference_violations(g, phi)
            found += bool(got) and got[0].kind == "undistinguished-pair"
        assert found >= 10

    @given(st.integers(0, 24), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["random", "greedy", "solved"]))
    @settings(max_examples=100, deadline=None)
    def test_confirmation_decides_when_every_hash_collides(self, n, p, seed, kind):
        # with one hash for every colour, the sums match across every edge
        # whose ends have equal degree; only the confirmation can tell them apart
        g = random_gnp(n, p, seed)
        phi = colouring_of(g, kind, random.Random(seed))
        expected = reference_violations(g, phi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_colour_hash",
                       lambda colours: np.full(colours.shape, 7, dtype=np.uint64))
            assert violations(g, phi) == expected

    def test_regular_graphs_with_colliding_hashes(self, monkeypatch):
        monkeypatch.setattr(coloring, "_colour_hash",
                            lambda colours: np.zeros(colours.shape, dtype=np.uint64))
        for g in (cycle_graph(7), complete_graph(6), random_regular(30, 4, 1)):
            out, _ = run_pipeline(g)
            assert violations(g, out) == []
            seed = greedy_total(g)
            assert violations(g, seed) == reference_violations(g, seed)

    @pytest.mark.parametrize("shift", [2 ** 63 - 1, 2 ** 63, 2 ** 70])
    def test_colours_beyond_int64(self, shift):
        g = random_gnp(30, 0.3, 5)
        rng = random.Random(5)
        for kind in ("random", "greedy", "solved"):
            phi = colouring_of(g, kind, rng)
            assert violations(g, shifted(phi, shift)) == reference_violations(g, phi)

    def test_keys_stay_within_int64(self):
        # the colours fit in int64, but n * (largest + 1) does not: the
        # colours are relabelled by rank, and the verdict does not move
        g = random_gnp(30, 0.3, 5)
        phi = colouring_of(g, "solved", random.Random(5))
        big = shifted(phi, 2 ** 62)
        vc, ec, stride = coloring._colour_arrays(g, big)
        assert g.n * stride <= 2 ** 63
        assert stride == len(used_colours(big)) + 1
        assert sorted({*vc.tolist(), *ec.tolist()}) == list(range(1, stride))
        assert violations(g, big) == reference_violations(g, phi) == []

    def test_stride_from_largest_colour_present(self):
        g = random_gnp(30, 0.3, 5)
        phi = greedy_total(g)
        wide = TotalColoring(phi.vertex_colors, phi.edge_colors, 2 ** 70, g)
        vc, ec, stride = coloring._colour_arrays(g, wide)
        assert stride == max(used_colours(phi)) + 1
        assert vc.tolist() == list(phi.vertex_colors)
        assert ec.tolist() == list(phi.edge_colors)
        assert violations(g, wide) == reference_violations(g, phi)

    def test_edge_colours_read_in_edge_order(self):
        # the dict form in any key order converts to the same rows, and so
        # to the same colour arrays and verdict
        g = random_gnp(25, 0.3, 2)
        phi = colouring_of(g, "greedy", random.Random(2))
        reordered = from_edge_dict(g, phi.vertex_colors,
                                   dict(reversed(edge_dict(phi).items())), phi.k)
        assert reordered.edge_colors == phi.edge_colors
        assert violations(g, reordered) == violations(g, phi)
        assert coloring._colour_arrays(g, reordered)[1].tolist() == list(phi.edge_colors)

    @staticmethod
    def case(n, edges, vertex_colors, edge_colors, k):
        g = Graph.build(n, edges)
        return g, TotalColoring(vertex_colors, edge_colors, k, g)

    @pytest.mark.parametrize("g, phi", [
        case(0, [], (), (), 0),
        case(1, [], (2 ** 70,), (), 2 ** 70),
        case(3, [], (1, 1, 1), (), 1),
        case(5, [(1, 3)], (1, 1, 2, 2, 1), (3,), 3),
        case(5, [(1, 3)], (1, 1, 2, 1, 1), (3,), 3),
        case(5, [(1, 3), (3, 4)], (1, 1, 2, 2, 1), (3, 3), 3),
    ], ids=["n0", "n1-huge-colour", "edgeless", "isolated", "isolated-clash",
            "isolated-edge-clash"])
    def test_small_and_edgeless(self, g, phi, monkeypatch):
        expected = (reference_violations(g, phi) if phi.k < 2 ** 63 else [])
        assert violations(g, phi) == expected
        monkeypatch.setattr(coloring, "_colour_hash",
                            lambda colours: np.zeros(colours.shape, dtype=np.uint64))
        assert violations(g, phi) == expected

    def test_never_reads_stars(self):
        class Starless(TotalColoring):
            @property
            def stars(self):
                raise AssertionError("the verifier read phi.stars")

        for g in (random_gnp(20, 0.4, 1), path_graph(3), Graph.build(0, [])):
            for phi in (greedy_total(g), run_pipeline(g)[0]):
                blind = Starless(phi.vertex_colors, phi.edge_colors, phi.k, g)
                assert violations(g, blind) == reference_violations(g, phi)
                assert verdict(g, blind) == verdict(g, phi)


class TestEqualMaskRows:
    """``coloring._equal_mask_rows`` against the plain scan of the edges."""

    @staticmethod
    def plain(g, masks):
        return [row for row, (u, v) in enumerate(g.edges) if masks[u] == masks[v]]

    @given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_plain_scan(self, n, p, seed, data):
        g = random_gnp(n, p, seed)
        # a small pool, so that many endpoints share a mask; x and
        # x + 2**61 - 1 (the hash modulus of 64-bit builds) hash alike
        x = data.draw(st.integers(0, 2 ** 200))
        pool = [x, x + sys.hash_info.modulus, 2 * x + 1, 1 << 300]
        masks = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        assert coloring._equal_mask_rows(g, masks) == self.plain(g, masks)

    def test_equal_hashes_are_confirmed(self):
        x, y = 123_456_789, 123_456_789 + sys.hash_info.modulus
        assert hash(x) == hash(y)
        g = path_graph(4)
        masks = [x, y, y, x]
        assert coloring._equal_mask_rows(g, masks) == [1] == self.plain(g, masks)

    def test_stage_masks(self):
        for g in (random_gnp(200, 0.05, 1), complete_graph(6), Graph.build(0, [])):
            phi = greedy_total(g)
            assert coloring._equal_mask_rows(g, phi.stars) == self.plain(g, phi.stars)


class TestPalette:
    def test_palette_size_counts_used_not_declared(self):
        # the verifier sizes its colour tables by the colours present, 1..4
        g, phi = p3_coloring()
        wide = TotalColoring(phi.vertex_colors, phi.edge_colors, 99, g)
        assert coloring._colour_arrays(g, wide)[2] == 5
        assert verdict(g, wide) == verdict(g, phi)


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
        doc = {
            "n": 2, "edges": [[0, 1]], "k": 2,
            "vertex_colors": [1, 1],
            "edge_colors": [{"u": 0, "v": 1, "c": 2}],
        }
        g2, phi2 = from_document(doc)
        assert not verdict(g2, phi2)["proper"]

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

    def test_vertex_count_checked_before_the_graph(self):
        # the graph was built first: n = 3 000 000 took 1.5 s and 279 MB
        doc = {"n": 10 ** 12, "edges": [], "k": 1, "vertex_colors": [1],
               "edge_colors": []}
        t0 = time.perf_counter()
        with pytest.raises(DocumentError,
                           match="^vertex_colors must list one integer per vertex$"):
            from_document(doc)
        assert time.perf_counter() - t0 < 0.1
        # a negative n is still the graph's to refuse
        doc.update(n=-1, vertex_colors=[])
        with pytest.raises(DocumentError, match="^bad graph data: vertex count"):
            from_document(doc)

    def test_self_loop_edge_rejected(self):
        g, phi = p3_coloring()
        doc = to_document(g, phi)
        doc["edges"][0] = [1, 1]
        with pytest.raises(DocumentError, match="^bad graph data: self-loop at vertex 1$"):
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


@given(n=st.integers(0, 30), p=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_document_body_matches_reference(n, p, seed):
    # the one-pass edge records against the per-edge lookups, on a pipeline
    # output and on the same colouring loaded with its edge records
    # shuffled, which places each colour at its row of the loaded graph
    g = random_gnp(n, p, seed)
    out, report = run_pipeline(g, params=PipelineParams(seed=seed))
    body = coloring._document_body(g, out, report.verified)
    assert body == reference_document_body(g, out, verdict(g, out))
    assert to_document(g, out) == body
    records = body["edge_colors"][:]
    random.Random(seed).shuffle(records)
    loaded = [from_document(dict(body, edge_colors=order))
              for order in (records, records[::-1])]
    for g2, phi in loaded:
        assert phi.graph is g2 and phi.edge_colors == out.edge_colors
        assert coloring._document_body(g2, phi, report.verified) == body
        assert reference_document_body(g2, phi, report.verified) == body
        assert to_document(g2, phi) == body


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10))
@settings(max_examples=40)
def test_greedy_verifiers_agree_with_naive(n, salt):
    from avdtotal import random_gnp
    g = random_gnp(n, 0.5, salt)
    phi = greedy_total(g)
    assert verdict(g, phi)["proper"] == naive_is_proper(g, phi)
    assert naive_is_proper(g, phi)
    assert (not violations(g, phi)) == naive_is_avd(g, phi)
