"""Randomized deletion stages: parameters, events, and resampling searches."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avdtotal import (BadEvent, EdgeSelection, Graph, InfeasibleSelectionError,
                      PipelineParams, TotalColoring, bulk_violations,
                      candidate_edges, cap_overloaded, complete_graph,
                      cycle_graph, degree_split, find_bulk_deletion,
                      find_patch_deletion, greedy_total, is_proper,
                      light_vertices, patch_violations, random_gnp,
                      sample_candidates, sample_patch, star_graph, substream)

from helpers import reference_bulk_events, reference_patch_events

BULK_STREAM = "bulk-deletion"
PATCH_STREAM = "patch-deletion"


def two_hub_fixture():
    """Hubs 0, 1 (degree 7) with six private leaves each.

    Hand-verified proper; stripping five private edges per hub leaves both
    hubs with the set {1, 2, 3}.
    """
    edges = [(0, 1)] + [(0, a) for a in range(2, 8)] + [(1, b) for b in range(8, 14)]
    g = Graph.build(14, edges)
    phi = TotalColoring(
        (1, 2, 4, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1),
        {(0, 1): 3, (0, 2): 2, (0, 3): 4, (0, 4): 5, (0, 5): 6, (0, 6): 7,
         (0, 7): 8, (1, 8): 1, (1, 9): 4, (1, 10): 5, (1, 11): 6, (1, 12): 7,
         (1, 13): 8}, 8)
    return g, phi


def k5_fixture():
    """K_5 with the cyclic colouring: every vertex sees all of 1..5."""
    g = complete_graph(5)
    phi = TotalColoring(
        tuple((2 * v) % 5 + 1 for v in range(5)),
        {(i, j): (i + j) % 5 + 1 for i in range(5) for j in range(i + 1, 5)}, 5)
    return g, phi


class TestPipelineParams:
    def test_defaults(self):
        p = PipelineParams()
        assert (p.eps, p.m, p.d, p.alpha, p.beta, p.B) == (
            Fraction(1, 3), 8, 4, Fraction(1, 2), Fraction(1, 3), 2)

    def test_fraction_coercion(self):
        p = PipelineParams(eps="1/4", alpha=0.75, beta="0.25")
        assert p.eps == Fraction(1, 4)
        assert p.alpha == Fraction(3, 4)
        assert p.beta == Fraction(1, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(m=7, d=4),           # m < d + 4
        dict(d=0),
        dict(eps=Fraction(0)),
        dict(eps=Fraction(1)),
        dict(alpha=Fraction(1, 3), beta=Fraction(1, 2)),
        dict(beta=Fraction(0)),
        dict(B=1),
        dict(lam=0.0),
        dict(M=0),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(max_rounds=0),
        dict(stall_rounds=0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            PipelineParams(**kwargs)

    def test_resolve_defaults(self):
        r = PipelineParams().resolve(complete_graph(51))
        assert r.delta == 50
        assert r.lam == pytest.approx(49.23655574633871, abs=1e-9)
        assert r.M == 268
        assert r.p == pytest.approx(r.lam / 50)

    def test_resolve_small_graph_saturates_p(self):
        r = PipelineParams().resolve(complete_graph(5))
        assert r.p == 1.0

    def test_resolve_edgeless(self):
        r = PipelineParams().resolve(Graph.build(3, []))
        assert r.delta == 0 and r.p == 1.0

    def test_resolve_lam_override_recomputes_cap(self):
        r = PipelineParams(lam=34.0).resolve(complete_graph(51))
        assert r.lam == 34.0
        assert r.M == 185  # ceil(2e * 34)

    def test_resolve_both_overrides(self):
        r = PipelineParams(lam=25.0, M=30).resolve(star_graph(60))
        assert (r.lam, r.M) == (25.0, 30)
        assert r.p == pytest.approx(25.0 / 60.0)


class TestEdgeSelection:
    def test_from_edges_normalizes(self):
        s = EdgeSelection.from_edges(4, [(2, 0), (0, 2), (1, 3)])
        assert s.edges == frozenset({(0, 2), (1, 3)})
        assert s.per_vertex_count == (1, 1, 1, 1)

    def test_counts(self):
        s = EdgeSelection.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert s.degree(0) == 3 and s.degree(2) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeSelection.from_edges(3, [(0, 3)])

    def test_bad_event_kind_validated(self):
        with pytest.raises(ValueError):
            BadEvent("no-such-kind", (0,))


class TestCandidatesAndSampling:
    def test_candidates_exclude_low_low_edges(self):
        g = Graph.build(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        # hub 0 is the only high vertex; (1, 2) joins two low vertices
        assert degree_split(g).high == frozenset({0})
        assert candidate_edges(g) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_candidates_regular_graph_all(self):
        g = cycle_graph(5)
        assert candidate_edges(g) == list(g.edges)

    def test_sample_extremes(self):
        g = complete_graph(5)
        rng = substream(0, BULK_STREAM)
        assert sample_candidates(g, 0.0, rng).edges == frozenset()
        assert sample_candidates(g, 1.0, rng).edges == g.edge_set

    def test_sample_rejects_bad_p(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            sample_candidates(g, 1.5, substream(0, BULK_STREAM))

    def test_sample_deterministic_per_seed(self):
        g = complete_graph(10)
        a = sample_candidates(g, 0.5, substream(11, BULK_STREAM))
        b = sample_candidates(g, 0.5, substream(11, BULK_STREAM))
        assert a == b
        c = sample_candidates(g, 0.5, substream(12, BULK_STREAM))
        assert a != c

    def test_sample_mean_matches_expectation(self):
        # fixed stream makes this check deterministic; the tolerance is
        # seven standard errors of the 800-draw mean
        g = complete_graph(51)
        r = PipelineParams().resolve(g)
        cands = candidate_edges(g)
        rng = substream(123, BULK_STREAM)
        draws = 800
        total = sum(len(sample_candidates(g, r.p, rng).edges)
                    for _ in range(draws))
        expected = len(cands) * r.p
        sigma = (len(cands) * r.p * (1 - r.p) / draws) ** 0.5
        assert abs(total / draws - expected) < 7 * sigma

    def test_cap_drops_both_sides(self):
        g = star_graph(4)
        s = EdgeSelection.from_edges(5, g.edges)
        capped = cap_overloaded(g, s, 3)
        assert capped.edges == frozenset()  # centre holds 4 > 3, all dropped

    def test_cap_keeps_at_cap(self):
        g = star_graph(4)
        s = EdgeSelection.from_edges(5, g.edges)
        assert cap_overloaded(g, s, 4).edges == g.edge_set

    def test_cap_rejects_negative(self):
        g = star_graph(2)
        with pytest.raises(ValueError):
            cap_overloaded(g, EdgeSelection.from_edges(3, []), -1)

    @given(st.integers(4, 12), st.integers(0, 99), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_cap_property(self, n, seed, cap):
        g = random_gnp(n, 0.6, seed)
        s = sample_candidates(g, 0.7, substream(seed, BULK_STREAM))
        capped = cap_overloaded(g, s, cap)
        assert capped.edges <= s.edges
        assert all(c <= cap for c in capped.per_vertex_count)
        # only edges with an overloaded endpoint disappear
        for e in s.edges - capped.edges:
            assert s.per_vertex_count[e[0]] > cap or s.per_vertex_count[e[1]] > cap


class TestBulkViolations:
    def test_a_pair_hand_case(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_violations(g, phi, sel,
                                 PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert [(e.kind, e.witness) for e in events] == [("A_pair", (0, 1))]

    def test_b_vertex_joins_at_smaller_eps(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_violations(g, phi, sel, PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A_pair", (0, 1)), ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_empty_selection_no_a_pair(self):
        # without m selected edges at either hub the pair event stays quiet,
        # but now every neighbour is under-selected, so both hubs trip B
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [])
        events = bulk_violations(g, phi, sel,
                                 PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert [(e.kind, e.witness) for e in events] == [
            ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_rejects_low_low_edge(self):
        g, phi = two_hub_fixture()
        g2 = Graph.build(14, list(g.edges) + [(2, 8)])
        sel = EdgeSelection.from_edges(14, [(2, 8)])
        with pytest.raises(ValueError):
            bulk_violations(g2, greedy_total(g2), sel, PipelineParams(m=5, d=1))

    def test_rejects_over_cap(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, g.edges)
        with pytest.raises(ValueError):
            bulk_violations(g, phi, sel, PipelineParams(m=5, d=1, M=3))

    def test_rejects_improper(self):
        g, phi = two_hub_fixture()
        bad = TotalColoring((1,) * 14, phi.edge_colors, 8)
        with pytest.raises(ValueError):
            bulk_violations(g, bad, EdgeSelection.from_edges(14, []),
                            PipelineParams(m=5, d=1))

    @given(st.integers(4, 12), st.integers(0, 199), st.integers(0, 99))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_naive(self, n, seed, subset_seed):
        g = random_gnp(n, 0.6, seed)
        phi = greedy_total(g)
        params = PipelineParams(m=6, d=2, eps=Fraction(2, 5), lam=5.0, M=10_000)
        cands = candidate_edges(g)
        rng = np.random.Generator(np.random.Philox(subset_seed))
        mask = rng.random(len(cands)) < 0.5
        sel = EdgeSelection.from_edges(g.n, [e for e, k in zip(cands, mask) if k])
        got = [(e.kind, e.witness) for e in bulk_violations(g, phi, sel, params)]
        assert got == reference_bulk_events(g, phi, sel.edges, 6, 2, Fraction(2, 5))


class TestFindBulkDeletion:
    def test_saturated_p_success_round_one(self):
        g, phi = two_hub_fixture()
        res = find_bulk_deletion(g, phi, PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert res.success and res.rounds == 1
        assert res.selection.edges == g.edge_set  # p = 1 keeps everything

    def test_saturated_p_deterministic_failure(self):
        g, phi = two_hub_fixture()
        res = find_bulk_deletion(g, phi, PipelineParams(m=5, d=1))
        assert not res.success and res.rounds == 1
        assert [(e.kind, e.witness) for e in res.violations] == [
            ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_resampling_reaches_success(self):
        g = complete_graph(12)
        phi = greedy_total(g)
        params = PipelineParams(m=6, d=1, eps=Fraction(1, 3), lam=6.0, seed=7)
        res = find_bulk_deletion(g, phi, params)
        assert res.success and res.rounds == 5
        assert bulk_violations(g, phi, res.selection, params) == []

    def test_deterministic_per_seed(self):
        g = complete_graph(12)
        phi = greedy_total(g)
        params = PipelineParams(m=6, d=1, eps=Fraction(1, 3), lam=6.0, seed=7)
        a = find_bulk_deletion(g, phi, params)
        b = find_bulk_deletion(g, phi, params)
        assert a == b

    def test_cap_respected_and_success_verifies(self):
        g = complete_graph(12)
        phi = greedy_total(g)
        params = PipelineParams(m=5, d=1, eps=Fraction(1, 2), lam=6.0, seed=1)
        res = find_bulk_deletion(g, phi, params)
        r = params.resolve(g)
        assert max(res.selection.per_vertex_count) <= r.M
        if res.success:
            assert bulk_violations(g, phi, res.selection, params) == []

    def test_edgeless_graph(self):
        g = Graph.build(4, [])
        phi = greedy_total(g)
        res = find_bulk_deletion(g, phi, PipelineParams())
        assert res.success and res.selection.edges == frozenset()


class TestLightVertices:
    def test_after_heavy_selection_none_light(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        assert light_vertices(g, sel, 5) == frozenset()

    def test_empty_selection_all_high_light(self):
        g, phi = two_hub_fixture()
        assert light_vertices(g, EdgeSelection.from_edges(14, []), 5) == {0, 1}

    def test_low_vertices_never_light(self):
        g = star_graph(5)
        light = light_vertices(g, EdgeSelection.from_edges(6, []), 5)
        assert light == frozenset({0})


class TestSamplePatch:
    def test_infeasible_raises_with_attributes(self):
        from avdtotal import path_graph
        g = path_graph(3)
        empty = EdgeSelection.from_edges(3, [])
        with pytest.raises(InfeasibleSelectionError) as exc:
            sample_patch(g, empty, frozenset({1}), 3, substream(0, PATCH_STREAM))
        assert exc.value.vertex == 1
        assert exc.value.needed == 3
        assert exc.value.available == 2

    def test_draws_exactly_b_per_light_vertex(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        sel = sample_patch(g, empty, frozenset({0, 1}), 2, substream(5, PATCH_STREAM))
        assert sel.per_vertex_count[0] == 2 and sel.per_vertex_count[1] == 2
        for u, v in sel.edges:
            assert (u in {0, 1}) != (v in {0, 1})

    def test_avoids_bulk_edges(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(5, [(0, 2), (0, 3)])
        sel = sample_patch(g, bulk, frozenset({0}), 2, substream(5, PATCH_STREAM))
        assert sel.edges == frozenset({(0, 1), (0, 4)})  # the only pool left

    def test_uniform_over_pairs(self):
        # 6 possible 2-subsets of vertex 0's four edges; fixed stream, so
        # the observed counts are reproducible
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        rng = substream(42, PATCH_STREAM)
        counts: dict = {}
        for _ in range(3000):
            sel = sample_patch(g, empty, frozenset({0}), 2, rng)
            key = tuple(sorted(sel.edges))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        assert all(400 <= c <= 600 for c in counts.values())


class TestPatchViolations:
    def test_b2_pair_hand_case(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3)])
        events = patch_violations(g, phi, empty, patch, frozenset({0, 1}),
                                  PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (3,)), ("B2_pair", (0, 1))]

    def test_a2_overload_hand_case(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3)])
        events = patch_violations(g, phi, empty, patch, frozenset({0, 1}),
                                  PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (2,)), ("A2_overload", (3,))]

    def test_rejects_overlap_with_bulk(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(5, [(0, 3)])
        patch = EdgeSelection.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            patch_violations(g, phi, bulk, patch, frozenset({0, 1}),
                             PipelineParams(m=5, d=1))

    def test_rejects_light_light_edge(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 1), (0, 4), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            patch_violations(g, phi, empty, patch, frozenset({0, 1}),
                             PipelineParams(m=5, d=1))

    def test_rejects_wrong_count(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 3), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            patch_violations(g, phi, empty, patch, frozenset({0, 1}),
                             PipelineParams(m=5, d=1))

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_naive(self, n, seed, draw_seed):
        g = random_gnp(n, 0.5, seed)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g.n, [])
        # the checker accepts any light set; pick an arbitrary slice of the
        # high vertices so non-light neighbours stay plentiful
        high = sorted(degree_split(g).high)
        light = frozenset(high[: len(high) // 3])
        from avdtotal.highdeg import _available_edges
        avail = _available_edges(g, empty.edges, light)
        assume(light and all(len(avail[u]) >= 2 for u in light))
        patch = sample_patch(g, empty, light, 2, substream(draw_seed, PATCH_STREAM))
        params = PipelineParams(m=5, d=1)
        got = [(e.kind, e.witness)
               for e in patch_violations(g, phi, empty, patch, light, params)]
        assert got == reference_patch_events(g, phi, empty.edges, patch.edges,
                                             light, params.alpha, 2)


class TestFindPatchDeletion:
    def test_success_on_star(self):
        g = star_graph(6)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(7, [])
        light = light_vertices(g, empty, 5)
        assert light == frozenset({0})
        res = find_patch_deletion(g, phi, empty, light,
                                  PipelineParams(m=5, d=1, seed=3))
        assert res.success and res.rounds == 1
        assert sorted(res.selection.edges) == [(0, 1), (0, 4)]

    def test_structural_infeasibility_reported(self):
        # every C_5 vertex is high and light, so no patch edge can exist
        g = cycle_graph(5)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(5, [])
        light = light_vertices(g, empty, 5)
        res = find_patch_deletion(g, phi, empty, light, PipelineParams(m=5, d=1))
        assert not res.success
        assert res.rounds == 0
        assert res.infeasible_vertex == 0
        assert res.selection.edges == frozenset()

    def test_forced_draw_single_round(self):
        g = star_graph(4)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(5, [])
        light = light_vertices(g, empty, 5)
        res = find_patch_deletion(g, phi, empty, light,
                                  PipelineParams(m=5, d=1, B=4))
        assert res.success and res.rounds == 1
        assert res.selection.edges == g.edge_set

    def test_pigeonhole_failure_returns_best(self):
        # four patch slots over three non-light K_5 vertices always overload
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        res = find_patch_deletion(
            g, phi, empty, frozenset({0, 1}),
            PipelineParams(m=5, d=1, seed=0, stall_rounds=5, max_rounds=50))
        assert not res.success
        assert res.rounds == 7
        assert [(e.kind, e.witness) for e in res.violations] == [
            ("A2_overload", (4,))]

    def test_alpha_threshold_validated(self):
        g = star_graph(6)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(7, [])
        with pytest.raises(ValueError):
            # leaf 1 is below the alpha threshold
            find_patch_deletion(g, phi, empty, frozenset({1}),
                                PipelineParams(m=5, d=1))

    def test_deterministic_per_seed(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        params = PipelineParams(m=5, d=1, seed=9, stall_rounds=5, max_rounds=20)
        a = find_patch_deletion(g, phi, empty, frozenset({0, 1}), params)
        b = find_patch_deletion(g, phi, empty, frozenset({0, 1}), params)
        assert a == b


def dense_graph(n, seed):
    """K_n at even seeds, G(n, 0.8) at odd ones: dense, nearly all high."""
    return complete_graph(n) if seed % 2 == 0 else random_gnp(n, 0.8, seed)


# (m, d) pairs with m >= d + 4; small m lets dense selections reach it
CHECK_SHAPES = [(5, 1), (6, 2), (8, 4)]


class TestChecksAgainstReference:
    """The stages' own checks against full recomputation on random inputs."""

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99),
           st.sampled_from(CHECK_SHAPES), st.sampled_from([0.5, 0.8, 0.95]))
    @settings(max_examples=80, deadline=None)
    def test_bulk_check_on_dense_selections(self, n, seed, subset_seed, shape, q):
        g = dense_graph(n, seed)
        phi = greedy_total(g)
        m, d = shape
        params = PipelineParams(m=m, d=d, eps=Fraction(1, 3), lam=5.0, M=10_000)
        cands = candidate_edges(g)
        rng = np.random.Generator(np.random.Philox(subset_seed))
        sel = EdgeSelection.from_edges(
            g.n, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        got = [(e.kind, e.witness) for e in bulk_violations(g, phi, sel, params)]
        assert got == reference_bulk_events(g, phi, sel.edges, m, d, params.eps)

    def test_bulk_check_fires_at_every_edge_of_a_full_selection(self):
        # every vertex of K_9 is high, and selecting all edges gives each
        # vertex 8 >= m selected edges; the restricted sets shrink to the
        # two vertex colours, which differ in 2 < d places, so A_pair fires
        # at every edge
        g = complete_graph(9)
        phi = greedy_total(g)
        sel = EdgeSelection.from_edges(9, g.edges)
        params = PipelineParams(m=8, d=4, lam=5.0, M=10_000)
        got = [(e.kind, e.witness) for e in bulk_violations(g, phi, sel, params)]
        expected = reference_bulk_events(g, phi, sel.edges, 8, 4, params.eps)
        assert got == expected
        assert [w for kind, w in expected if kind == "A_pair"] == list(g.edges)

    @given(st.integers(5, 12), st.integers(0, 99), st.sampled_from(CHECK_SHAPES),
           st.sampled_from([3.0, 5.0, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_bulk_search_reports_what_reference_sees(self, n, seed, shape, lam):
        g = dense_graph(n, seed)
        phi = greedy_total(g)
        m, d = shape
        params = PipelineParams(m=m, d=d, lam=lam, seed=seed, stall_rounds=6)
        res = find_bulk_deletion(g, phi, params)
        sel = res.selection
        assert sel == EdgeSelection.from_edges(g.n, sel.edges)
        expected = reference_bulk_events(g, phi, sel.edges, m, d, params.eps)
        assert [(e.kind, e.witness) for e in res.violations] == expected
        assert res.success == (not expected)

    @given(st.integers(6, 12), st.integers(0, 99), st.integers(0, 99),
           st.integers(0, 99), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_patch_check_on_dense_selections(self, n, seed, light_seed, draw_seed, q):
        g = dense_graph(n, seed)
        phi = greedy_total(g)
        cands = candidate_edges(g)
        rng = np.random.Generator(np.random.Philox(light_seed))
        bulk = EdgeSelection.from_edges(
            g.n, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        high = sorted(degree_split(g).high)
        light = frozenset(v for v in high if rng.random() < 0.4)
        from avdtotal.highdeg import _available_edges
        avail = _available_edges(g, bulk.edges, light)
        assume(light and all(len(avail[u]) >= 2 for u in light))
        patch = sample_patch(g, bulk, light, 2, substream(draw_seed, PATCH_STREAM))
        params = PipelineParams(m=5, d=1)
        got = [(e.kind, e.witness)
               for e in patch_violations(g, phi, bulk, patch, light, params)]
        assert got == reference_patch_events(g, phi, bulk.edges, patch.edges,
                                             light, params.alpha, 2)

    @given(st.integers(6, 12), st.integers(0, 99), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_patch_search_reports_what_reference_sees(self, n, seed, light_seed):
        g = dense_graph(n, seed)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g.n, [])
        rng = np.random.Generator(np.random.Philox(light_seed))
        light = frozenset(v for v in sorted(degree_split(g).high) if rng.random() < 0.3)
        assume(light)
        params = PipelineParams(m=5, d=1, seed=seed, stall_rounds=4, max_rounds=30)
        res = find_patch_deletion(g, phi, empty, light, params)
        assume(res.infeasible_vertex is None)
        expected = reference_patch_events(g, phi, frozenset(), res.selection.edges,
                                          light, params.alpha, params.B)
        assert [(e.kind, e.witness) for e in res.violations] == expected
        assert res.success == (not expected)


class TestStreamSeparation:
    def test_bulk_and_patch_streams_differ(self):
        a = substream(0, BULK_STREAM).random(8)
        b = substream(0, PATCH_STREAM).random(8)
        assert not np.allclose(a, b)

    def test_same_label_same_stream(self):
        a = substream(3, BULK_STREAM).random(8)
        b = substream(3, BULK_STREAM).random(8)
        assert np.allclose(a, b)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            substream(-1, BULK_STREAM)
        with pytest.raises(ValueError):
            substream(2 ** 64, BULK_STREAM)
