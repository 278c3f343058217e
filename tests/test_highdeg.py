"""Randomized deletion stages: parameters, events, and resampling searches."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avdtotal import (BadEvent, EdgeSelection, Graph, PipelineParams,
                      TotalColoring, candidate_edges, complete_graph,
                      cycle_graph, degree_split, find_bulk_deletion,
                      find_patch_deletion, greedy_total, light_vertices,
                      random_gnp, star_graph, substream)
from avdtotal import highdeg
from avdtotal.highdeg import _BulkCheck, _PatchCheck

from helpers import (reference_bulk_events, reference_bulk_first_round,
                     reference_find_bulk_deletion, reference_find_patch_deletion,
                     reference_patch_events, reference_patch_first_draw)
from test_golden import hub_edges

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


def bulk_events(g, phi, sel, params):
    """The events find_bulk_deletion's own check reports for sel, given to
    it as a boolean array over the candidate edges."""
    cands = candidate_edges(g)
    check = _BulkCheck(g, phi, degree_split(g).high, cands,
                       params.m, params.d, params.eps)
    selected = np.array([e in sel.edges for e in cands], dtype=bool)
    return check.events(selected, np.array(sel.per_vertex_count, dtype=np.int64))


def patch_events(g, phi, bulk, patch, light, params):
    """The events find_patch_deletion's own check reports for patch, given
    to it as an index array over the check's light-vertex edges."""
    check = _PatchCheck(g, phi, bulk.edges, light, params.alpha, params.B)
    index = {e: i for i, e in enumerate(check.edges)}
    chosen = np.array([index[e] for e in patch.edges], dtype=np.int64)
    return check.events(chosen, np.array(patch.per_vertex_count, dtype=np.int64))


def first_bulk_round(g, phi, **kwargs):
    """find_bulk_deletion's selection after its first draw."""
    return find_bulk_deletion(g, phi, PipelineParams(max_rounds=1, **kwargs)).selection


def first_patch_draw(g, phi, bulk, light, **kwargs):
    """find_patch_deletion's selection after its first draw."""
    params = PipelineParams(m=5, d=1, max_rounds=1, **kwargs)
    return find_patch_deletion(g, phi, bulk, light, params).selection


def cyclic_clique(n):
    """K_n, n odd, with the cyclic colouring: every vertex sees all of
    1..n, so two light vertices keep equal sets whenever their patch edges
    carry the same colours."""
    g = complete_graph(n)
    phi = TotalColoring(
        tuple((2 * v) % n + 1 for v in range(n)),
        {(i, j): (i + j) % n + 1 for i in range(n) for j in range(i + 1, n)}, n)
    return g, phi


def k5_fixture():
    """K_5 with the cyclic colouring: every vertex sees all of 1..5."""
    return cyclic_clique(5)


class TestPipelineParams:
    def test_defaults(self):
        p = PipelineParams()
        assert (p.eps, p.m, p.d, p.alpha, p.B) == (
            Fraction(1, 3), 8, 4, Fraction(1, 2), 2)

    def test_fraction_coercion(self):
        p = PipelineParams(eps="1/4", alpha=0.75)
        assert p.eps == Fraction(1, 4)
        assert p.alpha == Fraction(3, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(m=7, d=4),           # m < d + 4
        dict(d=0),
        dict(eps=Fraction(0)),
        dict(eps=Fraction(1)),
        dict(alpha=Fraction(0)),
        dict(alpha=Fraction(-1, 2)),
        dict(B=1),
        dict(lam=0.0),
        dict(M=0),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(max_rounds=0),
        dict(stall_rounds=0),
        dict(lam=float("inf")),   # ceil(2e*lam) would overflow in resolve
        dict(lam=1e308),          # finite, but 2e*lam is not
        dict(lam=float("nan")),
        dict(lam=True),
        dict(M=2.5),
        dict(M=True),
        dict(seed=1.5),
        dict(m=9.0),
        dict(d=True),
        dict(B="2"),
        dict(max_rounds=1.5),
        dict(stall_rounds=None),
        dict(eps=float("inf")),
        dict(alpha=float("nan")),
        dict(alpha=True),
        dict(eps=None),
        dict(eps="1/0"),
    ])
    def test_rejects(self, kwargs):
        # the message names the offending field
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PipelineParams(**kwargs)

    def test_accepts_index_integers(self):
        p = PipelineParams(m=np.int64(9), seed=np.uint64(5), M=np.int32(30))
        assert (p.m, p.seed, p.M) == (9, 5, 30)
        assert all(type(x) is int for x in (p.m, p.seed, p.M))

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
        assert s.per_vertex_count[0] == 3 and s.per_vertex_count[2] == 1

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

    def test_one_degree_split_per_bulk_search(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return degree_split(g)

        monkeypatch.setattr(highdeg, "degree_split", counted)
        g = random_gnp(60, 0.5, 0)
        find_bulk_deletion(g, greedy_total(g), PipelineParams(seed=0))
        assert len(calls) == 1

    def test_sample_extremes(self):
        # K_5 has max degree 4 < lam, so p = 1; a tiny lam makes p ~ 1e-13
        g = complete_graph(5)
        phi = greedy_total(g)
        assert first_bulk_round(g, phi).edges == g.edge_set
        assert first_bulk_round(g, phi, lam=1e-12).edges == frozenset()

    def test_sample_rejects_bad_p(self):
        # p = min(1, lam / max_degree) with lam > 0 enforced, so the
        # sampling probability is always in (0, 1]
        with pytest.raises(ValueError):
            PipelineParams(lam=-0.5)
        assert PipelineParams(lam=1e9).resolve(complete_graph(5)).p == 1.0
        assert 0 < PipelineParams(lam=1e-9).resolve(complete_graph(5)).p < 1

    def test_sample_deterministic_per_seed(self):
        g = complete_graph(10)
        phi = greedy_total(g)
        kwargs = dict(lam=4.5, M=10_000)  # p = 1/2
        a = first_bulk_round(g, phi, seed=11, **kwargs)
        b = first_bulk_round(g, phi, seed=11, **kwargs)
        assert a == b
        c = first_bulk_round(g, phi, seed=12, **kwargs)
        assert a != c

    def test_sample_mean_matches_expectation(self):
        # fixed seeds make this check deterministic; the tolerance is seven
        # standard errors of the 800-draw mean
        g = complete_graph(51)
        phi = greedy_total(g)
        r = PipelineParams().resolve(g)
        cands = candidate_edges(g)
        draws = 800
        # the draw does not depend on m once lam and M are fixed; an m above
        # every count keeps A_pair, and so the round's check, cheap
        total = sum(len(first_bulk_round(g, phi, seed=seed, m=100, lam=r.lam,
                                         M=r.M).edges)
                    for seed in range(draws))
        expected = len(cands) * r.p
        sigma = (len(cands) * r.p * (1 - r.p) / draws) ** 0.5
        assert abs(total / draws - expected) < 7 * sigma

    def test_cap_drops_both_sides(self):
        g = star_graph(4)
        phi = greedy_total(g)
        # p = 1 selects all four edges; the centre holds 4 > 3, so all go
        assert first_bulk_round(g, phi, M=3).edges == frozenset()

    def test_cap_keeps_at_cap(self):
        g = star_graph(4)
        phi = greedy_total(g)
        assert first_bulk_round(g, phi, M=4).edges == g.edge_set

    def test_cap_rejects_negative(self):
        with pytest.raises(ValueError):
            PipelineParams(M=-1)

    @given(st.integers(4, 12), st.integers(0, 99), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_cap_property(self, n, seed, cap):
        g = random_gnp(n, 0.6, seed)
        params = PipelineParams(lam=0.7 * max(g.max_degree, 1), M=cap, seed=seed,
                                max_rounds=1)
        capped = find_bulk_deletion(g, greedy_total(g), params).selection
        # the uncapped draw: M at least the largest possible count
        drawn = reference_bulk_first_round(g, params.resolve(g).p, g.n, seed)
        held = EdgeSelection.from_edges(g.n, drawn).per_vertex_count
        assert capped.edges <= drawn
        assert all(c <= cap for c in capped.per_vertex_count)
        # only edges with an overloaded endpoint disappear
        for e in drawn - capped.edges:
            assert held[e[0]] > cap or held[e[1]] > cap


class TestBulkViolations:
    def test_a_pair_hand_case(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_events(g, phi, sel,
                             PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert [(e.kind, e.witness) for e in events] == [("A_pair", (0, 1))]

    def test_b_vertex_joins_at_smaller_eps(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_events(g, phi, sel, PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A_pair", (0, 1)), ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_empty_selection_no_a_pair(self):
        # without m selected edges at either hub the pair event stays quiet,
        # but now every neighbour is under-selected, so both hubs trip B
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(14, [])
        events = bulk_events(g, phi, sel,
                             PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert [(e.kind, e.witness) for e in events] == [
            ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_rejects_low_low_edge(self):
        # the stage draws only candidate edges, so even at p = 1 the edge
        # joining two leaves is never selected
        g, phi = two_hub_fixture()
        g2 = Graph.build(14, list(g.edges) + [(2, 8)])
        sel = first_bulk_round(g2, greedy_total(g2), m=5, d=1)
        assert sel.edges == g.edge_set

    def test_rejects_over_cap(self):
        # p = 1 selects every edge; both hubs hold 7 > M, so all their
        # edges, which are all edges, are dropped
        g, phi = two_hub_fixture()
        sel = first_bulk_round(g, phi, m=5, d=1, M=3)
        assert sel.edges == frozenset()

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
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
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
        assert bulk_events(g, phi, res.selection, params) == []

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
            assert bulk_events(g, phi, res.selection, params) == []

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
    def test_draws_exactly_b_per_light_vertex(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        sel = first_patch_draw(g, phi, empty, frozenset({0, 1}), seed=5)
        assert sel.per_vertex_count[0] == 2 and sel.per_vertex_count[1] == 2
        for u, v in sel.edges:
            assert (u in {0, 1}) != (v in {0, 1})

    def test_avoids_bulk_edges(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(5, [(0, 2), (0, 3)])
        sel = first_patch_draw(g, phi, bulk, frozenset({0}), seed=5)
        assert sel.edges == frozenset({(0, 1), (0, 4)})  # the only pool left

    def test_uniform_over_pairs(self):
        # 6 possible 2-subsets of vertex 0's four edges; fixed seeds, so
        # the observed counts are reproducible
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        counts: dict = {}
        for seed in range(3000):
            sel = first_patch_draw(g, phi, empty, frozenset({0}), seed=seed)
            key = tuple(sorted(sel.edges))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        assert all(400 <= c <= 600 for c in counts.values())


class TestPatchViolations:
    def test_b2_pair_hand_case(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 3), (0, 4), (1, 2), (1, 3)])
        events = patch_events(g, phi, empty, patch, frozenset({0, 1}),
                              PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (3,)), ("B2_pair", (0, 1))]

    def test_a2_overload_hand_case(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        patch = EdgeSelection.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3)])
        events = patch_events(g, phi, empty, patch, frozenset({0, 1}),
                              PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (2,)), ("A2_overload", (3,))]

    # the stage's draws have the shape the events assume; these check it
    # on its own output over many seeds

    def test_rejects_overlap_with_bulk(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(5, [(0, 3)])
        for seed in range(50):
            sel = first_patch_draw(g, phi, bulk, frozenset({0, 1}), seed=seed)
            assert not sel.edges & bulk.edges

    def test_rejects_light_light_edge(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(5, [])
        for seed in range(50):
            sel = first_patch_draw(g, phi, empty, frozenset({0, 1}), seed=seed)
            assert all((u in {0, 1}) != (v in {0, 1}) for u, v in sel.edges)

    def test_rejects_wrong_count(self):
        g = complete_graph(7)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(7, [])
        light = frozenset({0, 2, 5})
        for seed in range(50):
            sel = first_patch_draw(g, phi, empty, light, seed=seed, B=3)
            assert [sel.per_vertex_count[u] for u in sorted(light)] == [3, 3, 3]

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
        drawn = reference_patch_first_draw(g, empty.edges, light, 2, draw_seed)
        assume(light and drawn is not None)
        patch = EdgeSelection.from_edges(g.n, drawn)
        params = PipelineParams(m=5, d=1)
        got = [(e.kind, e.witness)
               for e in patch_events(g, phi, empty, patch, light, params)]
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
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
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
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
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
        drawn = reference_patch_first_draw(g, bulk.edges, light, 2, draw_seed)
        assume(light and drawn is not None)
        patch = EdgeSelection.from_edges(g.n, drawn)
        params = PipelineParams(m=5, d=1)
        got = [(e.kind, e.witness)
               for e in patch_events(g, phi, bulk, patch, light, params)]
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


class TestFirstDrawAgainstReference:
    """Each stage's first selection against a plain-set rederivation of the
    draw it makes from its stream."""

    @given(st.integers(2, 12), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 99),
           st.integers(0, 999), st.sampled_from([2.0, 4.0, 8.0]), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_bulk_first_round(self, n, q, graph_seed, seed, lam, cap):
        g = random_gnp(n, q, graph_seed)
        params = PipelineParams(lam=lam, M=cap, seed=seed, max_rounds=1)
        res = find_bulk_deletion(g, greedy_total(g), params)
        expected = reference_bulk_first_round(g, params.resolve(g).p, cap, seed)
        assert res.rounds == 1
        assert res.selection == EdgeSelection.from_edges(g.n, expected)

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99),
           st.integers(0, 999), st.sampled_from([0.0, 0.3]), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_patch_first_draw(self, n, graph_seed, light_seed, seed, q, B):
        g = dense_graph(n, graph_seed)
        phi = greedy_total(g)
        cands = candidate_edges(g)
        rng = np.random.Generator(np.random.Philox(light_seed))
        bulk = EdgeSelection.from_edges(
            g.n, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        light = frozenset(v for v in sorted(degree_split(g).high) if rng.random() < 0.4)
        assume(light)
        params = PipelineParams(m=5, d=1, B=B, seed=seed, max_rounds=1)
        res = find_patch_deletion(g, phi, bulk, light, params)
        expected = reference_patch_first_draw(g, bulk.edges, light, B, seed)
        if expected is None:
            assert res.infeasible_vertex is not None and res.rounds == 0
        else:
            assert res.infeasible_vertex is None and res.rounds == 1
            assert res.selection == EdgeSelection.from_edges(g.n, expected)


def golden_hub_graph(n, hubs, hub_degree, seed):
    """test_golden's hub graph: hubs of equal degree form a clique over a
    sparse background of 2n edges. B_vertex fires at every hub whatever is
    drawn, so the search ends at its stall cap; the hub clique gives
    A_pair live edges."""
    return Graph.build(*hub_edges(n=n, hubs=hubs, hub_degree=hub_degree,
                                  m=2 * n, seed=seed))


def assert_bulk_search_matches_reference(g, params):
    phi = greedy_total(g)
    res = find_bulk_deletion(g, phi, params)
    assert res == reference_find_bulk_deletion(g, phi, params)
    return res


# (m, d) pairs under which hub A_pair events fire at p near 1
HUB_SHAPES = [(8, 4), (10, 6), (12, 8)]


class TestBulkSearchAgainstReference:
    """find_bulk_deletion's whole result (selection, success, rounds,
    violations) against its loop rerun with plain-set checks every round."""

    @given(st.integers(0, 999), st.integers(2, 5), st.sampled_from([20, 30]),
           st.sampled_from([0.85, 0.95]), st.sampled_from(HUB_SHAPES),
           st.sampled_from([3, 6, 10]))
    @settings(max_examples=40, deadline=None)
    def test_hub_graphs(self, seed, hubs, hub_degree, q, shape, stall):
        m, d = shape
        g = golden_hub_graph(80, hubs, hub_degree, seed)
        params = PipelineParams(m=m, d=d, lam=q * hub_degree, seed=seed,
                                stall_rounds=stall)
        assert params.resolve(g).p < 1
        assert_bulk_search_matches_reference(g, params)

    @given(st.integers(6, 16), st.sampled_from([0.5, 0.8, 1.0]), st.integers(0, 999),
           st.sampled_from(CHECK_SHAPES), st.sampled_from([3.0, 5.0, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_gnp_graphs(self, n, q, seed, shape, lam):
        m, d = shape
        g = random_gnp(n, q, seed)
        assume(g.max_degree > lam)
        params = PipelineParams(m=m, d=d, lam=lam, seed=seed, stall_rounds=6)
        assert params.resolve(g).p < 1
        assert_bulk_search_matches_reference(g, params)

    @pytest.mark.parametrize("g", [
        complete_graph(9), random_gnp(30, 0.5, 3), star_graph(12),
        Graph.build(5, []), Graph.build(0, [])])
    def test_saturated_p_and_edgeless(self, g):
        params = PipelineParams(m=5, d=1, seed=4)
        assert params.resolve(g).p == 1.0
        res = assert_bulk_search_matches_reference(g, params)
        assert res.rounds == 1

    def test_corpus_resamples_to_success_and_to_the_stall_cap(self):
        results = [assert_bulk_search_matches_reference(g, params) for g, params in [
            (golden_hub_graph(80, 4, 30, 1),
             PipelineParams(m=10, d=6, lam=28.5, seed=1, stall_rounds=10)),
            (golden_hub_graph(80, 4, 30, 2),
             PipelineParams(m=12, d=8, lam=28.5, seed=2, stall_rounds=10)),
            (random_gnp(14, 0.8, 2), PipelineParams(m=5, d=1, lam=5.0, seed=2)),
            (complete_graph(12), PipelineParams(m=6, d=1, lam=6.0, seed=7)),
        ]]
        assert max(r.rounds for r in results) >= 20
        assert any(r.success and r.rounds > 1 for r in results)
        # neither cap on rounds was reached, so the stall cap ended the search
        assert any(not r.success and r.rounds < PipelineParams().max_rounds
                   and any(e.kind == "A_pair" for e in r.violations)
                   for r in results)


def assert_patch_search_matches_reference(g, phi, bulk, light, params):
    res = find_patch_deletion(g, phi, bulk, light, params)
    assert res == reference_find_patch_deletion(g, phi, bulk, light, params)
    return res


class TestPatchSearchAgainstReference:
    """find_patch_deletion's whole result against its loop rerun on plain
    edge sets with plain-set checks every round."""

    @given(st.integers(5, 11), st.integers(0, 999), st.integers(0, 999),
           st.sampled_from([0.0, 0.3]), st.sampled_from([2, 3]),
           st.sampled_from([3, 6]))
    @settings(max_examples=60, deadline=None)
    def test_random_inputs(self, n, graph_seed, seed, q, B, stall):
        # odd cliques take the cyclic colouring, under which B2_pair fires
        if n % 2 and graph_seed % 2:
            g, phi = cyclic_clique(n)
        else:
            g = dense_graph(n, graph_seed)
            phi = greedy_total(g)
        rng = np.random.Generator(np.random.Philox(graph_seed))
        cands = candidate_edges(g)
        bulk = EdgeSelection.from_edges(
            g.n, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        light = frozenset(v for v in sorted(degree_split(g).high) if rng.random() < 0.4)
        assume(light)
        params = PipelineParams(m=5, d=1, B=B, seed=seed, stall_rounds=stall,
                                max_rounds=40)
        assert_patch_search_matches_reference(g, phi, bulk, light, params)

    def test_corpus_resamples_to_success_and_to_both_caps(self):
        empty7 = EdgeSelection.from_edges(7, [])
        k7, phi7 = cyclic_clique(7)
        cases = [
            (k7, phi7, empty7, frozenset({0, 1}), PipelineParams(m=5, d=1, seed=3)),
            (k7, phi7, empty7, frozenset({3, 5}),
             PipelineParams(m=5, d=1, seed=2, stall_rounds=4)),
            (*cyclic_clique(9), EdgeSelection.from_edges(9, []), frozenset({0, 1, 2, 3}),
             PipelineParams(m=5, d=1, seed=1, max_rounds=5)),
            (star_graph(4), greedy_total(star_graph(4)), EdgeSelection.from_edges(5, []),
             frozenset({0}), PipelineParams(m=5, d=1, B=4)),
            (cycle_graph(5), greedy_total(cycle_graph(5)), EdgeSelection.from_edges(5, []),
             frozenset(range(5)), PipelineParams(m=5, d=1)),
        ]
        success, stalled, capped, forced, infeasible = (
            assert_patch_search_matches_reference(*case) for case in cases)
        assert success.success and success.rounds == 4
        assert not stalled.success and stalled.rounds == 6
        assert [e.kind for e in stalled.violations] == ["B2_pair"]
        assert not capped.success and capped.rounds == 5
        assert forced.success and forced.rounds == 1
        assert infeasible.infeasible_vertex == 0 and infeasible.rounds == 0


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
