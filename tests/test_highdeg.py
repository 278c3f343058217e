"""Randomized deletion stages: parameters, events, and resampling searches."""

import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avdtotal import (BadEvent, EdgeSelection, Graph, PipelineParams,
                      TotalColoring, complete_graph,
                      cycle_graph, degree_split, derive_constants, find_bulk_deletion,
                      find_patch_deletion, greedy_total, light_vertices,
                      random_gnp, run_pipeline, star_graph, substream)
from avdtotal import graphs
from avdtotal.highdeg import _BulkCheck, _PatchCheck, _close

from helpers import (edge_dict, from_edge_dict, hub_graph, naive_color_set,
                     reference_bulk_events, reference_bulk_first_round,
                     reference_find_bulk_deletion, reference_find_patch_deletion,
                     reference_forced, reference_patch_events,
                     reference_patch_first_draw, used_colours)
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
    phi = from_edge_dict(
        g, (1, 2, 4, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1),
        {(0, 1): 3, (0, 2): 2, (0, 3): 4, (0, 4): 5, (0, 5): 6, (0, 6): 7,
         (0, 7): 8, (1, 8): 1, (1, 9): 4, (1, 10): 5, (1, 11): 6, (1, 12): 7,
         (1, 13): 8}, 8)
    return g, phi


def candidate_edges(g, phi):
    """The bulk stage's candidate edges, the rows of g.edges its own check
    lists; m, d and eps do not change them."""
    return [g.edges[r] for r in _BulkCheck(g, phi, 8, 4, Fraction(1, 3)).rows]


def bulk_events(g, phi, sel, params):
    """The events find_bulk_deletion's own check reports for sel, given to
    it as a boolean array over the candidate edges."""
    check = _BulkCheck(g, phi, params.m, params.d, params.eps)
    selected = np.array([g.edges[r] in sel.edges for r in check.rows], dtype=bool)
    return check.events(selected, np.array(sel.per_vertex_count, dtype=np.int64))


def patch_events(g, phi, bulk, patch, light, params):
    """The events find_patch_deletion's own check reports for patch, given
    to it as an index array over the rows of the check's pools."""
    check = _PatchCheck(g, phi, bulk, light, params.alpha, params.B)
    index = {r: i for i, r in enumerate(check.rows.tolist())}
    chosen = np.array([index[r] for r in patch.rows], dtype=np.int64)
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
    phi = TotalColoring(tuple((2 * v) % n + 1 for v in range(n)),
                        tuple((i + j) % n + 1 for i, j in g.edges), n, g)
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
        p = PipelineParams(eps="1/4", alpha=0.25)
        assert p.eps == Fraction(1, 4)
        assert p.alpha == Fraction(1, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(m=7, d=4),           # m < d + 4
        dict(d=0),
        dict(eps=Fraction(0)),
        dict(eps=Fraction(1)),
        dict(alpha=Fraction(0)),
        dict(alpha=Fraction(-1, 2)),
        dict(alpha=Fraction(3, 4)),  # a light vertex may sit below alpha*Δ
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
        dict(m=10 ** 400),        # resolve's lam would not be a float
        dict(eps=Fraction(1, 10 ** 400)),  # nor would ln(3/eps)
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
        g = complete_graph(51)
        r = PipelineParams().resolve(g)
        assert g.max_degree == 50
        assert r.lam == pytest.approx(49.23655574633871, abs=1e-9)
        assert r.M == 268
        assert r.p == pytest.approx(r.lam / 50)

    def test_resolve_small_graph_saturates_p(self):
        r = PipelineParams().resolve(complete_graph(5))
        assert r.p == 1.0

    def test_resolve_edgeless(self):
        g = Graph.build(3, [])
        r = PipelineParams().resolve(g)
        assert g.max_degree == 0 and r.p == 1.0

    def test_resolve_lam_override_recomputes_cap(self):
        r = PipelineParams(lam=34.0).resolve(complete_graph(51))
        assert r.lam == 34.0
        assert r.M == 185  # ceil(2e * 34)

    def test_resolve_both_overrides(self):
        r = PipelineParams(lam=25.0, M=30).resolve(star_graph(60))
        assert (r.lam, r.M) == (25.0, 30)
        assert r.p == pytest.approx(25.0 / 60.0)

    @pytest.mark.parametrize("m, d, eps", [(8, 4, Fraction(1, 3)), (9, 5, Fraction(1, 7)),
                                           (20, 1, Fraction(99, 100))])
    @pytest.mark.parametrize("lam", [None, 1e-9, 2, 25.0, 34.0, Fraction(7, 2)])
    @pytest.mark.parametrize("M", [None, 1, 30, 268])
    def test_resolve_is_derive_constants(self, m, d, eps, lam, M):
        # one rule for lam, M and p: resolve asks derive_constants at
        # max(Δ, 1), and an edgeless graph gets p = 1
        params = PipelineParams(m=m, d=d, eps=eps, lam=lam, M=M)
        for g in (Graph.build(0, []), Graph.build(3, []), complete_graph(2),
                  complete_graph(5), star_graph(60), complete_graph(51)):
            delta = g.max_degree
            r = params.resolve(g)
            expected = derive_constants(m, d, eps, max(delta, 1), lam, M)
            assert r == (expected if delta else replace(expected, p=1.0))
            assert r.lam == (float(lam) if lam is not None else
                             derive_constants(m, d, eps, 1).lam)
            assert r.M == (M if M is not None else math.ceil(2 * math.e * r.lam))
            assert r.p == (min(1.0, r.lam / delta) if delta else 1.0)


class TestEdgeSelection:
    def test_from_edges_normalizes(self):
        g = complete_graph(4)
        s = EdgeSelection.from_edges(g, [(2, 0), (0, 2), (1, 3)])
        assert s.edges == frozenset({(0, 2), (1, 3)})
        assert s.rows == (1, 4)
        assert s.per_vertex_count == (1, 1, 1, 1)
        assert s.graph is g

    def test_counts(self):
        s = EdgeSelection.from_edges(complete_graph(4), [(0, 1), (0, 2), (0, 3)])
        assert s.per_vertex_count[0] == 3 and s.per_vertex_count[2] == 1

    def test_takes_the_graph_not_its_vertex_count(self):
        with pytest.raises(TypeError, match="^from_edges takes the Graph, not 3$"):
            EdgeSelection.from_edges(3, [])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"^selected edge \(0, 3\) is not in the graph$"):
            EdgeSelection.from_edges(complete_graph(3), [(0, 3)])

    @pytest.mark.parametrize("pairs, stray", [
        ([(0, 2), (1, 2)], (1, 2)),              # in range, not an edge
        ([(3, 0), (5, 4), (-1, 0)], (-1, 0)),    # below range; (3, 0) is (0, 3)
        ([(4, 5), (2, 2), (0, 7)], (0, 7)),      # above range
        ([(2, 2), (3, 3)], (2, 2)),              # a self-loop
        ([(9, 1), (1, 9), (0, 1)], (1, 9)),      # one stray, given twice
        ([(2 ** 70, 0)], (0, 2 ** 70)),          # far beyond int64
    ])
    def test_names_the_smallest_stray(self, pairs, stray):
        g = star_graph(6)
        with pytest.raises(ValueError, match=rf"^selected edge \({stray[0]}, {stray[1]}\) "
                                             r"is not in the graph$"):
            EdgeSelection.from_edges(g, pairs)

    @pytest.mark.parametrize("pair", [(True, 1), (0, 1.0), (0, "1"), (None, 2)])
    def test_endpoints_must_be_integers(self, pair):
        with pytest.raises(ValueError, match="edge endpoint must be an integer"):
            EdgeSelection.from_edges(star_graph(6), [(0, 2), pair])

    def test_numpy_integers_are_accepted(self):
        g = star_graph(6)
        s = EdgeSelection.from_edges(g, [(np.int64(3), np.int32(0))])
        assert s == EdgeSelection.from_edges(g, [(0, 3)])
        assert type(s.rows[0]) is int

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_rows_and_counts_match_the_edges(self, n, q, seed, rnd):
        g = random_gnp(n, q, seed)
        chosen = set(rnd.sample(g.edges, rnd.randint(0, len(g.edges))))
        s = EdgeSelection.from_edges(g, [(v, u) if rnd.random() < 0.5 else (u, v)
                                         for u, v in sorted(chosen)])
        assert s.rows == tuple(i for i, e in enumerate(g.edges) if e in chosen)
        assert s.edges == chosen
        assert s.per_vertex_count == tuple(sum(v in e for e in chosen)
                                           for v in range(g.n))

    def test_edges_built_on_first_read(self):
        g = complete_graph(5)
        s = EdgeSelection.from_edges(g, [(1, 3), (0, 4)])
        assert "edges" not in vars(s)
        assert s.edges == {(0, 4), (1, 3)} and s.edges is s.edges
        # the set is a cache, not a field: equality and repr ignore it, and
        # the graph
        assert s == EdgeSelection.from_edges(Graph.build(5, g.edges), [(1, 3), (0, 4)])
        assert "edges" not in repr(s) and "graph" not in repr(s)

    @pytest.mark.parametrize("rows", [(1.5,), (True,), ("0",), ((0, 1),), (2 ** 70,),
                                      np.array([0.0])])
    def test_rows_must_be_integers(self, rows):
        with pytest.raises(ValueError,
                           match=r"^selection rows must ascend strictly within 0\.\.5$"):
            EdgeSelection(rows, star_graph(6))

    def test_rows_take_an_array_and_store_ints(self):
        g = star_graph(6)
        s = EdgeSelection(np.array([0, 2], dtype=np.int32), g)
        assert s.rows == (0, 2) and all(type(r) is int for r in s.rows)
        assert s == EdgeSelection.from_edges(g, [(0, 1), (0, 3)])
        with pytest.raises(TypeError, match="^a selection is made on a Graph, not 6$"):
            EdgeSelection((0,), 6)

    @given(st.integers(6, 80), st.sampled_from([0.05, 0.2, 0.5]),
           st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_stage_counts_are_a_counter_over_the_edges(self, n, q, seed, hubs, low_m):
        # the counts of both stages' selections, derived from their rows,
        # are those of the edges they hold
        g = hub_graph(seed, n, 3, 3) if hubs else random_gnp(n, q, seed)
        phi = greedy_total(g)
        params = (PipelineParams(lam=3.0, m=5, d=1, seed=seed) if low_m
                  else PipelineParams(seed=seed))
        bulk = find_bulk_deletion(g, phi, params).selection
        light = light_vertices(g, bulk, params.m)
        patch = find_patch_deletion(g, phi, bulk, light, params).selection
        for selection in (bulk, patch):
            counter = Counter(v for e in selection.edges for v in e)
            assert selection.per_vertex_count == tuple(counter[v] for v in range(g.n))

    def test_bad_event_kind_validated(self):
        with pytest.raises(ValueError):
            BadEvent("no-such-kind", (0,))


class TestCandidatesAndSampling:
    def test_candidates_exclude_low_low_edges(self):
        g = Graph.build(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        # hub 0 is the only high vertex; (1, 2) joins two low vertices
        assert degree_split(g).high == frozenset({0})
        assert candidate_edges(g, greedy_total(g)) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_candidates_regular_graph_all(self):
        g = cycle_graph(5)
        assert candidate_edges(g, greedy_total(g)) == list(g.edges)

    def test_one_degree_split_per_graph(self, monkeypatch):
        g = random_gnp(60, 0.5, 0)
        assert degree_split(g) is degree_split(g)
        # a fresh graph computes its split once for every phase of the run
        built = []

        class Counted(graphs.DegreeSplit):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(graphs, "DegreeSplit", Counted)
        _, report = run_pipeline(random_gnp(60, 0.5, 0),
                                 params=PipelineParams(seed=0))
        assert not report.short_circuit
        assert len(built) == 1

    def test_sample_extremes(self):
        # K_5 has max degree 4 < lam, so p = 1; a tiny lam makes p ~ 1e-13
        g = complete_graph(5)
        phi = greedy_total(g)
        assert first_bulk_round(g, phi).edges == set(g.edges)
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
        cands = candidate_edges(g, phi)
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
        assert first_bulk_round(g, phi, M=4).edges == set(g.edges)

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
        held = EdgeSelection.from_edges(g, drawn).per_vertex_count
        assert capped.edges <= drawn
        assert all(c <= cap for c in capped.per_vertex_count)
        # only edges with an overloaded endpoint disappear
        for e in drawn - capped.edges:
            assert held[e[0]] > cap or held[e[1]] > cap


class TestBulkViolations:
    def test_a_pair_hand_case(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(g, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_events(g, phi, sel,
                             PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert [(e.kind, e.witness) for e in events] == [("A_pair", (0, 1))]

    def test_b_vertex_joins_at_smaller_eps(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(g, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        events = bulk_events(g, phi, sel, PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A_pair", (0, 1)), ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_empty_selection_no_a_pair(self):
        # without m selected edges at either hub the pair event stays quiet,
        # but now every neighbour is under-selected, so both hubs trip B
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(g, [])
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
        assert sel.edges == set(g.edges)

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
        cands = candidate_edges(g, phi)
        rng = np.random.Generator(np.random.Philox(subset_seed))
        mask = rng.random(len(cands)) < 0.5
        sel = EdgeSelection.from_edges(g, [e for e, k in zip(cands, mask) if k])
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
        assert got == reference_bulk_events(g, phi, sel.edges, 6, 2, Fraction(2, 5))


class TestFindBulkDeletion:
    def test_saturated_p_success_round_one(self):
        g, phi = two_hub_fixture()
        res = find_bulk_deletion(g, phi, PipelineParams(m=5, d=1, eps=Fraction(9, 10)))
        assert res.success and res.rounds == 1
        assert res.selection.edges == set(g.edges)  # p = 1 keeps everything

    def test_saturated_p_deterministic_failure(self):
        g, phi = two_hub_fixture()
        res = find_bulk_deletion(g, phi, PipelineParams(m=5, d=1))
        assert not res.success and res.rounds == 1
        assert [(e.kind, e.witness) for e in res.violations] == [
            ("B_vertex", (0,)), ("B_vertex", (1,))]

    def test_underflowing_p_deterministic_failure(self):
        # lam/max_degree underflows to p = 0.0, so every draw is empty and
        # the search stops after one round, as at p = 1
        g = random_gnp(60, 0.5, 3)
        params = PipelineParams(lam=5e-324)
        assert params.resolve(g).p == 0.0
        res = find_bulk_deletion(g, greedy_total(g), params)
        assert res.rounds == 1 and not res.success
        assert res.selection.edges == frozenset()

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


def assert_close_matches_naive(g, phi, rows, rng):
    """``_close`` on every pair of vertices of g against naive colour sets
    minus the removed colours, at d = 1 (B2_pair) and at the bulk stage's
    d, twice: each time with a random subset of rows, rows of g.edges,
    removed."""
    pairs = np.column_stack(np.triu_indices(g.n, 1))
    colour_of = edge_dict(phi)
    ends = np.array([g.edges[r] for r in rows], dtype=np.int64).reshape(-1, 2)
    colours = np.array([colour_of[g.edges[r]] for r in rows], dtype=np.int64)
    for q_del in (0.3, 0.7):
        removed = rng.random(len(rows)) < q_del
        gone = [g.edges[r] for r, x in zip(rows, removed.tolist()) if x]
        sets = [naive_color_set(g, phi, v) - {colour_of[e] for e in gone if v in e}
                for v in range(g.n)]
        for d in (1, PipelineParams().d):
            assert _close(phi.stars, pairs, ends, colours, removed, d) == [
                (u, v) for u, v in pairs.tolist() if len(sets[u] ^ sets[v]) < d]


class TestStarSets:
    """_close, the restricted colour-set test of both stages, on rows of the
    bulk stage's candidates or of the patch stage's pools."""

    @given(st.integers(2, 14), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 99),
           st.integers(0, 99), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_masks_at_every_vertex(self, n, q, seed, draw_seed, light_list):
        g = random_gnp(n, q, seed)
        phi = greedy_total(g)
        rng = np.random.Generator(np.random.Philox(draw_seed))
        if light_list:  # the patch stage's list: the pools of its light vertices
            light = frozenset(v for v in sorted(degree_split(g).high)
                              if rng.random() < 0.5)
            rows = _PatchCheck(g, phi, EdgeSelection.from_edges(g, []), light,
                               Fraction(1, 2), 2).rows.tolist()
        else:
            rows = _BulkCheck(g, phi, 8, 4, Fraction(1, 3)).rows.tolist()
        assert_close_matches_naive(g, phi, rows, rng)

    def test_masks_across_words(self):
        # first-fit colours K_64 with 1..127, so a mask spans two 64-bit
        # words; K_40's greedy palette, 1..63, still fits in one
        g = complete_graph(64)
        phi = greedy_total(g)
        assert phi.k == 127
        rng = np.random.Generator(np.random.Philox(0))
        light = frozenset(range(0, 64, 3))
        for rows in (_BulkCheck(g, phi, 8, 4, Fraction(1, 3)).rows.tolist(),
                     _PatchCheck(g, phi, EdgeSelection.from_edges(g, []), light,
                                 Fraction(1, 2), 2).rows.tolist()):
            assert_close_matches_naive(g, phi, rows, rng)


class TestLightVertices:
    def test_after_heavy_selection_none_light(self):
        g, phi = two_hub_fixture()
        sel = EdgeSelection.from_edges(g, [
            (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 9), (1, 10), (1, 11), (1, 12), (1, 13)])
        assert light_vertices(g, sel, 5) == frozenset()

    def test_empty_selection_all_high_light(self):
        g, phi = two_hub_fixture()
        assert light_vertices(g, EdgeSelection.from_edges(g, []), 5) == {0, 1}

    def test_low_vertices_never_light(self):
        g = star_graph(5)
        light = light_vertices(g, EdgeSelection.from_edges(g, []), 5)
        assert light == frozenset({0})

    @pytest.mark.parametrize("m", [2.5, True, "3", None], ids=repr)
    def test_rejects_non_integer_m(self, m):
        # 2.5 and True ran as thresholds, and "3" and None escaped as TypeError
        g, _ = two_hub_fixture()
        with pytest.raises(ValueError, match="^m must be an integer"):
            light_vertices(g, EdgeSelection.from_edges(g, []), m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_m_below_one(self, m):
        # no vertex holds fewer than 0 edges, so m = 0 or -1 returned an
        # empty light set and skipped the patch stage without an error
        g = star_graph(5)
        with pytest.raises(ValueError, match=f"^m must be at least 1, got {m}$"):
            light_vertices(g, EdgeSelection.from_edges(g, []), m)


class TestSamplePatch:
    def test_draws_exactly_b_per_light_vertex(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
        sel = first_patch_draw(g, phi, empty, frozenset({0, 1}), seed=5)
        assert sel.per_vertex_count[0] == 2 and sel.per_vertex_count[1] == 2
        for u, v in sel.edges:
            assert (u in {0, 1}) != (v in {0, 1})

    def test_avoids_bulk_edges(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(g, [(0, 2), (0, 3)])
        sel = first_patch_draw(g, phi, bulk, frozenset({0}), seed=5)
        assert sel.edges == frozenset({(0, 1), (0, 4)})  # the only pool left

    def test_uniform_over_pairs(self):
        # 6 possible 2-subsets of vertex 0's four edges; fixed seeds, so
        # the observed counts are reproducible
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
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
        empty = EdgeSelection.from_edges(g, [])
        patch = EdgeSelection.from_edges(g, [(0, 3), (0, 4), (1, 2), (1, 3)])
        events = patch_events(g, phi, empty, patch, frozenset({0, 1}),
                              PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (3,)), ("B2_pair", (0, 1))]

    def test_a2_overload_hand_case(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
        patch = EdgeSelection.from_edges(g, [(0, 2), (0, 3), (1, 2), (1, 3)])
        events = patch_events(g, phi, empty, patch, frozenset({0, 1}),
                              PipelineParams(m=5, d=1))
        assert [(e.kind, e.witness) for e in events] == [
            ("A2_overload", (2,)), ("A2_overload", (3,))]

    # the stage's draws have the shape the events assume; these check it
    # on its own output over many seeds

    def test_rejects_overlap_with_bulk(self):
        g, phi = k5_fixture()
        bulk = EdgeSelection.from_edges(g, [(0, 3)])
        for seed in range(50):
            sel = first_patch_draw(g, phi, bulk, frozenset({0, 1}), seed=seed)
            assert not sel.edges & bulk.edges

    def test_rejects_light_light_edge(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
        for seed in range(50):
            sel = first_patch_draw(g, phi, empty, frozenset({0, 1}), seed=seed)
            assert all((u in {0, 1}) != (v in {0, 1}) for u, v in sel.edges)

    def test_rejects_wrong_count(self):
        g = complete_graph(7)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
        light = frozenset({0, 2, 5})
        for seed in range(50):
            sel = first_patch_draw(g, phi, empty, light, seed=seed, B=3)
            assert [sel.per_vertex_count[u] for u in sorted(light)] == [3, 3, 3]

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_naive(self, n, seed, draw_seed):
        g = random_gnp(n, 0.5, seed)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
        # the checker accepts any light set; pick an arbitrary slice of the
        # high vertices so non-light neighbours stay plentiful
        high = sorted(degree_split(g).high)
        light = frozenset(high[: len(high) // 3])
        drawn = reference_patch_first_draw(g, empty.edges, light, 2, draw_seed)
        assume(light and drawn is not None)
        patch = EdgeSelection.from_edges(g, drawn)
        params = PipelineParams(m=5, d=1)
        got = [(e.kind, e.witness)
               for e in patch_events(g, phi, empty, patch, light, params)]
        assert got == reference_patch_events(g, phi, empty.edges, patch.edges,
                                             light, params.alpha, 2)


class TestFindPatchDeletion:
    def test_success_on_star(self):
        g = star_graph(6)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
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
        empty = EdgeSelection.from_edges(g, [])
        light = light_vertices(g, empty, 5)
        res = find_patch_deletion(g, phi, empty, light, PipelineParams(m=5, d=1))
        assert not res.success
        assert res.rounds == 0
        assert res.infeasible_vertex == 0
        assert res.selection.edges == frozenset()

    def test_forced_draw_single_round(self):
        g = star_graph(4)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
        light = light_vertices(g, empty, 5)
        res = find_patch_deletion(g, phi, empty, light,
                                  PipelineParams(m=5, d=1, B=4))
        assert res.success and res.rounds == 1
        assert res.selection.edges == set(g.edges)

    def test_pigeonhole_failure_returns_best(self):
        # four patch slots over three non-light K_5 vertices always overload
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
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
        empty = EdgeSelection.from_edges(g, [])
        with pytest.raises(ValueError):
            # leaf 1 is below the alpha threshold
            find_patch_deletion(g, phi, empty, frozenset({1}),
                                PipelineParams(m=5, d=1))

    @pytest.mark.parametrize("light, message", [
        ({7}, "light vertex 7 is not a vertex of the graph"),
        ({-7}, "light vertex -7 is not a vertex of the graph"),
        ({0, 9, 8}, "light vertex 8 is not a vertex of the graph"),
        ({0.0}, "light vertex must be an integer, got 0.0"),
        ({0, True}, "light vertex must be an integer, got True"),
        ({"0"}, "light vertex must be an integer, got '0'"),
    ])
    def test_light_must_be_vertices(self, light, message, monkeypatch):
        # rejected before any pool is built
        def refuse(*args):
            raise AssertionError("a pool was built")

        monkeypatch.setattr("avdtotal.highdeg._PatchCheck", refuse)
        g = star_graph(6)
        empty = EdgeSelection.from_edges(g, [])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_patch_deletion(g, greedy_total(g), empty, frozenset(light))

    def test_numpy_light_vertex_is_accepted(self):
        g = star_graph(6)
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
        params = PipelineParams(m=5, d=1, seed=3)
        assert (find_patch_deletion(g, phi, empty, frozenset({np.int64(0)}), params)
                == find_patch_deletion(g, phi, empty, frozenset({0}), params))

    @pytest.mark.parametrize("made_on", [star_graph(5), Graph.build(7, [(0, 1)])],
                             ids=["smaller-star", "same-n"])
    def test_bulk_from_another_graph(self, made_on):
        g = star_graph(6)
        bulk = EdgeSelection.from_edges(made_on, [])
        with pytest.raises(ValueError, match="not made on this graph"):
            light_vertices(g, bulk, 5)
        with pytest.raises(ValueError, match="not made on this graph"):
            find_patch_deletion(g, greedy_total(g), bulk, frozenset({0}))

    def test_bulk_from_an_equal_graph(self):
        g = star_graph(6)
        phi = greedy_total(g)
        params = PipelineParams(m=5, d=1, seed=3)
        twin = EdgeSelection.from_edges(Graph.build(g.n, g.edges), [])
        own = EdgeSelection.from_edges(g, [])
        assert light_vertices(g, twin, 5) == frozenset({0})
        assert (find_patch_deletion(g, phi, twin, frozenset({0}), params)
                == find_patch_deletion(g, phi, own, frozenset({0}), params))

    def test_deterministic_per_seed(self):
        g, phi = k5_fixture()
        empty = EdgeSelection.from_edges(g, [])
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
        cands = candidate_edges(g, phi)
        rng = np.random.Generator(np.random.Philox(subset_seed))
        sel = EdgeSelection.from_edges(
            g, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
        assert got == reference_bulk_events(g, phi, sel.edges, m, d, params.eps)

    def test_bulk_check_fires_at_every_edge_of_a_full_selection(self):
        # every vertex of K_9 is high, and selecting all edges gives each
        # vertex 8 >= m selected edges; the restricted sets shrink to the
        # two vertex colours, which differ in 2 < d places, so A_pair fires
        # at every edge
        g = complete_graph(9)
        phi = greedy_total(g)
        sel = EdgeSelection.from_edges(g, g.edges)
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
        assert sel == EdgeSelection.from_edges(g, sel.edges)
        expected = reference_bulk_events(g, phi, sel.edges, m, d, params.eps)
        assert [(e.kind, e.witness) for e in res.violations] == expected
        assert res.success == (not expected)

    @given(st.integers(6, 12), st.integers(0, 99), st.integers(0, 99),
           st.integers(0, 99), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_patch_check_on_dense_selections(self, n, seed, light_seed, draw_seed, q):
        g = dense_graph(n, seed)
        phi = greedy_total(g)
        cands = candidate_edges(g, phi)
        rng = np.random.Generator(np.random.Philox(light_seed))
        bulk = EdgeSelection.from_edges(
            g, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        high = sorted(degree_split(g).high)
        light = frozenset(v for v in high if rng.random() < 0.4)
        drawn = reference_patch_first_draw(g, bulk.edges, light, 2, draw_seed)
        assume(light and drawn is not None)
        patch = EdgeSelection.from_edges(g, drawn)
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
        empty = EdgeSelection.from_edges(g, [])
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
        assert res.selection == EdgeSelection.from_edges(g, expected)

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99),
           st.integers(0, 999), st.sampled_from([0.0, 0.3]), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_patch_first_draw(self, n, graph_seed, light_seed, seed, q, B):
        g = dense_graph(n, graph_seed)
        phi = greedy_total(g)
        cands = candidate_edges(g, phi)
        rng = np.random.Generator(np.random.Philox(light_seed))
        bulk = EdgeSelection.from_edges(
            g, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        light = frozenset(v for v in sorted(degree_split(g).high) if rng.random() < 0.4)
        assume(light)
        params = PipelineParams(m=5, d=1, B=B, seed=seed, max_rounds=1)
        res = find_patch_deletion(g, phi, bulk, light, params)
        expected = reference_patch_first_draw(g, bulk.edges, light, B, seed)
        if expected is None:
            assert res.infeasible_vertex is not None and res.rounds == 0
        else:
            assert res.infeasible_vertex is None and res.rounds == 1
            assert res.selection == EdgeSelection.from_edges(g, expected)


def golden_hub_graph(n, hubs, hub_degree, seed):
    """test_golden's hub graph: hubs of equal degree form a clique over a
    sparse background of 2n edges. B_vertex fires at every hub whatever is
    drawn, so the search ends at its stall cap; the hub clique gives
    A_pair live edges."""
    return Graph.build(*hub_edges(n=n, hubs=hubs, hub_degree=hub_degree,
                                  m=2 * n, seed=seed))


def assert_bulk_search_matches_reference(g, params, phi=None):
    """The search against its reference, and the stop at the forced floor
    against the loop without it: the same returned round, no more rounds.
    phi defaults to the greedy seed of g."""
    phi = greedy_total(g) if phi is None else phi
    res = find_bulk_deletion(g, phi, params)
    assert res == reference_find_bulk_deletion(g, phi, params)
    uncapped = reference_find_bulk_deletion(g, phi, params, stop_at_floor=False)
    assert (res.selection, res.success, res.violations) == (
        uncapped.selection, uncapped.success, uncapped.violations)
    assert res.rounds <= uncapped.rounds
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


class TestForcedFloor:
    """The B_vertex events candidate-edge counts alone force, and the stop
    once the best round has no other event."""

    @given(st.integers(0, 999), st.booleans(), st.sampled_from(HUB_SHAPES),
           st.sampled_from([0.3, 0.85]))
    @settings(max_examples=40, deadline=None)
    def test_forced_is_what_every_selection_fires(self, seed, hubs, shape, q):
        m, d = shape
        g = (golden_hub_graph(80, 4, 30, seed) if hubs
             else random_gnp(14 + seed % 10, 0.5, seed))
        phi = greedy_total(g)
        params = PipelineParams(m=m, d=d, lam=q * g.max_degree, seed=seed,
                                stall_rounds=4)
        res = find_bulk_deletion(g, phi, params)
        # keeping every candidate edge maximises every count, so B_vertex
        # fires there exactly at the vertices where it fires in every round
        everything = frozenset(candidate_edges(g, phi))
        full = [w[0] for kind, w in reference_bulk_events(
            g, phi, everything, m, d, params.eps) if kind == "B_vertex"]
        assert res.forced == reference_forced(g, m, params.eps) == tuple(full)
        fired = {e.witness[0] for e in res.violations if e.kind == "B_vertex"}
        assert set(res.forced) <= fired
        assert not (res.success and res.forced)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hub_graphs_stop_in_round_one(self, seed):
        # hubs joined to a third of a sparse graph: nearly every hub
        # neighbour lies on fewer than m candidate edges
        g = hub_graph(seed, 600, 4, 5)
        params = PipelineParams(seed=seed, stall_rounds=20)
        assert 0 < params.resolve(g).p < 1
        res = assert_bulk_search_matches_reference(g, params)
        assert res.rounds == 1 and not res.success
        assert res.forced == tuple(range(5))
        assert res.violations == tuple(BadEvent("B_vertex", (h,)) for h in range(5))
        uncapped = reference_find_bulk_deletion(g, greedy_total(g), params,
                                                stop_at_floor=False)
        assert uncapped.rounds == params.stall_rounds + 1


def across_words(phi, low, high):
    """phi with colour c renamed c + 63 - low below colour high, and
    c + 127 - high from it on. Colours low, low + 1, high and high + 1 land
    on bits 63, 64, 127 and 128, either side of the ends of the first two
    64-bit words. The renaming is injective and increasing for
    1 <= low < low + 1 < high < low + 65, so a proper colouring stays
    proper and every pair of colour sets differs in as many colours as
    before."""
    def rename(c):
        return c + 63 - low if c < high else c + 127 - high

    return TotalColoring(tuple(map(rename, phi.vertex_colors)),
                         tuple(map(rename, phi.edge_colors)),
                         rename(phi.k), phi.graph)


def greedy_across_words(g, data):
    """The greedy seed of g, renamed by ``across_words`` at word boundaries
    drawn from data; first-fit uses every colour in 1..k."""
    phi = greedy_total(g)
    assert used_colours(phi) == frozenset(range(1, phi.k + 1))
    low = data.draw(st.integers(1, phi.k - 3))
    high = data.draw(st.integers(low + 2, min(phi.k - 1, low + 64)))
    renamed = across_words(phi, low, high)
    assert {63, 64, 127, 128} <= used_colours(renamed)
    return renamed


class TestWordBoundaries:
    """The bulk stage holds colour sets as rows of 64-bit words; colourings
    whose colours cross the ends of the first two words against the
    references, which hold them as Python sets."""

    @given(st.integers(5, 12), st.integers(0, 99), st.integers(0, 99),
           st.sampled_from(CHECK_SHAPES), st.sampled_from([0.5, 0.8, 0.95]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bulk_check(self, n, seed, subset_seed, shape, q, data):
        g = dense_graph(n, seed)
        phi = greedy_across_words(g, data)
        m, d = shape
        params = PipelineParams(m=m, d=d, eps=Fraction(1, 3), lam=5.0, M=10_000)
        cands = candidate_edges(g, phi)
        rng = np.random.Generator(np.random.Philox(subset_seed))
        sel = EdgeSelection.from_edges(
            g, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        got = [(e.kind, e.witness) for e in bulk_events(g, phi, sel, params)]
        assert got == reference_bulk_events(g, phi, sel.edges, m, d, params.eps)

    @given(st.integers(0, 999), st.integers(2, 5), st.sampled_from(HUB_SHAPES),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_bulk_search(self, seed, hubs, shape, data):
        m, d = shape
        g = golden_hub_graph(80, hubs, 30, seed)
        params = PipelineParams(m=m, d=d, lam=28.5, seed=seed, stall_rounds=6)
        assert_bulk_search_matches_reference(g, params, greedy_across_words(g, data))

    def test_bulk_search_resamples(self):
        # the corpus's stall-cap search, on the colouring renamed across
        # both word ends: A_pair events keep it resampling
        g = golden_hub_graph(80, 4, 30, 2)
        params = PipelineParams(m=12, d=8, lam=28.5, seed=2, stall_rounds=10)
        phi = greedy_total(g)
        res = assert_bulk_search_matches_reference(g, params,
                                                   across_words(phi, 2, phi.k - 1))
        assert res.rounds > 10 and any(e.kind == "A_pair" for e in res.violations)


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
        cands = candidate_edges(g, phi)
        bulk = EdgeSelection.from_edges(
            g, [e for e, keep in zip(cands, rng.random(len(cands)) < q) if keep])
        light = frozenset(v for v in sorted(degree_split(g).high) if rng.random() < 0.4)
        assume(light)
        params = PipelineParams(m=5, d=1, B=B, seed=seed, stall_rounds=stall,
                                max_rounds=40)
        assert_patch_search_matches_reference(g, phi, bulk, light, params)

    def test_corpus_resamples_to_success_and_to_both_caps(self):
        def unselected(g, phi):
            return g, phi, EdgeSelection.from_edges(g, [])

        k7 = unselected(*cyclic_clique(7))
        cases = [
            (*k7, frozenset({0, 1}), PipelineParams(m=5, d=1, seed=3)),
            (*k7, frozenset({3, 5}), PipelineParams(m=5, d=1, seed=2, stall_rounds=4)),
            (*unselected(*cyclic_clique(9)), frozenset({0, 1, 2, 3}),
             PipelineParams(m=5, d=1, seed=1, max_rounds=5)),
            (*unselected(star_graph(4), greedy_total(star_graph(4))),
             frozenset({0}), PipelineParams(m=5, d=1, B=4)),
            (*unselected(cycle_graph(5), greedy_total(cycle_graph(5))),
             frozenset(range(5)), PipelineParams(m=5, d=1)),
            # K_65's cyclic colouring uses 1..65, so each colour set spans
            # two 64-bit words
            (*unselected(*cyclic_clique(65)), frozenset(range(0, 65, 2)),
             PipelineParams(m=5, d=1, seed=2, max_rounds=3)),
        ]
        success, stalled, capped, forced, infeasible, two_words = (
            assert_patch_search_matches_reference(*case) for case in cases)
        assert success.success and success.rounds == 4
        assert not stalled.success and stalled.rounds == 6
        assert [e.kind for e in stalled.violations] == ["B2_pair"]
        assert not capped.success and capped.rounds == 5
        assert forced.success and forced.rounds == 1
        assert infeasible.infeasible_vertex == 0 and infeasible.rounds == 0
        assert [e.kind for e in two_words.violations].count("B2_pair") == 2


def assert_rows_match(g, selection):
    """selection was made on g, and its rows are ints: the sorted positions
    in g.edges of the edges it holds, as ``from_edges`` finds them."""
    assert selection.graph is g
    assert all(type(r) is int for r in selection.rows)
    position = {e: i for i, e in enumerate(g.edges)}
    assert selection.rows == tuple(sorted(map(position.__getitem__, selection.edges)))
    assert selection == EdgeSelection.from_edges(g, selection.edges)


class TestSelectionRows:
    """Each stage's selection holds the rows of g.edges it selects, for
    ``pipeline.recolor_union``."""

    @given(st.integers(2, 40), st.sampled_from([0.1, 0.4, 0.8]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 3.0, None]),
           st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_both_stages(self, n, q, seed, lam, B):
        g = random_gnp(n, q, seed)
        phi = greedy_total(g)
        params = PipelineParams(m=5, d=1, B=B, lam=lam, seed=seed, max_rounds=20)
        bulk = find_bulk_deletion(g, phi, params)
        assert_rows_match(g, bulk.selection)
        light = light_vertices(g, bulk.selection, params.m)
        assert_rows_match(g, find_patch_deletion(g, phi, bulk.selection, light,
                                                 params).selection)

    def test_hub_graphs(self):
        for seed in range(3):
            g = hub_graph(seed, 300, 4, 3)
            phi = greedy_total(g)
            bulk = find_bulk_deletion(g, phi)
            assert bulk.selection.edges
            assert_rows_match(g, bulk.selection)
            patch = find_patch_deletion(g, phi, bulk.selection,
                                        light_vertices(g, bulk.selection, 8))
            assert_rows_match(g, patch.selection)

    def test_empty_selections(self):
        # no candidate edge, then no light vertex
        g = Graph.build(4, [])
        phi = greedy_total(g)
        bulk = find_bulk_deletion(g, phi)
        patch = find_patch_deletion(g, phi, bulk.selection, frozenset())
        for res in (bulk, patch):
            assert res.selection.edges == frozenset()
            assert_rows_match(g, res.selection)

    @pytest.mark.parametrize("g, B", [(cycle_graph(5), 2), (star_graph(4), 5)],
                             ids=["no-pool", "B-above-pool"])
    def test_infeasible_patch_is_marked_empty(self, g, B):
        phi = greedy_total(g)
        empty = EdgeSelection.from_edges(g, [])
        res = find_patch_deletion(g, phi, empty, light_vertices(g, empty, 5),
                                  PipelineParams(m=5, d=1, B=B))
        assert res.infeasible_vertex is not None
        assert_rows_match(g, res.selection)
        assert res.selection.rows == ()

    def test_supplied_seed(self):
        # cyclic colourings, not greedy's, with resampling in both stages
        g, phi = cyclic_clique(9)
        bulk = find_bulk_deletion(g, phi, PipelineParams(m=5, d=1, lam=3.0, seed=4,
                                                         max_rounds=30, stall_rounds=10))
        assert bulk.rounds == 11 and bulk.selection.edges
        assert_rows_match(g, bulk.selection)
        g, phi = cyclic_clique(7)
        patch = find_patch_deletion(g, phi, EdgeSelection.from_edges(g, []),
                                    frozenset({0, 1}), PipelineParams(m=5, d=1, seed=3))
        assert patch.success and patch.rounds == 4
        assert_rows_match(g, patch.selection)

    def test_mark_names_the_graph(self):
        # a selection names the graph it was made on; an equal graph built
        # again is accepted, an unequal one is not
        g = random_gnp(30, 0.3, 1)
        phi = greedy_total(g)
        selection = find_bulk_deletion(g, phi).selection
        assert selection.graph is g
        twin = Graph.build(g.n, g.edges)
        assert light_vertices(twin, selection, 8) == light_vertices(g, selection, 8)
        other = Graph.build(g.n, g.edges[1:])
        for stage in (lambda: light_vertices(other, selection, 8),
                      lambda: find_patch_deletion(other, greedy_total(other), selection,
                                                  frozenset())):
            with pytest.raises(ValueError, match="not made on this graph"):
                stage()


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
